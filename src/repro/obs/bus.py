"""The probe bus: typed fan-out from taps to observers.

A :class:`ProbeBus` is built from a list of observers and precomputes,
per event channel, the list of observer callbacks that actually
override the :class:`ProbeObserver` no-op — publishing to a channel
nobody subscribed to is a loop over an empty list.  The bus itself is
passive: it only carries events; :mod:`repro.obs.taps` is what plugs
it into a machine.

Observers implement any subset of the ``on_*`` methods::

    class WriteCounter(ProbeObserver):
        def __init__(self):
            self.writes = 0
        def on_writeback(self, ev):
            self.writes += 1

    bus = ProbeBus([WriteCounter()])

Subclassing :class:`ProbeObserver` is conventional, not required: any
object whose *class* defines a channel method is subscribed to that
channel.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

from repro.obs.events import (
    CleanerPass,
    HazardHit,
    MemEvent,
    NvmmRead,
    OpExecuted,
    StallCharged,
    WritebackAccepted,
)


class ProbeObserver:
    """Base observer: every channel defaults to a no-op.

    Subclasses override only the channels they care about; the bus
    skips the rest entirely (an un-overridden channel costs nothing
    even on a tapped machine).
    """

    def on_op(self, ev: OpExecuted) -> None:  # pragma: no cover - no-op
        pass

    def on_mem_event(self, ev: MemEvent) -> None:  # pragma: no cover
        pass

    def on_stall(self, ev: StallCharged) -> None:  # pragma: no cover
        pass

    def on_hazard(self, ev: HazardHit) -> None:  # pragma: no cover
        pass

    def on_writeback(self, ev: WritebackAccepted) -> None:  # pragma: no cover
        pass

    def on_nvmm_read(self, ev: NvmmRead) -> None:  # pragma: no cover
        pass

    def on_cleaner(self, ev: CleanerPass) -> None:  # pragma: no cover
        pass


#: Channel name -> observer method name (one bus channel per probe
#: event type; taps publish through the matching ``ProbeBus.<channel>``).
CHANNELS = {
    "op": "on_op",
    "mem_event": "on_mem_event",
    "stall": "on_stall",
    "hazard": "on_hazard",
    "writeback": "on_writeback",
    "nvmm_read": "on_nvmm_read",
    "cleaner": "on_cleaner",
}


def _subscribed(
    observers: Sequence[ProbeObserver], method: str
) -> List[Callable]:
    """Bound callbacks of observers whose class defines ``method``
    (and, for ProbeObserver subclasses, actually overrides the no-op)."""
    default = getattr(ProbeObserver, method)
    out: List[Callable] = []
    for obs in observers:
        impl = getattr(type(obs), method, None)
        if impl is not None and impl is not default:
            out.append(getattr(obs, method))
    return out


class ProbeBus:
    """Fan probe events out to the subscribed observer callbacks."""

    def __init__(self, observers: Iterable[ProbeObserver]) -> None:
        self.observers: List[ProbeObserver] = list(observers)
        self._op = _subscribed(self.observers, "on_op")
        self._mem_event = _subscribed(self.observers, "on_mem_event")
        self._stall = _subscribed(self.observers, "on_stall")
        self._hazard = _subscribed(self.observers, "on_hazard")
        self._writeback = _subscribed(self.observers, "on_writeback")
        self._nvmm_read = _subscribed(self.observers, "on_nvmm_read")
        self._cleaner = _subscribed(self.observers, "on_cleaner")
        # Single-subscriber channels skip the fan-out loop entirely:
        # the publish hook *is* the observer's callback (an instance
        # attribute shadowing the method below), which cuts one Python
        # frame per event on the dominant tracing configurations.
        for channel, _method in CHANNELS.items():
            callbacks = getattr(self, "_" + channel)
            if len(callbacks) == 1:
                setattr(self, channel, callbacks[0])

    # -- publish hooks (called by the taps) --------------------------------

    def op(self, ev: OpExecuted) -> None:
        for fn in self._op:
            fn(ev)

    def mem_event(self, ev: MemEvent) -> None:
        for fn in self._mem_event:
            fn(ev)

    def stall(self, ev: StallCharged) -> None:
        for fn in self._stall:
            fn(ev)

    def hazard(self, ev: HazardHit) -> None:
        for fn in self._hazard:
            fn(ev)

    def writeback(self, ev: WritebackAccepted) -> None:
        for fn in self._writeback:
            fn(ev)

    def nvmm_read(self, ev: NvmmRead) -> None:
        for fn in self._nvmm_read:
            fn(ev)

    def cleaner(self, ev: CleanerPass) -> None:
        for fn in self._cleaner:
            fn(ev)

    def wants(self, channel: str) -> bool:
        """Whether any observer subscribed to ``channel`` (tap hint:
        taps skip installing a wrapper nobody listens to)."""
        return bool(getattr(self, "_" + channel))
