"""Event taps: plug a :class:`~repro.obs.bus.ProbeBus` into a machine.

``attach_probes`` installs *per-instance* wrappers on exactly the
places the simulator already narrates what it is doing:

========================  =============================================
tap point                 events published
========================  =============================================
``Core.execute``          :class:`~repro.obs.events.OpExecuted`
``CoreTiming.on_event``   :class:`~repro.obs.events.MemEvent`
``LatencyLedger.event``   :class:`~repro.obs.events.HazardHit`
``LatencyLedger.stall``   :class:`~repro.obs.events.StallCharged`
``MC.accept_write_timed`` :class:`~repro.obs.events.WritebackAccepted`
``MC.read``               :class:`~repro.obs.events.NvmmRead`
``Cleaner.maybe_clean``   :class:`~repro.obs.events.CleanerPass`
========================  =============================================

The wrappers are plain instance attributes shadowing the class
methods, so:

* **zero overhead when disabled** — an untapped machine executes the
  class methods directly; no op handler, timing view, ledger, or MC
  method gains a branch, a flag check, or an indirection
  (``benchmarks/bench_obs_overhead.py`` pins the bound, and
  ``tests/obs`` asserts no instance-level overrides survive a plain
  run);
* **per-machine scope** — tapping one machine never affects another;
* **exact mirroring** — each tap publishes from the same call, with
  the same operands, as the stats counter it shadows, which is what
  makes event counts reconcile exactly with
  :class:`~repro.sim.stats.MachineStats`.

Channels nobody subscribed to are not tapped at all (``ProbeBus.wants``).

Replay machines (``Machine(_replay=True)``) may be tapped too: a
probed replay machine takes the general scheduling loop instead of the
inlined ``_run_replay`` fast path (the two interleave identically), so
every op still crosses ``Core.execute``.  Likewise, a
detailed-timing machine whose ``execute`` or ``on_event`` is tapped
skips the heap scheduler's inlined L1-hit load (decided once per
run), so those taps see every op; taps on other channels never fire
on an L1 hit and leave the inlined load in place.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.obs.bus import ProbeBus, ProbeObserver
from repro.obs.events import (
    CleanerPass,
    HazardHit,
    MemEvent,
    NvmmRead,
    OpExecuted,
    StallCharged,
    WritebackAccepted,
)
from repro.sim.ledger import EVENT_CAUSES
from repro.sim.machine import Machine

#: Attribute the active tap session is parked under on the machine.
_SESSION_ATTR = "_probe_session"


class _ProbeSession:
    """Bookkeeping for one attach: which instance attrs to remove."""

    def __init__(self, bus: ProbeBus) -> None:
        self.bus = bus
        self.installed: List[Tuple[object, str]] = []

    def install(self, obj: object, name: str, wrapper: object) -> None:
        setattr(obj, name, wrapper)
        self.installed.append((obj, name))

    def remove_all(self) -> None:
        for obj, name in reversed(self.installed):
            try:
                delattr(obj, name)
            except AttributeError:  # pragma: no cover - defensive
                pass
        self.installed.clear()


def attach_probes(machine: Machine, bus: ProbeBus) -> ProbeBus:
    """Tap ``machine`` so ``bus`` observers see its probe events.

    Attach after the machine is fully assembled (in particular after
    ``machine.cleaner`` is installed — a cleaner added later is not
    tapped).  Returns ``bus`` for chaining.
    """
    if getattr(machine, _SESSION_ATTR, None) is not None:
        raise ConfigError("machine already has probes attached")

    session = _ProbeSession(bus)

    # -- semantics layer: per-op and per-memory-event ----------------------
    for core in machine.cores:
        if bus.wants("op"):
            session.install(core, "execute", _op_tap(core, bus))
        if bus.wants("mem_event"):
            session.install(
                core.timer, "on_event", _mem_event_tap(core, bus)
            )

    # -- accounting layer: the ledger's stall/hazard charges ---------------
    ledger = machine.stats.ledger
    by_stats = {
        id(core.stats): (core.core_id, core.timer)
        for core in machine.cores
    }
    if bus.wants("hazard"):
        session.install(ledger, "event", _hazard_tap(ledger, by_stats, bus))
    if bus.wants("stall"):
        session.install(ledger, "stall", _stall_tap(ledger, by_stats, bus))

    # -- persistence point: MC traffic -------------------------------------
    if bus.wants("writeback"):
        session.install(
            machine.mc,
            "accept_write_timed",
            _writeback_tap(machine.mc, bus),
        )
    if bus.wants("nvmm_read"):
        session.install(machine.mc, "read", _nvmm_read_tap(machine.mc, bus))

    # -- background machinery ----------------------------------------------
    if machine.cleaner is not None and bus.wants("cleaner"):
        session.install(
            machine.cleaner,
            "maybe_clean",
            _cleaner_tap(machine.cleaner, bus),
        )

    # Observers that need machine context (e.g. the write heatmap's
    # address-region map) get a look at it before any event flows.
    for observer in bus.observers:
        hook = getattr(observer, "on_attach", None)
        if hook is not None:
            hook(machine)

    setattr(machine, _SESSION_ATTR, session)
    return bus


def detach_probes(machine: Machine) -> None:
    """Remove every tap ``attach_probes`` installed (idempotent)."""
    session = getattr(machine, _SESSION_ATTR, None)
    if session is None:
        return
    session.remove_all()
    setattr(machine, _SESSION_ATTR, None)


@contextlib.contextmanager
def probed(
    machine: Machine,
    observers: Union[ProbeBus, Sequence[ProbeObserver]],
) -> Iterator[ProbeBus]:
    """Context manager: attach observers for the block, then detach.

    ``observers`` is either a prebuilt :class:`ProbeBus` or a sequence
    of observers to build one from.
    """
    bus = (
        observers
        if isinstance(observers, ProbeBus)
        else ProbeBus(observers)
    )
    attach_probes(machine, bus)
    try:
        yield bus
    finally:
        detach_probes(machine)


# ----------------------------------------------------------------------
# tap factories (each closes over the inner bound method it shadows)
# ----------------------------------------------------------------------


def _op_tap(core, bus: ProbeBus):
    inner = core.execute
    timer = core.timer
    core_id = core.core_id
    publish = bus.op

    def execute(op):
        start = timer.clock
        result = inner(op)
        publish(OpExecuted(core_id, op, result, start, timer.clock))
        return result

    return execute


def _mem_event_tap(core, bus: ProbeBus):
    timer = core.timer
    inner = timer.on_event
    core_id = core.core_id
    publish = bus.mem_event

    def on_event(event):
        cycle = timer.clock
        inner(event)
        publish(MemEvent(core_id, cycle, event))

    return on_event


def _hazard_tap(ledger, by_stats, bus: ProbeBus):
    inner = ledger.event
    publish = bus.hazard

    def event(stats, cause):
        inner(stats, cause)
        core_id, timer = by_stats.get(id(stats), (-1, None))
        cycle = timer.clock if timer is not None else 0.0
        publish(HazardHit(core_id, cause, EVENT_CAUSES[cause], cycle))

    return event


def _stall_tap(ledger, by_stats, bus: ProbeBus):
    inner = ledger.stall
    publish = bus.stall

    def stall(stats, cause, cycles, issue_width):
        # The detailed model calls this *before* advancing the clock,
        # so the timer still reads the stall's start time here.
        core_id, timer = by_stats.get(id(stats), (-1, None))
        start = timer.clock if timer is not None else 0.0
        inner(stats, cause, cycles, issue_width)
        if cycles > 0:
            publish(
                StallCharged(
                    core_id, cause, start, cycles, int(cycles * issue_width)
                )
            )

    return stall


def _writeback_tap(mc, bus: ProbeBus):
    inner = mc.accept_write_timed
    publish = bus.writeback

    def accept_write_timed(
        line_addr: int,
        now: float,
        cause: str,
        dirty_since: Optional[float] = None,
        core_id: Optional[int] = None,
    ):
        accept_time, durable_time = inner(
            line_addr, now, cause, dirty_since, core_id
        )
        volatility = (
            max(0.0, durable_time - dirty_since)
            if dirty_since is not None
            else None
        )
        publish(
            WritebackAccepted(
                line_addr=line_addr,
                cause=cause,
                core_id=core_id,
                issued=now,
                accept_time=accept_time,
                durable_time=durable_time,
                queue_delay=accept_time - now,
                queue_depth=mc.write_queue_occupancy,
                volatility=volatility,
            )
        )
        return accept_time, durable_time

    return accept_write_timed


def _nvmm_read_tap(mc, bus: ProbeBus):
    inner = mc.read
    publish = bus.nvmm_read

    def read(line_addr: int, now: float) -> float:
        data_ready = inner(line_addr, now)
        publish(NvmmRead(line_addr, now, data_ready))
        return data_ready

    return read


def _cleaner_tap(cleaner, bus: ProbeBus):
    inner = cleaner.maybe_clean
    publish = bus.cleaner

    def maybe_clean(hierarchy, now: float) -> int:
        passes_before = cleaner.cleanups
        written = inner(hierarchy, now)
        if cleaner.cleanups != passes_before:
            publish(CleanerPass(now, written))
        return written

    return maybe_clean
