"""Record the full probe-event stream of one run.

:class:`TraceRecorder` is the capture half of the tracing pipeline: it
subscribes to every probe channel except ``mem_event`` (which fires
once per memory *sub*-event and is only interesting to bespoke
observers) and stores the events verbatim, in arrival order.  The
Chrome-trace/Perfetto exporter (:mod:`repro.obs.perfetto`) renders a
recorder; tests reconcile its counts against
:class:`~repro.sim.stats.MachineStats`.

Memory cost is one small dataclass per event, so recording a full
scaled-machine run is cheap (hundreds of thousands of events); for
multi-minute campaigns prefer the :class:`~repro.obs.intervals.
IntervalSampler`, which aggregates instead of storing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.obs.bus import ProbeObserver
from repro.obs.events import (
    CleanerPass,
    HazardHit,
    NvmmRead,
    OpExecuted,
    StallCharged,
    WritebackAccepted,
)
from repro.sim.isa import Op


class TraceRecorder(ProbeObserver):
    """Store every published probe event, per channel, in order."""

    def __init__(self) -> None:
        self.ops: List[OpExecuted] = []
        self.stalls: List[StallCharged] = []
        self.hazards: List[HazardHit] = []
        self.writebacks: List[WritebackAccepted] = []
        self.nvmm_reads: List[NvmmRead] = []
        self.cleaner_passes: List[CleanerPass] = []
        # Hot path: each channel handler *is* the bound list.append —
        # the bus fetches callbacks per instance (the class methods
        # below keep channel detection working), so recording costs no
        # recorder-level Python frame at all per event.
        self.on_op = self.ops.append  # type: ignore[method-assign]
        self.on_stall = self.stalls.append  # type: ignore[method-assign]
        self.on_hazard = self.hazards.append  # type: ignore[method-assign]
        self.on_writeback = (  # type: ignore[method-assign]
            self.writebacks.append
        )
        self.on_nvmm_read = (  # type: ignore[method-assign]
            self.nvmm_reads.append
        )
        self.on_cleaner = (  # type: ignore[method-assign]
            self.cleaner_passes.append
        )

    # -- probe channels (shadowed by the bound appends above; kept so
    # ProbeBus._subscribed sees the channels overridden) --------------------

    def on_op(self, ev: OpExecuted) -> None:  # pragma: no cover - shadowed
        self.ops.append(ev)

    def on_stall(self, ev: StallCharged) -> None:  # pragma: no cover
        self.stalls.append(ev)

    def on_hazard(self, ev: HazardHit) -> None:  # pragma: no cover
        self.hazards.append(ev)

    def on_writeback(self, ev: WritebackAccepted) -> None:  # pragma: no cover
        self.writebacks.append(ev)

    def on_nvmm_read(self, ev: NvmmRead) -> None:  # pragma: no cover
        self.nvmm_reads.append(ev)

    def on_cleaner(self, ev: CleanerPass) -> None:  # pragma: no cover
        self.cleaner_passes.append(ev)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        """Total events recorded across all channels."""
        return (
            len(self.ops)
            + len(self.stalls)
            + len(self.hazards)
            + len(self.writebacks)
            + len(self.nvmm_reads)
            + len(self.cleaner_passes)
        )

    def core_ids(self) -> List[int]:
        """Sorted core ids that produced at least one op or stall."""
        ids = {ev.core_id for ev in self.ops}
        ids.update(ev.core_id for ev in self.stalls if ev.core_id >= 0)
        ids.update(ev.core_id for ev in self.hazards if ev.core_id >= 0)
        return sorted(ids)

    def op_counts(
        self, core_id: Optional[int] = None
    ) -> Dict[Type[Op], int]:
        """Recorded op counts by ISA type (optionally one core's)."""
        counts: Dict[Type[Op], int] = {}
        for ev in self.ops:
            if core_id is not None and ev.core_id != core_id:
                continue
            counts[type(ev.op)] = counts.get(type(ev.op), 0) + 1
        return counts
