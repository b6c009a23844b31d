"""NVMM device and memory controller.

The memory controller owns a bounded write queue.  With **ADR** (the
paper's platform, section II-A), that queue sits inside the
persistence domain: the instant a line is accepted its data is
durable, so that is where the simulator copies architectural values
into the persistent image and counts an NVMM write.

Under ``model="pre_adr"`` the MC models the pre-ADR (pcommit-era)
platform the paper contrasts against: a write is durable only when the
NVMM device *completes* it.  Acceptance still copies data into the
persistent image (the common case is no crash), but every write leaves
an undo record until its completion time; a crash rolls back the
records still in flight, and fences observe the completion time rather
than the acceptance time.

The MC is the semantics layer's persistence point; the queue/pipe
*arithmetic* (when a write is accepted, when the device finishes) is a
pluggable :class:`~repro.sim.timing.MCTiming` view — the detailed view
reproduces the Table II behaviour, the functional view accepts and
completes instantly.

Replay machines bypass the MC entirely: their hierarchy
(:class:`~repro.sim.coherence.ReplayHierarchy`) persists lines
directly, so replay runs never count ``nvmm_writes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.address import element_addrs_of_line
from repro.sim.config import NVMMConfig
from repro.sim.model import PersistencyModel, get_model
from repro.sim.persist import PersistOrderTracker
from repro.sim.stats import MachineStats
from repro.sim.timing import DetailedMCTiming, MCTiming
from repro.sim.valuestore import MemoryState


@dataclass
class _UndoRecord:
    """A non-ADR write that is not yet durable."""

    completion: float
    line_addr: int
    prior_values: Dict[int, Optional[float]]


class MemoryController:
    """MC + NVMM device persistence point (timing via an MCTiming view)."""

    def __init__(
        self,
        config: NVMMConfig,
        mem: MemoryState,
        stats: MachineStats,
        tracker: Optional[PersistOrderTracker] = None,
        timing: Optional[MCTiming] = None,
        model: Optional[PersistencyModel] = None,
    ) -> None:
        self.config = config
        self.mem = mem
        self.stats = stats
        #: Optional persist-order recorder (crash-state enumeration).
        self.tracker = tracker
        #: Queue/pipe arithmetic; directly constructed MCs (tests)
        #: default to the detailed Table II timing.
        self.timing = (
            timing if timing is not None else DetailedMCTiming(config)
        )
        #: Persistency model; directly constructed MCs (tests) default
        #: to the paper's ADR platform.
        self.model = model if model is not None else get_model("adr")
        #: pre-ADR only: rollback records for in-flight writes.
        self._undo: List[_UndoRecord] = []

    # -- reads --------------------------------------------------------------

    def read(self, line_addr: int, now: float) -> float:
        """Issue a line read at ``now``; returns the data-return time.

        Probe tap point (``NvmmRead``): must stay the single path for
        NVMM line reads so traced read counts match ``nvmm_reads``.
        """
        completion = self.timing.read(now)
        self.stats.nvmm_reads += 1
        return completion

    # -- writes ---------------------------------------------------------------

    def accept_write(
        self,
        line_addr: int,
        now: float,
        cause: str,
        dirty_since: Optional[float] = None,
        core_id: Optional[int] = None,
    ) -> float:
        """Accept a dirty line into the MC write queue.

        Returns the *durable* time: acceptance under ADR, device
        completion otherwise.  Backpressure (a full queue) delays
        acceptance either way.  Use :meth:`accept_write_timed` when the
        caller needs acceptance and durability separately.
        """
        accept, durable = self.accept_write_timed(
            line_addr, now, cause, dirty_since, core_id
        )
        return durable

    def accept_write_timed(
        self,
        line_addr: int,
        now: float,
        cause: str,
        dirty_since: Optional[float] = None,
        core_id: Optional[int] = None,
    ) -> Tuple[float, float]:
        """Accept a write; returns ``(accept_time, durable_time)``.

        Probe tap point (``WritebackAccepted``): every write entering
        the persistence domain — eviction, flush, cleaner, drain —
        must come through this method, one call per counted write, so
        traced writeback counts reconcile exactly with ``nvmm_writes``.
        """
        accept_time, completion = self.timing.write(now)

        if self.model.mc_undo:
            # pre-ADR: the data is not safe until the device finishes;
            # remember how to undo it if a crash lands in between.
            prior = {
                addr: self.mem.persistent.get(addr)
                for addr in element_addrs_of_line(line_addr)
            }
            self._undo.append(_UndoRecord(completion, line_addr, prior))

        if self.tracker is not None:
            # Must run before persist_line: flush events snapshot the
            # persistent values they are about to overwrite.
            self.tracker.on_accept(line_addr, cause, core_id, accept_time)
        self.mem.persist_line(line_addr)
        self.stats.count_write(cause, line_addr=line_addr)
        durable_time = completion if self.model.mc_undo else accept_time
        if dirty_since is not None:
            self.stats.record_volatility(durable_time - dirty_since)
        return accept_time, durable_time

    # -- crash handling -------------------------------------------------------

    def discard_in_flight(self, crash_time: float) -> int:
        """Roll back writes not yet durable at ``crash_time``.

        A no-op on every model except pre-ADR.  Returns the number of
        lines rolled back.  Records are undone newest-first so
        overlapping writes to the same line restore the oldest
        surviving values.
        """
        if not self.model.mc_undo:
            return 0
        lost = [r for r in self._undo if r.completion > crash_time]
        for record in sorted(lost, key=lambda r: r.completion, reverse=True):
            for addr, value in record.prior_values.items():
                if value is None:
                    self.mem.persistent.pop(addr, None)
                else:
                    self.mem.persistent[addr] = value
        self._undo = [r for r in self._undo if r.completion <= crash_time]
        return len(lost)

    # -- introspection ----------------------------------------------------

    @property
    def write_queue_occupancy(self) -> int:
        occupancy = getattr(self.timing, "write_queue_occupancy", 0)
        return int(occupancy)
