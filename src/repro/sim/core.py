"""Core execution engine: the semantics layer of the op pipeline.

The paper's cores are 4-wide out-of-order; the *detailed* timing model
(:mod:`repro.sim.timing`) models an in-order engine with
throughput-style costs for common ops plus three bounded asynchronous
structures whose backpressure recreates the structural hazards of
Table VI:

* **store buffer** — stores retire immediately and drain in the
  background; a store that finds it full counts an FUW event (the
  paper's "store queue full") and stalls,
* **flush queue** — clflushopt/clwb completions park here until the MC
  accepts the data; a full queue counts an MSHR-full event (flushes
  occupy writeback buffers/MSHRs on real cores) and stalls,
* **MSHRs** — load misses and background store-miss drains occupy
  entries for the miss window.

FUI (integer FU / issue pressure) is counted when a compute op issues
while the async structures hold many in-flight ops, and FUR (load
issue pressure) when a load miss issues under the same condition —
both are documented proxies, see DESIGN.md section 4.

This module itself is timing-agnostic: each op handler performs the
*semantics* (value updates, coherence transitions, persist-order
hooks) and narrates what happened to a pluggable
:class:`~repro.sim.timing.CoreTiming` view as a stream of
:mod:`~repro.sim.events`; the view owns the clock, the bounded
structures, and every stall.  Dispatch is a type-keyed handler table
shared by all timing models (no isinstance chain).

This handler table is the reference semantics.  The machine scheduler
inlines the hot handlers for trigger-free replay runs
(:meth:`Machine._run_replay <repro.sim.machine.Machine._run_replay>`),
pinned op-for-op equivalent to the heap scheduler by ``tests/verify``;
a semantic change to any handler here must be mirrored in that loop.

The heap scheduler (:meth:`Machine.run <repro.sim.machine.Machine.run>`)
also inlines one handler under detailed timing: a load that hits in
L1 (:meth:`Core._exec_load` over ``Hierarchy.load`` and
``DetailedCoreTiming.on_load_commit``).  It is bound by the same
contract — a semantic change to a handler must be mirrored — and
``tests/sim/test_detailed_fastpath.py`` pins it to this path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Type

from repro.errors import SimulationError
from repro.sim.address import line_of
from repro.sim.coherence import MemorySystem
from repro.sim.config import CoreConfig
from repro.sim.events import (
    FENCE_ISSUE,
    FLUSH_RESERVE,
    LOAD_HIT,
    STORE_HIT,
    STORE_RESERVE,
    ComputeIssue,
    FlushCommit,
    LoadCommit,
    StoreCommit,
)
from repro.sim.isa import (
    Compute,
    Fence,
    Flush,
    FlushWB,
    Load,
    Op,
    Phase,
    RegionMark,
    Store,
)
from repro.sim.ledger import LatencyLedger
from repro.sim.stats import CoreStats
from repro.sim.timing import CoreTiming, DetailedCoreTiming
from repro.sim.valuestore import MemoryState


class Core:
    """One hardware thread context."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        hierarchy: MemorySystem,
        mem: MemoryState,
        stats: CoreStats,
        timer: Optional[CoreTiming] = None,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.mem = mem
        self.stats = stats
        #: The timing view (clock + structures + stalls).  Directly
        #: constructed cores (tests, examples) default to the detailed
        #: model with a private ledger.
        self.timer = (
            timer
            if timer is not None
            else DetailedCoreTiming(config, stats, LatencyLedger())
        )

    # -- timing-view delegation ----------------------------------------------

    @property
    def clock(self) -> float:
        return self.timer.clock

    @clock.setter
    def clock(self, value: float) -> None:
        self.timer.clock = value

    # ------------------------------------------------------------------

    def execute(self, op: Op) -> Optional[float]:
        """Run one op at the current clock; returns the load value if any.

        Probe tap point: ``repro.obs`` shadows this method on tapped
        machines to publish one ``OpExecuted`` per call (op, result,
        start/end cycle).  Keep it the single entry for op execution —
        emitting ops elsewhere would escape observability.
        """
        self.stats.ops += 1
        handler = _OP_HANDLERS.get(type(op))
        if handler is None:
            raise SimulationError(f"unknown op {op!r}")
        return handler(self, op)

    # -- op handlers (semantics; timing flows through self.timer) ----------

    def _exec_load(self, op: Load) -> float:
        self.stats.loads += 1
        access = self.hierarchy.load(self.core_id, op.addr, self.timer.clock)
        if access.l1_hit:
            self.stats.l1_hits += 1
            self.timer.on_event(LOAD_HIT)
        else:
            self.stats.l1_misses += 1
            self.timer.on_event(LoadCommit(False, access.extra_latency))
        return self.mem.load(op.addr)

    def _exec_store(self, op: Store) -> None:
        self.stats.stores += 1
        # Reserve first: a full store buffer stalls the issue, so the
        # state transitions below happen at the post-stall clock.
        self.timer.on_event(STORE_RESERVE)
        access = self.hierarchy.store(
            self.core_id, op.addr, op.value, self.timer.clock
        )
        if access.l1_hit:
            self.stats.l1_hits += 1
        else:
            self.stats.l1_misses += 1
        if access.l1_hit and access.extra_latency == 0.0:
            # The common case (hit in M/E, no upgrade traffic) always
            # has this exact outcome; reuse the frozen instance.
            self.timer.on_event(STORE_HIT)
        else:
            self.timer.on_event(
                StoreCommit(access.l1_hit, access.extra_latency)
            )
        return None

    def _exec_compute(self, op: Compute) -> None:
        self.stats.computes += 1
        self.timer.on_event(ComputeIssue(op.flops))
        return None

    def _exec_flush(self, op: Flush) -> None:
        self._flush(op.addr, invalidate=True)
        return None

    def _exec_flushwb(self, op: FlushWB) -> None:
        self._flush(op.addr, invalidate=False)
        return None

    def _flush(self, addr: int, invalidate: bool) -> None:
        self.stats.flushes += 1
        self.timer.on_event(FLUSH_RESERVE)
        wrote, accept_time = self.hierarchy.flush_line(
            line_of(addr), self.timer.clock, invalidate=invalidate,
            core_id=self.core_id,
        )
        self.timer.on_event(FlushCommit(wrote, accept_time))

    def _exec_fence(self, op: Fence) -> None:
        self.stats.fences += 1
        self.timer.on_event(FENCE_ISSUE)
        tracker = self.hierarchy.mc.tracker
        if tracker is not None:
            # The retired sfence orders every previously accepted flush
            # from this core into the persistence domain.
            tracker.on_fence(self.core_id, self.timer.clock)
        return None

    def _exec_mark(self, op: RegionMark) -> None:
        return None

    def _exec_phase(self, op: Phase) -> None:
        # Provenance frames are free: no events, no cycles.  Profiling
        # observers see them through the OpExecuted probe channel.
        return None


#: Type-keyed op dispatch, shared by every timing model (Barriers are
#: scheduler-level and handled by the machine, so they are absent here
#: and raise like any unknown op).
_OP_HANDLERS: Dict[Type[Op], Callable[[Core, Any], Optional[float]]] = {
    Load: Core._exec_load,
    Store: Core._exec_store,
    Compute: Core._exec_compute,
    Flush: Core._exec_flush,
    FlushWB: Core._exec_flushwb,
    Fence: Core._exec_fence,
    RegionMark: Core._exec_mark,
    Phase: Core._exec_phase,
}
