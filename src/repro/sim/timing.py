"""Pluggable timing models: the timing layer of the three-layer split.

A :class:`TimingModel` turns one machine configuration into per-component
timing *views*:

* :class:`CoreTiming` — owns a core's clock and its bounded structures
  (store buffer, flush queue, MSHRs) and consumes the core's
  :mod:`~repro.sim.events` stream; it is the only thing that advances
  the clock or charges stalls (through the
  :class:`~repro.sim.ledger.LatencyLedger`);
* :class:`MCTiming` — the memory controller's queue/pipe arithmetic
  (acceptance and completion times), separated from the MC's
  persistence semantics;
* :class:`HierarchyTiming` — the component latencies the cache
  hierarchy accumulates while it walks coherence state.

Two models ship:

* :class:`DetailedTiming` — the paper's Table II behaviour, verbatim
  (the arithmetic is relocated, not re-derived; golden-run tests pin it
  bit-identical to the pre-refactor simulator);
* :class:`FastFunctional` — zero component latency, every op costs one
  cycle, so the min-clock scheduler degrades to a deterministic
  round-robin interleaving.  Persist-order semantics stay exact — a
  flush's MC accept time always precedes the retire time of any later
  fence on the same core — which is what lets crash-state enumeration
  campaigns (``repro crashcheck``, :mod:`repro.verify`) run on it at a
  fraction of the detailed cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Type

from repro.errors import ConfigError, SimulationError
from repro.sim.config import CoreConfig, MachineConfig, NVMMConfig
from repro.sim.events import (
    FUNCTIONAL_TICKS,
    ComputeIssue,
    FenceIssue,
    FlushCommit,
    FlushReserve,
    LoadCommit,
    MemoryEvent,
    StoreCommit,
    StoreReserve,
)
from repro.sim.ledger import LatencyLedger
from repro.sim.queues import BoundedQueue
from repro.sim.stats import CoreStats

# ----------------------------------------------------------------------
# per-component view interfaces
# ----------------------------------------------------------------------


class CoreTiming(ABC):
    """One core's clock, bounded structures, and stall policy."""

    #: Event type -> handler function of this class, built once per
    #: subclass (the core-side op table lives in repro.sim.core).  The
    #: functions are unbound: a per-instance table of bound methods
    #: would make every timing view a reference cycle, keeping
    #: discarded machines alive until the cyclic collector runs.
    _handlers: ClassVar[Dict[type, Callable[[Any, Any], None]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {
            LoadCommit: cls.on_load_commit,
            StoreReserve: cls.on_store_reserve,
            StoreCommit: cls.on_store_commit,
            ComputeIssue: cls.on_compute,
            FlushReserve: cls.on_flush_reserve,
            FlushCommit: cls.on_flush_commit,
            FenceIssue: cls.on_fence,
        }

    def __init__(
        self, config: CoreConfig, stats: CoreStats, ledger: LatencyLedger
    ) -> None:
        self.config = config
        self.stats = stats
        self.ledger = ledger
        self.clock = 0.0
        self.store_buffer = BoundedQueue(
            config.store_buffer_entries, "store_buffer"
        )
        self.flush_queue = BoundedQueue(
            config.flush_queue_entries, "flush_queue"
        )
        self.mshrs = BoundedQueue(config.mshr_entries, "mshr")
        self._last_drain_complete = 0.0

    def on_event(self, event: MemoryEvent) -> None:
        """Consume one memory event (type-dispatched).

        Probe tap point: ``repro.obs`` shadows this per instance to
        publish a ``MemEvent`` per call — route every memory event
        through here (as the op handlers already do).
        """
        try:
            handler = self._handlers[type(event)]
        except KeyError:
            raise SimulationError(f"unknown memory event {event!r}") from None
        handler(self, event)

    def outstanding_drain_time(self) -> float:
        """When all of this core's in-flight persistence work completes."""
        return max(
            self.store_buffer.drain_time(self.clock),
            self.flush_queue.drain_time(self.clock),
        )


    # -- event handlers ----------------------------------------------------

    @abstractmethod
    def on_load_commit(self, ev: LoadCommit) -> None: ...

    @abstractmethod
    def on_store_reserve(self, ev: StoreReserve) -> None: ...

    @abstractmethod
    def on_store_commit(self, ev: StoreCommit) -> None: ...

    @abstractmethod
    def on_compute(self, ev: ComputeIssue) -> None: ...

    @abstractmethod
    def on_flush_reserve(self, ev: FlushReserve) -> None: ...

    @abstractmethod
    def on_flush_commit(self, ev: FlushCommit) -> None: ...

    @abstractmethod
    def on_fence(self, ev: FenceIssue) -> None: ...


class MCTiming(ABC):
    """Memory-controller queue/pipe arithmetic."""

    @abstractmethod
    def read(self, now: float) -> float:
        """Issue a line read at ``now``; returns the data-return time."""

    @abstractmethod
    def write(self, now: float) -> Tuple[float, float]:
        """Accept a line write; returns ``(accept_time, completion)``."""


@dataclass(frozen=True)
class HierarchyTiming:
    """Component latencies the cache hierarchy accumulates."""

    l2_hit_cycles: float
    coherence_cycles: float
    flush_transit_cycles: float


# ----------------------------------------------------------------------
# detailed model (Table II, bit-identical to the pre-refactor code)
# ----------------------------------------------------------------------


class DetailedCoreTiming(CoreTiming):
    """The paper-machine core pipeline: issue costs, background drains,
    and structural-hazard backpressure (Table VI).  The arithmetic here
    is the pre-refactor ``Core._load/_store/_compute/_flush/_fence``
    moved verbatim; ``tests/sim/test_timing_golden.py`` pins it."""

    def on_load_commit(self, ev: LoadCommit) -> None:
        if ev.l1_hit:
            self.clock += self.config.l1_hit_issue_cycles
            return
        if self.mshrs.occupancy(self.clock) > 0:
            # the miss had to arbitrate with in-flight transactions
            self.ledger.event(self.stats, "load_arbitration")
        if self._async_pressure() >= self.config.fu_pressure_threshold:
            self.ledger.event(self.stats, "load_pressure")
        if self.mshrs.full(self.clock):
            self.ledger.event(self.stats, "mshr_full")
            self._stall_to(self.mshrs.earliest_free(self.clock), "mshr_full")
        # Blocking miss: the core waits for the data; the MSHR entry
        # documents the occupancy window for cross-pressure with flushes.
        self.clock += self.config.l1_hit_issue_cycles + ev.extra_latency
        self.mshrs.push(self.clock)

    def on_store_reserve(self, ev: StoreReserve) -> None:
        if self.store_buffer.full(self.clock):
            self.ledger.event(self.stats, "store_buffer_full")
            self._stall_to(
                self.store_buffer.earliest_free(self.clock),
                "store_buffer_full",
            )

    def on_store_commit(self, ev: StoreCommit) -> None:
        # The state transitions already happened; the timing cost is
        # charged to the background drain of the store buffer.
        drain_cost = self.config.store_drain_cycles + ev.extra_latency
        start = max(self.clock, self._last_drain_complete)
        completion = start + drain_cost
        self._last_drain_complete = completion
        self.store_buffer.push(completion)
        if not ev.l1_hit:
            # A store miss occupies an MSHR for its RFO window.
            if self.mshrs.full(self.clock):
                self.ledger.event(self.stats, "mshr_full")
                self._stall_to(
                    self.mshrs.earliest_free(self.clock), "mshr_full"
                )
            self.mshrs.push(completion)
        self.clock += self.config.l1_hit_issue_cycles

    def on_compute(self, ev: ComputeIssue) -> None:
        if self._async_pressure() >= self.config.fu_pressure_threshold:
            self.ledger.event(self.stats, "compute_pressure")
        self.clock += ev.flops * self.config.compute_cpi

    def on_flush_reserve(self, ev: FlushReserve) -> None:
        if self.flush_queue.full(self.clock):
            self.ledger.event(self.stats, "flush_queue_full")
            self._stall_to(
                self.flush_queue.earliest_free(self.clock),
                "flush_queue_full",
            )
        self.clock += self.config.flush_issue_cycles

    def on_flush_commit(self, ev: FlushCommit) -> None:
        completion = max(ev.accept_time, self.clock)
        self.flush_queue.push(completion)
        # clflushopt occupies a store-queue slot on x86 until the data
        # leaves for the persistence domain — this is what backs stores
        # up behind flushes (FUW pressure under Eager Persistency).
        if self.store_buffer.full(self.clock):
            self.ledger.event(self.stats, "store_buffer_full")
            self._stall_to(
                self.store_buffer.earliest_free(self.clock),
                "store_buffer_full",
            )
        self.store_buffer.push(completion)
        if ev.wrote:
            # Flush data occupies an MSHR/WB buffer until MC acceptance.
            if self.mshrs.full(self.clock):
                self.ledger.event(self.stats, "mshr_full")
                self._stall_to(
                    self.mshrs.earliest_free(self.clock), "mshr_full"
                )
            self.mshrs.push(completion)

    def on_fence(self, ev: FenceIssue) -> None:
        target = self.outstanding_drain_time()
        if target > self.clock:
            self._stall_to(target, "fence_drain")

    # -- internals ---------------------------------------------------------

    def _stall_to(self, target: float, cause: str) -> None:
        """Advance the clock through a structural stall.  The ledger
        attributes the cycles to ``cause`` and charges the lost
        integer-issue slots to the FUI counter (a stalled front end
        issues nothing, which is how eager flushing inflates the
        paper's Table VI FU counters)."""
        if target <= self.clock:
            return
        self.ledger.stall(
            self.stats, cause, target - self.clock, self.config.issue_width
        )
        self.clock = target

    def _async_pressure(self) -> int:
        return self.store_buffer.occupancy(
            self.clock
        ) + self.flush_queue.occupancy(self.clock)


class DetailedMCTiming(MCTiming):
    """MC write/read queue + device pipe timing (pre-refactor
    ``MemoryController`` arithmetic, moved verbatim)."""

    def __init__(
        self, config: NVMMConfig, ledger: Optional[LatencyLedger] = None
    ) -> None:
        self.config = config
        self.ledger = ledger
        #: Time the device write pipe frees up.
        self._write_pipe_free = 0.0
        #: Time the device read path frees up.
        self._read_pipe_free = 0.0
        #: Completion times of writes currently occupying queue slots.
        self._write_queue: List[float] = []
        #: Completion times of reads currently occupying queue slots.
        self._read_queue: List[float] = []

    def read(self, now: float) -> float:
        self._read_queue = [t for t in self._read_queue if t > now]
        start = now
        if len(self._read_queue) >= self.config.read_queue_depth:
            start = min(self._read_queue)
        start = max(start, self._read_pipe_free)
        self._read_pipe_free = start + self.config.read_service_cycles
        completion = start + self.config.read_cycles
        self._read_queue.append(completion)
        return completion

    def write(self, now: float) -> Tuple[float, float]:
        accept_time = max(now, self._queue_slot_free_time(now))
        if self.ledger is not None:
            self.ledger.queue_delay("mc_write_queue", accept_time - now)
        # The write occupies the device pipe for its service time; its
        # queue slot frees when the device finishes the full write.
        start = max(accept_time, self._write_pipe_free)
        self._write_pipe_free = start + self.config.write_service_cycles
        completion = start + self.config.write_cycles
        self._write_queue.append(completion)
        return accept_time, completion

    def _queue_slot_free_time(self, now: float) -> float:
        """Earliest time a write-queue slot is free."""
        self._write_queue = [t for t in self._write_queue if t > now]
        if len(self._write_queue) < self.config.write_queue_depth:
            return now
        return min(self._write_queue)

    @property
    def write_queue_occupancy(self) -> int:
        return len(self._write_queue)


# ----------------------------------------------------------------------
# functional model (zero latency, round-robin, exact persist semantics)
# ----------------------------------------------------------------------

#: Terminal events — the ones that cost the functional model's single
#: cycle per op (reserve-phase events are free).  Defined in
#: :mod:`repro.sim.events` next to the protocol.
_TICK_EVENTS = FUNCTIONAL_TICKS


class FunctionalCoreTiming(CoreTiming):
    """One cycle per op, no structure ever fills, no stall ever charged.

    The inherited bounded structures stay empty, so
    :meth:`outstanding_drain_time` is always the current clock and a
    fence never stalls.  Each op's terminal event advances the clock by
    exactly one cycle; with the machine's min-``(clock, core_id)``
    scheduler this yields a deterministic round-robin interleaving.

    Persist-order exactness: a flush's line is accepted by the MC at
    the pre-advance clock ``t`` and the clock then moves to ``t + 1``,
    so any later fence on the same core retires at a strictly greater
    time and :meth:`~repro.sim.persist.PersistOrderTracker.on_fence`
    orders exactly the flushes it should.
    """

    def on_event(self, event: MemoryEvent) -> None:
        # Flat dispatch override: this is the hot path of crash-state
        # campaigns, so skip the handler call.  Every terminal event
        # costs one cycle; reserve events are free.
        if type(event) in _TICK_EVENTS:
            self.clock += 1.0
        elif type(event) not in self._handlers:
            raise SimulationError(f"unknown memory event {event!r}")

    def on_load_commit(self, ev: LoadCommit) -> None:
        self.clock += 1.0

    def on_store_reserve(self, ev: StoreReserve) -> None:
        pass

    def on_store_commit(self, ev: StoreCommit) -> None:
        self.clock += 1.0

    def on_compute(self, ev: ComputeIssue) -> None:
        self.clock += 1.0

    def on_flush_reserve(self, ev: FlushReserve) -> None:
        pass

    def on_flush_commit(self, ev: FlushCommit) -> None:
        self.clock += 1.0

    def on_fence(self, ev: FenceIssue) -> None:
        self.clock += 1.0


class FunctionalMCTiming(MCTiming):
    """Writes are accepted and complete instantly; reads return at once."""

    def read(self, now: float) -> float:
        return now

    def write(self, now: float) -> Tuple[float, float]:
        return now, now

    @property
    def write_queue_occupancy(self) -> int:
        return 0


# ----------------------------------------------------------------------
# the models themselves
# ----------------------------------------------------------------------


class TimingModel(ABC):
    """Factory of per-component timing views for one machine."""

    name: ClassVar[str]

    def __init__(self, config: MachineConfig, ledger: LatencyLedger) -> None:
        self.config = config
        self.ledger = ledger

    @abstractmethod
    def core_view(self, core_id: int, stats: CoreStats) -> CoreTiming: ...

    @abstractmethod
    def mc_view(self) -> MCTiming: ...

    @abstractmethod
    def hierarchy_view(self) -> HierarchyTiming: ...


class DetailedTiming(TimingModel):
    """The current Table II behaviour (golden-pinned bit-identical)."""

    name = "detailed"

    def core_view(self, core_id: int, stats: CoreStats) -> CoreTiming:
        return DetailedCoreTiming(self.config.core, stats, self.ledger)

    def mc_view(self) -> MCTiming:
        return DetailedMCTiming(self.config.nvmm, self.ledger)

    def hierarchy_view(self) -> HierarchyTiming:
        return HierarchyTiming(
            l2_hit_cycles=self.config.l2.hit_cycles,
            coherence_cycles=self.config.coherence_cycles,
            flush_transit_cycles=self.config.flush_transit_cycles,
        )


class FastFunctional(TimingModel):
    """Zero-latency semantics-first model for crash-state campaigns."""

    name = "functional"

    def core_view(self, core_id: int, stats: CoreStats) -> CoreTiming:
        return FunctionalCoreTiming(self.config.core, stats, self.ledger)

    def mc_view(self) -> MCTiming:
        return FunctionalMCTiming()

    def hierarchy_view(self) -> HierarchyTiming:
        return HierarchyTiming(
            l2_hit_cycles=0.0,
            coherence_cycles=0.0,
            flush_transit_cycles=0.0,
        )


TIMING_MODELS: Dict[str, Type[TimingModel]] = {
    DetailedTiming.name: DetailedTiming,
    FastFunctional.name: FastFunctional,
}


def make_timing_model(
    name: str, config: MachineConfig, ledger: LatencyLedger
) -> TimingModel:
    """Instantiate a registered timing model by name."""
    try:
        cls = TIMING_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown timing model {name!r}; "
            f"available: {sorted(TIMING_MODELS)}"
        ) from None
    return cls(config, ledger)
