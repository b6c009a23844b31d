"""The machine: cores + hierarchy + MC, and the interleaving scheduler.

Workload threads are generators yielding :mod:`repro.sim.isa` ops.  The
scheduler always advances the runnable core with the smallest local
clock, so multicore interleavings are timing-driven and deterministic.
Execution time of a run is the slowest core's final clock.

Crash injection stops the run after a chosen number of ops or right
after a chosen flush; everything the MC accepted up to that point is
durable (ADR) and everything else is lost.  :meth:`Machine.after_crash`
builds the post-failure machine: cold caches, fresh clocks, and an
architectural state equal to the NVMM image — exactly what recovery
code observes on real hardware after power loss.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import AddressError, ConfigError, SimulationError
from repro.sim.address import Allocator, Region
from repro.sim.cache import Line
from repro.sim.coherence import Hierarchy, MemorySystem, ReplayHierarchy
from repro.sim.config import LINE_BYTES, MachineConfig
from repro.sim.core import _OP_HANDLERS, Core
from repro.sim.isa import (
    Barrier,
    Compute,
    Flush,
    FlushWB,
    Load,
    Op,
    Phase,
    RegionMark,
    Store,
)
from repro.sim.model import enumerable_model_names, get_model
from repro.sim.nvmm import MemoryController
from repro.sim.persist import CrashStateSpace, PersistOrderTracker
from repro.sim.stats import CoreStats, MachineStats
from repro.sim.timing import CoreTiming, DetailedCoreTiming, make_timing_model
from repro.sim.valuestore import MemoryState

ThreadGen = Generator[Op, Optional[float], None]

#: ``addr & _LINE_MASK`` is :func:`repro.sim.address.line_of`, inlined.
_LINE_MASK = ~(LINE_BYTES - 1)

#: One live core's scheduling slot in the replay fast loop:
#: ``(core_id, generator.send, core, core.timer, core.stats)``.
_ReplaySlot = Tuple[
    int, Callable[[Optional[float]], Op], Core, CoreTiming, CoreStats
]


@dataclass
class RunResult:
    """Outcome of one :meth:`Machine.run` call."""

    stats: MachineStats
    crashed: bool
    ops_executed: int
    finished_threads: int
    total_threads: int
    #: Flush/FlushWB ops executed (bounds the at_flush crash trigger).
    flush_ops: int = 0

    @property
    def exec_cycles(self) -> float:
        return self.stats.exec_cycles

    @property
    def nvmm_writes(self) -> int:
        return self.stats.nvmm_writes

    def summary(self) -> Dict[str, float]:
        """Flat metric dict (stats summary + crash flag)."""
        out = self.stats.summary()
        out["crashed"] = float(self.crashed)
        return out


class Machine:
    """A configured multicore NVMM machine.

    Observability (:mod:`repro.obs`) taps a machine by shadowing a
    fixed set of component methods with per-instance wrappers (parked
    under ``_probe_session``); an untapped machine runs the unmodified
    class methods — no hot-path branches.  A *probed* replay machine
    takes the general scheduling loop instead of the inlined
    ``_run_replay`` fast path (the two interleave identically), and a
    detailed machine with op or memory-event taps skips the
    scheduler's inlined L1-hit load, so the taps still see every op.

    Execution has two paths: the heap scheduler in :meth:`run`, and
    for trigger-free replay runs the round-robin :meth:`_run_replay`
    loop, which ``tests/verify/test_timing_equivalence.py`` pins to
    the heap scheduler.

    Persist order is recorded only on request: a run whose crash-state
    space will be read calls :meth:`track_persists` first, and every
    other run leaves ``mc.tracker`` unset, so its flushes and fences
    skip the tracker.
    """

    def __init__(
        self,
        config: MachineConfig,
        *,
        _mem: Optional[MemoryState] = None,
        _allocator: Optional[Allocator] = None,
        _replay: bool = False,
    ) -> None:
        self.config = config
        self.mem = _mem if _mem is not None else MemoryState()
        self.allocator = (
            _allocator
            if _allocator is not None
            else Allocator(config.memory_bytes)
        )
        #: Post-crash machines (built by :meth:`after_crash` and
        #: :meth:`after_crash_with_image`) share the crashed machine's
        #: allocator, so every region the crashed run allocated is
        #: already in their image: allocating re-attaches (see
        #: :meth:`alloc`).
        self.post_crash = _allocator is not None
        #: Replay machines (see :meth:`after_crash_with_image`) execute
        #: architectural semantics only: no caches, no persist-order
        #: tracking, functional timing.  They exist to answer "does
        #: this code compute the right values" as fast as possible.
        self.replay = _replay
        self.stats = MachineStats().for_cores(config.num_cores)
        #: The timing layer: one pluggable model (``config.timing``)
        #: hands each component its timing view; every stall it charges
        #: is attributed through the stats ledger (accounting layer).
        self.timing = make_timing_model(
            "functional" if _replay else config.timing,
            config,
            self.stats.ledger,
        )
        #: Persistency model in effect (see :mod:`repro.sim.model`).
        self.pmodel = get_model(config.model)
        #: eADR-class models persist at store time; the flag lives on
        #: the value store so both execution paths (heap scheduler and
        #: replay loop) inherit it through the one store entry point.
        self.mem.persist_on_store = self.pmodel.persist_on_store
        self.mc = MemoryController(
            config.nvmm,
            self.mem,
            self.stats,
            timing=self.timing.mc_view(),
            model=self.pmodel,
        )
        self.hierarchy: MemorySystem = (
            ReplayHierarchy(self.mem, self.mc)
            if _replay
            else Hierarchy(
                config,
                self.mem,
                self.stats,
                self.mc,
                timing=self.timing.hierarchy_view(),
            )
        )
        self.cores = [
            Core(
                i,
                config.core,
                self.hierarchy,
                self.mem,
                self.stats.per_core[i],
                timer=self.timing.core_view(i, self.stats.per_core[i]),
            )
            for i in range(config.num_cores)
        ]
        #: Optional periodic cleaner; see :mod:`repro.sim.cleaner`.
        self.cleaner = None
        #: Seeded tie-breaker for jittered scheduling (deterministic).
        self._sched_rng = random.Random(config.schedule_seed)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    def alloc(self, name: str, num_elements: int) -> Region:
        """Allocate a persistent region; contents start durably at 0.0.

        On a :attr:`post_crash` machine this, :meth:`alloc_init` and
        :meth:`scalar` re-attach instead: they return the crashed run's
        region of that name and write nothing, so recovery finds its
        data where the crashed run left it (paper section III-E).  An
        unknown name or a size mismatch raises :class:`AddressError`.
        """
        return self.alloc_init(name, [0.0] * num_elements)

    def alloc_init(self, name: str, values: Sequence[float]) -> Region:
        """Allocate and durably initialise a region from ``values``."""
        if self.post_crash:
            region = self.allocator.region(name)
            if region.num_elements != len(values):
                raise AddressError(
                    f"region {name!r} holds {region.num_elements} "
                    f"elements, expected {len(values)}"
                )
            return region
        region = self.allocator.alloc(name, len(values))
        for addr, value in zip(region.element_addrs(), values):
            self.mem.init(addr, value)
        return region

    def scalar(self, name: str, value: float = 0.0) -> Region:
        """Allocate a one-element region (markers, counters)."""
        return self.alloc_init(name, [value])

    def region(self, name: str) -> Region:
        """Look up an allocated region by name."""
        return self.allocator.region(name)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        threads: Iterable[ThreadGen],
        *,
        crash_at_op: Optional[int] = None,
        crash_at_flush: Optional[int] = None,
    ) -> RunResult:
        """Drive thread generators to completion (or to the crash).

        Threads are assigned to cores in order; the paper's runs use
        one master + N worker threads on N+1 cores, which callers model
        by passing N+1 generators.
        """
        gens: List[ThreadGen] = list(threads)
        if len(gens) > self.config.num_cores:
            raise ConfigError(
                f"{len(gens)} threads exceed {self.config.num_cores} cores"
            )
        if not gens:
            raise ConfigError("no threads to run")

        if (
            self.replay
            and crash_at_op is None
            and crash_at_flush is None
            and self.cleaner is None
            and not self.config.schedule_jitter
            and getattr(self, "_probe_session", None) is None
        ):
            # Replay machines with no triggers take the tight loop;
            # its interleaving exactly matches this general loop (see
            # _run_replay), so the choice is pure mechanics.  Probed
            # replay machines stay on the general loop so the taps see
            # every op.
            return self._run_replay(gens)

        cores = self.cores
        timers = [core.timer for core in cores]
        sends = [gen.send for gen in gens]
        mc = self.mc
        cleaner = self.cleaner
        jitter = self.config.schedule_jitter
        uniform = self._sched_rng.uniform
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        heap: List[Tuple[float, int]] = []

        def push(cid: int) -> None:
            priority = timers[cid].clock
            if jitter:
                priority += uniform(0.0, jitter)
            heapq.heappush(heap, (priority, cid))

        for cid in range(len(gens)):
            push(cid)

        # The inlined L1-hit load below is Core._exec_load over
        # Hierarchy.load and DetailedCoreTiming.on_load_commit for a
        # hit, step for step.  It is taken only where that round trip
        # is the whole effect of the op: no instance-level Core.execute
        # or CoreTiming.on_event (the op and memory-event probe taps
        # shadow these and must see every op; no other tap fires on an
        # L1 hit), no cleaner, the full coherent hierarchy and detailed
        # core timing.  tests/sim/test_detailed_fastpath.py pins it to
        # Core.execute.
        hierarchy = self.hierarchy
        inline_hits = False
        if (
            cleaner is None
            and type(hierarchy) is Hierarchy
            and all(
                type(core.timer) is DetailedCoreTiming
                and "execute" not in vars(core)
                and "on_event" not in vars(core.timer)
                for core in cores
            )
        ):
            inline_hits = True
            l1_access = [l1.access for l1 in hierarchy.l1s]
            l1_hit_cycles = self.config.core.l1_hit_issue_cycles
            core_stats = [core.stats for core in cores]
            arch = self.mem.arch
            mem_load = self.mem.load

        pending_result: List[Optional[float]] = [None] * len(gens)
        ops_executed = 0
        flush_ops = 0
        crashed = False
        finished = 0
        barrier_wait: List[int] = []

        def barrier_ready() -> bool:
            return bool(barrier_wait) and (
                len(barrier_wait) == len(gens) - finished
            )

        def release_barrier() -> None:
            release_time = max(timers[c].clock for c in barrier_wait)
            for c in barrier_wait:
                timers[c].clock = release_time
                push(c)
            barrier_wait.clear()

        # Core ids are unique, so priorities never tie and the heap
        # yields the same sequence however it is arranged: re-queueing
        # the core that just ran and taking the next one in a single
        # heappushpop is exact.
        entry: Optional[Tuple[float, int]] = heappop(heap)
        while entry is not None:
            cid = entry[1]
            try:
                op = sends[cid](pending_result[cid])
            except StopIteration:
                finished += 1
                if barrier_ready():
                    release_barrier()
                entry = heappop(heap) if heap else None
                continue

            timer = timers[cid]
            if crash_at_op is not None and ops_executed >= crash_at_op:
                crashed = True
                mc.discard_in_flight(timer.clock)
                break

            line: Optional[Line] = None
            if inline_hits and type(op) is Load:
                addr = op.addr
                line = l1_access[cid](addr & _LINE_MASK)
            if line is not None:
                stats = core_stats[cid]
                stats.ops += 1
                stats.loads += 1
                stats.l1_hits += 1
                timer.clock += l1_hit_cycles
                try:
                    pending_result[cid] = arch[addr]
                except KeyError:
                    pending_result[cid] = mem_load(addr)  # raises AddressError
                ops_executed += 1
            elif isinstance(op, Barrier):
                # the core parks until every live thread arrives
                pending_result[cid] = None
                ops_executed += 1
                cores[cid].stats.ops += 1
                barrier_wait.append(cid)
                if barrier_ready():
                    release_barrier()
                entry = heappop(heap) if heap else None
                continue
            else:
                pending_result[cid] = cores[cid].execute(op)
                ops_executed += 1
                op_type = type(op)

                if op_type is Flush or op_type is FlushWB:
                    # Persist-boundary crash trigger: stop right after
                    # the Nth flush issued, i.e. with its line accepted
                    # by the MC but any ordering fence still ahead — the
                    # instants where the reachable-image set is at its
                    # widest.
                    flush_ops += 1
                    if (
                        crash_at_flush is not None
                        and flush_ops >= crash_at_flush
                    ):
                        crashed = True
                        mc.discard_in_flight(timer.clock)
                        break

                if cleaner is not None:
                    cleaner.maybe_clean(self.hierarchy, timer.clock)

            priority = timer.clock
            if jitter:
                priority += uniform(0.0, jitter)
            entry = heappushpop(heap, (priority, cid))

        for cid in range(len(gens)):
            self.stats.per_core[cid].cycles = self.cores[cid].clock

        return RunResult(
            stats=self.stats,
            crashed=crashed,
            ops_executed=ops_executed,
            finished_threads=finished,
            total_threads=len(gens),
            flush_ops=flush_ops,
        )

    def _run_replay(self, gens: List[ThreadGen]) -> RunResult:
        """Round-robin fast loop for trigger-free replay runs.

        This is the hot path of crash-state checking (one call per
        enumerated image), so it strips the general loop down to the
        scheduling the functional cost model actually produces.  It
        exactly emulates the min-``(clock, core_id)`` heap for that
        model: every op advances its core's clock by one cycle (region
        marks are free), so cores take turns in core-id order, a core
        keeps its turn while its clock does not advance, and a barrier
        parks every live core and releases them in core-id order at
        the common release time.  ``tests/verify`` pins the
        equivalence against the general loop.
        """
        cores = self.cores
        handlers = _OP_HANDLERS
        arch = self.mem.arch
        mem_load = self.mem.load
        mem_store = self.mem.store
        pending: List[Optional[float]] = [None] * len(gens)
        ops_executed = 0
        flush_ops = 0
        finished = 0
        barrier_wait: List[_ReplaySlot] = []
        # One slot per live core; iterating the list in order and
        # taking one costed op per slot per pass reproduces the
        # cid-cyclic order the heap produces for the +1-cost model.
        # The functional model charges exactly one cycle to every op
        # except region marks (which are free), so "did the clock
        # move" reduces to an op-type check — the replay-vs-general
        # equivalence tests in tests/verify pin this invariant.
        slots: List[_ReplaySlot] = [
            (cid, gens[cid].send, core, core.timer, core.stats)
            for cid, core in enumerate(cores[: len(gens)])
        ]

        while slots:
            dead: Optional[Set[int]] = None
            for slot in slots:
                cid, send, core, timer, stats = slot
                while True:
                    try:
                        op = send(pending[cid])
                    except StopIteration:
                        finished += 1
                        dead = {cid} if dead is None else dead | {cid}
                        break
                    # Loads/stores/computes — the bulk of every kernel
                    # — are inlined: on a replay hierarchy every access
                    # is an architectural hit costing one cycle, so the
                    # handler + event round trip reduces to a value-map
                    # access and a tick.  The inlined bookkeeping is
                    # op-for-op identical to _exec_load/_exec_store/
                    # _exec_compute over a ReplayHierarchy (pinned by
                    # the equivalence tests).  The checks are spelled
                    # ``type(op) is X`` (not an aliased type) so the
                    # union narrows for the attribute accesses below.
                    if type(op) is Load:
                        stats.ops += 1
                        stats.loads += 1
                        try:
                            value = arch[op.addr]
                        except KeyError:
                            value = mem_load(op.addr)  # raises AddressError
                        stats.l1_hits += 1
                        timer.clock += 1.0
                        pending[cid] = value
                        ops_executed += 1
                        break
                    if type(op) is Store:
                        stats.ops += 1
                        stats.stores += 1
                        mem_store(op.addr, op.value)
                        stats.l1_hits += 1
                        timer.clock += 1.0
                        pending[cid] = None
                        ops_executed += 1
                        break
                    if type(op) is Compute:
                        stats.ops += 1
                        stats.computes += 1
                        timer.clock += 1.0
                        pending[cid] = None
                        ops_executed += 1
                        break
                    if type(op) is Barrier:
                        pending[cid] = None
                        ops_executed += 1
                        stats.ops += 1
                        barrier_wait.append(slot)
                        dead = {cid} if dead is None else dead | {cid}
                        break
                    op_type = type(op)
                    try:
                        handler = handlers[op_type]
                    except KeyError:
                        raise SimulationError(f"unknown op {op!r}") from None
                    stats.ops += 1
                    pending[cid] = handler(core, op)
                    ops_executed += 1
                    if op_type is RegionMark or op_type is Phase:
                        continue  # free op: the core keeps its turn
                    if op_type is Flush or op_type is FlushWB:
                        flush_ops += 1
                    break
            if dead is not None:
                slots = [s for s in slots if s[0] not in dead]
            # All live cores are parked exactly when a pass ends with
            # no live slots and a non-empty barrier set (parked +
            # finished = all).
            if (
                not slots
                and barrier_wait
                and len(barrier_wait) == len(gens) - finished
            ):
                release = max(s[3].clock for s in barrier_wait)
                barrier_wait.sort(key=lambda s: s[0])
                for slot in barrier_wait:
                    slot[3].clock = release
                slots = barrier_wait
                barrier_wait = []

        for cid in range(len(gens)):
            self.stats.per_core[cid].cycles = cores[cid].clock

        return RunResult(
            stats=self.stats,
            crashed=False,
            ops_executed=ops_executed,
            finished_threads=finished,
            total_threads=len(gens),
            flush_ops=flush_ops,
        )

    # ------------------------------------------------------------------
    # persistence / crash
    # ------------------------------------------------------------------

    def drain(self) -> int:
        """Write back every dirty line (graceful shutdown, not a crash)."""
        now = max(c.clock for c in self.cores)
        return self.hierarchy.clean_all(now, cause="drain")

    def after_crash(self) -> "Machine":
        """The machine as recovery code finds it after power loss.

        It is :attr:`post_crash`: binding a workload on it re-attaches
        to the crashed run's regions instead of allocating new ones.
        """
        return Machine(
            self.config,
            _mem=MemoryState.from_image(self.mem.persistent),
            _allocator=self.allocator,
        )

    def track_persists(self) -> None:
        """Record persist order during the coming run, so that
        :meth:`crash_state_space` can snapshot it at the crash.

        Only runs whose crash space is read ask for this
        (:func:`~repro.sim.crash.run_to_crash_space` and the litmus
        harness); every other run leaves the MC without a tracker.
        Raises :class:`ConfigError` on a replay machine, on a model
        whose durability is not order-ideal-shaped, and on a machine
        that has already executed an op, whose earlier flushes the
        tracker would miss.
        """
        if self.replay:
            raise ConfigError(
                "replay machines execute architectural semantics only; "
                "crash-state enumeration needs a full machine"
            )
        if not self.pmodel.enumerable:
            raise ConfigError(
                f"crash-state enumeration is not defined for the "
                f"{self.pmodel.name!r} persistency model. Models that "
                f"support enumeration: "
                f"{', '.join(enumerable_model_names())}"
            )
        if self.stats.total_ops:
            raise ConfigError(
                "persist tracking must be requested before the machine "
                "executes any op"
            )
        self.mc.tracker = PersistOrderTracker(self.mem, self.pmodel.name)

    def crash_state_space(self) -> CrashStateSpace:
        """The set of NVMM images a crash *now* could expose.

        Call on a machine whose run just crashed, after a
        :meth:`track_persists` request made before that run: combines
        the persist tracker's pending (unfenced) flushes with the
        hierarchy's dirty lines into a persist-order constraint graph
        whose order ideals are exactly the reachable post-crash images
        (see :mod:`repro.sim.persist` and :mod:`repro.verify`).
        """
        tracker = self.mc.tracker
        if tracker is None:
            raise ConfigError(
                "persist tracking was not requested: call "
                "Machine.track_persists() before the run"
            )
        crash_time = max(c.clock for c in self.cores)
        return tracker.snapshot(
            self.hierarchy.dirty_line_addrs(), crash_time
        )

    def after_crash_with_image(
        self, image: Dict[int, float], *, replay: bool = False
    ) -> "Machine":
        """A post-crash machine whose NVMM holds ``image``.

        ``image`` is one member of :meth:`crash_state_space`'s reachable
        set (or any address->value map); the rebuilt machine has cold
        caches and architectural state equal to the image, exactly like
        :meth:`after_crash` but for a chosen image instead of the one
        the simulated schedule happened to produce.  Like that machine
        it is :attr:`post_crash`, so allocating on it re-attaches.

        With ``replay=True`` the rebuilt machine is a **replay
        machine**: cache-free architectural semantics under functional
        timing.  Caches are architecturally transparent, so replaying
        recovery code on it computes exactly the values a full machine
        would — at a fraction of the cost — which is what the
        crash-state checker's per-image recovery verification needs.
        Replay machines cannot snapshot crash-state spaces.
        """
        return Machine(
            self.config,
            _mem=MemoryState.from_image(image),
            _allocator=self.allocator,
            _replay=replay,
        )

    # -- value introspection ------------------------------------------------

    def arch_value(self, addr: int) -> float:
        """Architectural (program-visible) value at ``addr``."""
        return self.mem.load(addr)

    def persistent_value(self, addr: int, default: Optional[float] = None) -> float:
        """NVMM-image value at ``addr`` (post-crash view)."""
        return self.mem.persisted(addr, default)

    def read_region(self, region: Region, persistent: bool = False) -> List[float]:
        """Bulk-read a region's values (validation helper, no timing)."""
        if persistent:
            return [self.mem.persisted(a, 0.0) for a in region.element_addrs()]
        return [self.mem.load(a) for a in region.element_addrs()]
