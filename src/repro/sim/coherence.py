"""Two-level coherent cache hierarchy (private L1s, shared inclusive L2).

Implements the paper's "MESI two-level protocol" at the granularity the
reproduction needs: line states, ownership transfer, upgrade
invalidations, inclusive back-invalidation, and — crucially for Lazy
Persistency — the exact paths by which dirty data reaches the memory
controller:

* natural eviction of a dirty L2 line (or recall of an L1 ``M`` copy
  when its inclusive L2 line is evicted),
* ``clflushopt`` (persist + invalidate),
* ``clwb`` (persist, keep resident clean),
* the periodic hardware cleaner of section III-E.1.

Because the machine scheduler serialises ops, protocol transient states
and races do not arise; transitions are applied atomically at the
issuing core's clock.

As in gem5's MESI_Two_Level, an owner/sharer directory at the L2 names
each line's L1 holders, so a miss, upgrade, flush or L2 eviction finds
them without probing every L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.sim.address import line_of
from repro.sim.cache import Cache, Line, State
from repro.sim.config import MachineConfig
from repro.sim.model import get_model
from repro.sim.nvmm import MemoryController
from repro.sim.stats import MachineStats
from repro.sim.timing import HierarchyTiming
from repro.sim.valuestore import MemoryState


@dataclass(frozen=True)
class Access:
    """Outcome of a load/store as seen by the issuing core.

    Frozen, so hit outcomes can be shared constants (:data:`_L1_HIT`);
    a path that adds latency builds a new instance instead.
    """

    l1_hit: bool
    #: Cycles beyond the L1-hit issue cost until data/ownership arrives.
    extra_latency: float = 0.0


#: The outcome of every plain L1 hit (no added latency), shared by
#: every hierarchy instead of allocated per access.
_L1_HIT = Access(l1_hit=True, extra_latency=0.0)


class MemorySystem(Protocol):
    """What the semantics layer requires of the memory system.

    Cores and the machine talk to the memory system only through this
    surface: value-bearing loads/stores, the flush path to the MC, and
    the bulk-clean / dirty-set hooks the cleaner and crash machinery
    use.  Two implementations exist — the full coherent
    :class:`Hierarchy` and the cache-free :class:`ReplayHierarchy` used
    for recovery replay.
    """

    mc: MemoryController

    def load(self, core_id: int, addr: int, now: float) -> Access: ...

    def store(
        self, core_id: int, addr: int, value: float, now: float
    ) -> Access: ...

    def flush_line(
        self,
        line_addr: int,
        now: float,
        invalidate: bool,
        cause: str = "flush",
        core_id: Optional[int] = None,
    ) -> Tuple[bool, float]: ...

    def clean_all(self, now: float, cause: str = "cleaner") -> int: ...

    def dirty_line_addrs(self) -> Set[int]: ...


class Hierarchy:
    """All caches plus the persistence path to the MC."""

    def __init__(
        self,
        config: MachineConfig,
        mem: MemoryState,
        stats: MachineStats,
        mc: MemoryController,
        timing: Optional[HierarchyTiming] = None,
    ) -> None:
        self.config = config
        self.mem = mem
        self.stats = stats
        self.mc = mc
        #: Component latencies (timing layer).  Coherence *state* below
        #: never depends on these; they only size the latencies a core
        #: feels.  Directly constructed hierarchies default to the
        #: detailed (Table II) values from the config.
        self.timing = (
            timing
            if timing is not None
            else HierarchyTiming(
                l2_hit_cycles=config.l2.hit_cycles,
                coherence_cycles=config.coherence_cycles,
                flush_transit_cycles=config.flush_transit_cycles,
            )
        )
        #: Persistency model: gates the flush path (eADR-class models
        #: make clflushopt/clwb no-ops) and the write-through store
        #: path (strict persistency).
        self.model = get_model(config.model)
        self.l1s: List[Cache] = [
            Cache(config.l1, name=f"L1[{i}]") for i in range(config.num_cores)
        ]
        self.l2 = Cache(config.l2, name="L2")
        #: The owner/sharer directory: line address -> {core id: that
        #: core's L1 line} for every line some L1 holds.  Every L1 fill
        #: and removal goes through :meth:`_install_l1` and
        #: :meth:`_remove_l1`, its only writers.
        self._directory: Dict[int, Dict[int, Line]] = {}

    # ------------------------------------------------------------------
    # directory lookups (no L1 is probed)
    # ------------------------------------------------------------------

    def _owner(self, line_addr: int, exclude: int = -1) -> Optional[int]:
        """Core holding the line in M (at most one), or None."""
        for cid, line in self._directory.get(line_addr, {}).items():
            if cid != exclude and line.state is State.MODIFIED:
                return cid
        return None

    def _sharers(self, line_addr: int, exclude: int = -1) -> List[int]:
        """Cores other than ``exclude`` whose L1 holds the line."""
        return [
            cid
            for cid in self._directory.get(line_addr, {})
            if cid != exclude
        ]

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------

    def load(self, core_id: int, addr: int, now: float) -> Access:
        """Service a load: hit fast-path or fill + coherence actions."""
        line_addr = line_of(addr)
        l1 = self.l1s[core_id]
        if l1.access(line_addr) is not None:
            return _L1_HIT

        latency = self.timing.l2_hit_cycles
        self.stats.l2_accesses += 1

        # Another core may hold the only up-to-date copy in M: downgrade
        # it to S and mark the inclusive L2 line dirty (data merges down).
        owner = self._owner(line_addr, exclude=core_id)
        if owner is not None:
            owner_line = self.l1s[owner].get(line_addr)
            assert owner_line is not None
            self._merge_dirty_into_l2(owner_line, now)
            owner_line.state = State.SHARED
            owner_line.dirty_since = None
            latency += self.timing.coherence_cycles
        else:
            # A remote EXCLUSIVE copy must drop to SHARED so its core
            # cannot later write it without an upgrade.
            for remote in self._directory.get(line_addr, {}).values():
                if remote.state is State.EXCLUSIVE:
                    remote.state = State.SHARED

        l2_line = self.l2.access(line_addr)
        if l2_line is None:
            self.stats.l2_misses += 1
            latency += self._fill_l2(line_addr, now + latency)

        state = (
            State.SHARED
            if self._sharers(line_addr, exclude=core_id)
            else State.EXCLUSIVE
        )
        self._install_l1(core_id, line_addr, state, now + latency)
        return Access(l1_hit=False, extra_latency=latency)

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------

    def store(self, core_id: int, addr: int, value: float, now: float) -> Access:
        """Apply a store: architectural update + ownership acquisition.

        The returned latency is the cost of the *drain* (acquiring
        ownership and writing the L1), which the core charges to its
        store buffer, not to the main pipeline.  Under strict
        persistency every store additionally writes its line through to
        the MC and the drain absorbs that queue backpressure — the
        model's per-store traffic cost.
        """
        access = self._store_coherent(core_id, addr, value, now)
        if self.model.store_writes:
            line_addr = line_of(addr)
            accept, _ = self.mc.accept_write_timed(
                line_addr, now, "store", now, core_id
            )
            # Written through: the cached copy is no longer dirty.
            line = self.l1s[core_id].get(line_addr)
            if line is not None and line.state is State.MODIFIED:
                line.state = State.EXCLUSIVE
                line.dirty_since = None
            access = Access(
                access.l1_hit, access.extra_latency + max(0.0, accept - now)
            )
        return access

    def _store_coherent(
        self, core_id: int, addr: int, value: float, now: float
    ) -> Access:
        self.mem.store(addr, value)
        line_addr = line_of(addr)
        l1 = self.l1s[core_id]
        line = l1.access(line_addr)

        if line is not None:
            if line.state is State.MODIFIED:
                return _L1_HIT
            if line.state is State.EXCLUSIVE:
                line.state = State.MODIFIED
                line.dirty_since = now
                return _L1_HIT
            # SHARED: upgrade, invalidating the other copies.
            for cid in self._sharers(line_addr, exclude=core_id):
                self._remove_l1(cid, line_addr)
            line.state = State.MODIFIED
            line.dirty_since = now
            return Access(l1_hit=True, extra_latency=self.timing.coherence_cycles)

        # Write miss: read-for-ownership.
        latency = self.timing.l2_hit_cycles
        self.stats.l2_accesses += 1
        inherited_dirty_since: Optional[float] = None

        owner = self._owner(line_addr, exclude=core_id)
        if owner is not None:
            owner_line = self._remove_l1(owner, line_addr)
            # Ownership (and the un-persisted data obligation) transfers.
            inherited_dirty_since = owner_line.dirty_since
            latency += self.timing.coherence_cycles
        for cid in self._sharers(line_addr, exclude=core_id):
            self._remove_l1(cid, line_addr)

        if self.l2.access(line_addr) is None:
            self.stats.l2_misses += 1
            latency += self._fill_l2(line_addr, now + latency)

        new_line = self._install_l1(
            core_id, line_addr, State.MODIFIED, now + latency
        )
        new_line.dirty_since = (
            now if inherited_dirty_since is None else inherited_dirty_since
        )
        return Access(l1_hit=False, extra_latency=latency)

    # ------------------------------------------------------------------
    # flushes (clflushopt / clwb) and the periodic cleaner
    # ------------------------------------------------------------------

    def flush_line(
        self,
        line_addr: int,
        now: float,
        invalidate: bool,
        cause: str = "flush",
        core_id: Optional[int] = None,
    ) -> Tuple[bool, float]:
        """Persist a line (and invalidate it for clflushopt).

        Returns ``(wrote, completion_time)``; ``completion_time`` is
        when the data was accepted into the ADR domain (== ``now`` when
        nothing was dirty).  ``core_id`` names the core whose fence
        orders this flush (persist-order tracking); hardware-initiated
        writebacks (cleaner, drain) pass None and are durable at once.

        Persistency models without a flush path (eADR-class: the data
        was durable at store time) make program-issued flushes complete
        instantly with no cache-state or MC effect; hardware writebacks
        (cleaner, drain, eviction) still persist normally — caches have
        finite capacity on every platform.
        """
        if cause == "flush" and not self.model.flush_writes:
            return False, now
        dirty_since: Optional[float] = None
        dirty = False

        owner = self._owner(line_addr)
        if owner is not None:
            owner_line = self.l1s[owner].get(line_addr)
            assert owner_line is not None
            dirty = True
            dirty_since = owner_line.dirty_since
            if invalidate:
                self._remove_l1(owner, line_addr)
            else:
                owner_line.state = State.EXCLUSIVE
                owner_line.dirty_since = None

        l2_line = self.l2.get(line_addr)
        if l2_line is not None and l2_line.dirty:
            dirty = True
            if dirty_since is None or (
                l2_line.dirty_since is not None
                and l2_line.dirty_since < dirty_since
            ):
                dirty_since = l2_line.dirty_since
            if not invalidate:
                l2_line.state = State.EXCLUSIVE
                l2_line.dirty_since = None

        if invalidate:
            for cid in self._sharers(line_addr):
                self._remove_l1(cid, line_addr)
            if l2_line is not None:
                self.l2.remove(line_addr)

        if not dirty:
            return False, now
        arrival = now + self.timing.flush_transit_cycles
        accept = self.mc.accept_write(
            line_addr, arrival, cause, dirty_since, core_id
        )
        return True, accept

    def clean_all(self, now: float, cause: str = "cleaner") -> int:
        """Write back every dirty line, keeping lines resident (clwb-like).

        Used by the periodic hardware cleaner (section III-E.1); the
        paper spaces these writebacks out in the background, so no core
        latency is charged here — only MC traffic.
        """
        written = 0
        dirty_lines = set()
        for l1 in self.l1s:
            for line in l1.dirty_lines():
                dirty_lines.add(line.addr)
        for line in self.l2.dirty_lines():
            dirty_lines.add(line.addr)
        for line_addr in sorted(dirty_lines):
            wrote, _ = self.flush_line(line_addr, now, invalidate=False, cause=cause)
            if wrote:
                written += 1
        return written

    # ------------------------------------------------------------------
    # internals: fills and evictions
    # ------------------------------------------------------------------

    def _fill_l2(self, line_addr: int, now: float) -> float:
        """Bring a line into the L2 from NVMM; returns added latency."""
        latency = 0.0
        victim = self.l2.victim_for(line_addr)
        if victim is not None:
            latency += self._evict_l2_line(victim, now)
        data_ready = self.mc.read(line_addr, now + latency)
        latency += data_ready - (now + latency)
        self.l2.install(line_addr, State.EXCLUSIVE)
        return latency

    def _evict_l2_line(self, victim: Line, now: float) -> float:
        """Evict an L2 line: back-invalidate L1 copies, persist if dirty."""
        dirty = victim.dirty
        dirty_since = victim.dirty_since
        for cid in self._sharers(victim.addr):
            l1_line = self._remove_l1(cid, victim.addr)
            if l1_line.state is State.MODIFIED:
                dirty = True
                if dirty_since is None or (
                    l1_line.dirty_since is not None
                    and l1_line.dirty_since < dirty_since
                ):
                    dirty_since = l1_line.dirty_since
        self.l2.remove(victim.addr)
        if not dirty:
            return 0.0
        # evictions are asynchronous: the evicting core only feels the
        # queue backpressure (acceptance), never the device completion
        accept, _ = self.mc.accept_write_timed(
            victim.addr, now, "eviction", dirty_since
        )
        return max(0.0, accept - now)

    def _install_l1(
        self, core_id: int, line_addr: int, state: State, now: float
    ) -> Line:
        """Install into an L1, evicting its LRU victim first if needed,
        and record the new copy in the directory; returns it."""
        l1 = self.l1s[core_id]
        victim = l1.victim_for(line_addr)
        if victim is not None:
            if victim.state is State.MODIFIED:
                self._merge_dirty_into_l2(victim, now)
            self._remove_l1(core_id, victim.addr)
        line = l1.install(line_addr, state)
        self._directory.setdefault(line_addr, {})[core_id] = line
        return line

    def _remove_l1(self, core_id: int, line_addr: int) -> Line:
        """Drop a line from one L1 and from the directory; returns it."""
        line = self.l1s[core_id].remove(line_addr)
        holders = self._directory[line_addr]
        del holders[core_id]
        if not holders:
            del self._directory[line_addr]
        return line

    def _merge_dirty_into_l2(self, l1_line: Line, now: float) -> None:
        """Write an L1 ``M`` line's data down into the inclusive L2."""
        l2_line = self.l2.get(l1_line.addr)
        if l2_line is None:
            # Inclusion guarantees presence; tolerate a miss defensively
            # by pushing straight to the MC (data must not be lost).
            self.mc.accept_write(
                l1_line.addr, now, "eviction", l1_line.dirty_since
            )
            return
        l2_line.state = State.MODIFIED
        if l2_line.dirty_since is None or (
            l1_line.dirty_since is not None
            and l1_line.dirty_since < l2_line.dirty_since
        ):
            l2_line.dirty_since = l1_line.dirty_since

    # ------------------------------------------------------------------
    # introspection for tests and the crash machinery
    # ------------------------------------------------------------------

    def dirty_line_addrs(self) -> Set[int]:
        """All line addresses whose data has not reached the MC."""
        dirty = {ln.addr for ln in self.l2.dirty_lines()}
        for l1 in self.l1s:
            dirty.update(ln.addr for ln in l1.dirty_lines())
        return dirty

    def check_inclusion(self) -> None:
        """Assert the inclusive-L2 invariant (test hook)."""
        from repro.errors import SimulationError

        for cid, l1 in enumerate(self.l1s):
            for line in l1.lines():
                if not self.l2.contains(line.addr):
                    raise SimulationError(
                        f"inclusion violated: L1[{cid}] holds "
                        f"{line.addr:#x} absent from L2"
                    )

    def check_single_writer(self) -> None:
        """Assert at most one M copy per line across L1s (test hook)."""
        from repro.errors import SimulationError

        owners: Dict[int, int] = {}
        for cid, l1 in enumerate(self.l1s):
            for line in l1.lines():
                if line.state is State.MODIFIED:
                    if line.addr in owners:
                        raise SimulationError(
                            f"two M copies of {line.addr:#x}: cores "
                            f"{owners[line.addr]} and {cid}"
                        )
                    owners[line.addr] = cid

    def check_directory(self) -> None:
        """Assert the directory records exactly the L1s' lines: the same
        cores, holding the same :class:`Line` objects (test hook)."""
        from repro.errors import SimulationError

        held: Dict[int, Dict[int, int]] = {}
        for cid, l1 in enumerate(self.l1s):
            for line in l1.lines():
                held.setdefault(line.addr, {})[cid] = id(line)
        recorded = {
            addr: {cid: id(line) for cid, line in holders.items()}
            for addr, holders in self._directory.items()
        }
        for addr in held.keys() | recorded.keys():
            if held.get(addr) != recorded.get(addr):
                raise SimulationError(
                    f"directory disagrees with the L1s on {addr:#x}: it "
                    f"records cores {sorted(recorded.get(addr, ()))}, the "
                    f"L1s hold the line in {sorted(held.get(addr, ()))}"
                )


# ----------------------------------------------------------------------
# cache-free replay (recovery verification fast path)
# ----------------------------------------------------------------------

class ReplayHierarchy:
    """Architectural-semantics-only memory system (no caches).

    Caches are architecturally transparent: a load's value comes from
    :class:`~repro.sim.valuestore.MemoryState` and a store updates it,
    regardless of what any cache holds.  When the *only* question is
    "does this code compute the right values" — which is exactly what
    the crash-state checker asks of each per-image recovery run — the
    coherence walk is pure timing/persistence bookkeeping, so this
    implementation of :class:`MemorySystem` skips it: every access is
    an L1 hit, a flush persists the line's architectural data at once,
    and there is never any dirty state to clean.

    Replay machines must never feed crash-state enumeration (their
    dirty set and persist order are intentionally vacuous);
    :meth:`repro.sim.machine.Machine.crash_state_space` guards this.

    ``Machine._run_replay`` inlines this class's load and store paths;
    ``tests/verify/test_timing_equivalence.py`` pins that loop to the
    heap scheduler driving this class through ``Core.execute``.
    """

    def __init__(self, mem: MemoryState, mc: MemoryController) -> None:
        self.mem = mem
        self.mc = mc

    def load(self, core_id: int, addr: int, now: float) -> Access:
        return _L1_HIT

    def store(
        self, core_id: int, addr: int, value: float, now: float
    ) -> Access:
        self.mem.store(addr, value)
        return _L1_HIT

    def flush_line(
        self,
        line_addr: int,
        now: float,
        invalidate: bool,
        cause: str = "flush",
        core_id: Optional[int] = None,
    ) -> Tuple[bool, float]:
        # Persist the line's architectural data directly; with no cache
        # state there is no dirty window and nothing for the MC queue
        # to backpressure.
        self.mem.persist_line(line_addr)
        return False, now

    def clean_all(self, now: float, cause: str = "cleaner") -> int:
        return 0

    def dirty_line_addrs(self) -> Set[int]:
        return set()
