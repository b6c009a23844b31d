"""Persist-order tracking: which NVMM writes are *guaranteed* durable
at a crash, and which are still reorderable under ADR.

The base simulator commits a line's data to the persistent image the
moment the memory controller accepts it, and a crash keeps exactly that
image.  That models one *schedule*, but a real crash exposes a **set**
of NVMM images:

* ``clflushopt``/``clwb`` are weakly ordered — a flush whose following
  ``sfence`` has not retired may or may not have reached the ADR
  domain when power fails;
* a dirty cache line can be written back by the hardware at *any*
  moment, so each dirty line at the crash may or may not have made it
  to the MC with its current data, independent of every other line.

This module records, during a run, the information needed to
reconstruct that set exactly:

* **floor** — writes that are durable in *every* reachable image:
  natural evictions, cleaner/drain writebacks (ADR accepts them
  directly), and flushes ordered by a completed ``sfence``;
* **pending flush events** — MC-accepted flushes whose fence had not
  retired; each may independently be present or absent (subject to
  same-line ordering below);
* **dirty-line events** — lines still dirty in the hierarchy at the
  crash, discovered by the crash snapshot;
* **persist-order edges** — same-line events form a chain (an older
  version of a line can only be observed if no newer persist of that
  line happened; choosing a newer event subsumes the older ones), so a
  reachable image corresponds to a *downward-closed* subset (an order
  ideal) of the event graph.

:class:`CrashStateSpace` is the crash-time snapshot consumed by
:mod:`repro.verify` to enumerate and check every reachable image.

The rules above are ADR's; the tracker is parameterised by a
:class:`~repro.sim.model.PersistencyModel` that bends them per model:

* eADR-class models (``persist_on_store``) have no reorderable window
  at all — every store is durable, so the space collapses to the
  single full-architectural image;
* epoch persistency (``epoch_edges``) turns fences into *ordering*
  marks instead of commits: accepted flushes stay pending forever, but
  a flush from a core's epoch N+1 can only persist if every flush from
  its epoch N did (extra cross-line edges);
* the pre-ADR platform is not enumerable — durability is governed by
  device completion times and the in-flight undo machinery in
  :mod:`repro.sim.nvmm` — so :meth:`PersistOrderTracker.snapshot`
  refuses to run (``ConfigError`` naming the models that do support
  enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.address import element_addrs_of_line
from repro.sim.model import enumerable_model_names, get_model
from repro.sim.valuestore import MemoryState

#: Event kinds.
KIND_FLUSH = "flush"
KIND_DIRTY = "dirty"


@dataclass(frozen=True)
class PersistEvent:
    """One potentially-durable NVMM write that a crash may or may not
    have made visible."""

    #: Stable id; ids increase in persist order along each line's chain.
    eid: int
    line_addr: int
    kind: str
    #: Issuing core for flushes (fence scoping); None for dirty lines.
    core_id: Optional[int]
    #: MC accept time (flush) or crash time (dirty line).
    time: float
    #: Element values this event makes persistent if it "happened".
    values: Dict[int, float]
    #: Persistent values it overwrote (``None`` = address was absent);
    #: only flush events carry this (their effect must be undoable).
    prior: Dict[int, Optional[float]] = field(default_factory=dict)


@dataclass
class CrashStateSpace:
    """Everything reachable from one crash point.

    ``floor`` maps element address -> value durable in every image.
    ``events`` are the reorderable persists; ``edges`` is a list of
    ``(before_eid, after_eid)`` pairs meaning *after* can only be in an
    image if *before* is (same-line version chains).  Images are in
    bijection with the order ideals of this DAG, up to value collisions.
    """

    floor: Dict[int, float]
    events: List[PersistEvent]
    edges: List[Tuple[int, int]]
    crash_time: float = 0.0

    @property
    def num_events(self) -> int:
        return len(self.events)

    def event(self, eid: int) -> PersistEvent:
        for ev in self.events:
            if ev.eid == eid:
                return ev
        raise KeyError(f"no persist event with id {eid}")

    def image_for(self, chosen_eids: Iterable[int]) -> Dict[int, float]:
        """Materialize the NVMM image for a downward-closed event set.

        Events apply in id order; same-line chains have increasing ids,
        so the newest chosen version of each line wins.
        """
        chosen = set(chosen_eids)
        image = dict(self.floor)
        for ev in self.events:
            if ev.eid in chosen:
                image.update(ev.values)
        return image

    def schedule_eids(self) -> List[int]:
        """Events the simulator's own schedule persisted (all pending
        flushes, no extra dirty-line writebacks) — the image the plain
        single-image crash path observes."""
        return [ev.eid for ev in self.events if ev.kind == KIND_FLUSH]

    def signature(self) -> Tuple[Tuple[object, ...], ...]:
        """Canonical, time-independent form of the space.

        Two spaces with equal signatures expose exactly the same
        reachable-image set: the floor, each line's event version
        chain (kind, issuing core and persisted values, in chain
        order), and the order edges rewritten as ``(line, chain
        position)`` pairs.  Event ids and accept/crash *times* — the
        parts a timing model is free to change — are excluded, which
        is what lets the equivalence tests compare spaces produced by
        different :class:`~repro.sim.timing.TimingModel` pipelines.
        """
        pos: Dict[int, Tuple[int, int]] = {}
        chains: Dict[int, List[PersistEvent]] = {}
        for ev in sorted(self.events, key=lambda e: e.eid):
            chain = chains.setdefault(ev.line_addr, [])
            pos[ev.eid] = (ev.line_addr, len(chain))
            chain.append(ev)
        lines = tuple(
            (
                line_addr,
                tuple(
                    (
                        ev.kind,
                        ev.core_id,
                        tuple(sorted(ev.values.items())),
                        tuple(sorted(ev.prior.items())),
                    )
                    for ev in chain
                ),
            )
            for line_addr, chain in sorted(chains.items())
        )
        edges = tuple(sorted((pos[a], pos[b]) for a, b in self.edges))
        floor = tuple(sorted(self.floor.items()))
        return (floor, lines, edges)


class PersistOrderTracker:
    """Runtime recorder of pending (unfenced) flush persists.

    A machine has one only when a run asks for its crash space
    (:meth:`~repro.sim.machine.Machine.track_persists`).  The memory
    controller then calls :meth:`on_accept` for every write it
    accepts; cores call :meth:`on_fence` when an ``sfence`` retires.
    Dirty lines are not tracked during the run — they are discovered by
    the crash snapshot from the cache hierarchy.
    """

    def __init__(self, mem: MemoryState, model: str = "adr") -> None:
        self.mem = mem
        self.model = get_model(model)
        self._next_eid = 0
        #: Pending flush events, in acceptance order.
        self._pending: List[PersistEvent] = []
        #: eid -> issuing core's epoch counter at accept (epoch models).
        self._epoch_of: Dict[int, int] = {}
        #: Per-core epoch counter, bumped by each retired fence.
        self._core_epoch: Dict[int, int] = {}

    # -- hooks ------------------------------------------------------------

    def on_accept(
        self,
        line_addr: int,
        cause: str,
        core_id: Optional[int],
        accept_time: float,
    ) -> None:
        """Called by the MC *before* it copies the line's data into the
        persistent image."""
        if self.model.persist_on_store:
            # Caches are inside the persistence domain: the data this
            # write carries was durable the moment it was stored, so
            # there is never a reorderable window to track.
            self._absorb_line(line_addr)
            return
        if cause == "flush" and core_id is not None:
            prior = {
                addr: self.mem.persistent.get(addr)
                for addr in element_addrs_of_line(line_addr)
            }
            values = {
                addr: self.mem.arch[addr]
                for addr in element_addrs_of_line(line_addr)
                if addr in self.mem.arch
            }
            self._pending.append(
                PersistEvent(
                    eid=self._next_eid,
                    line_addr=line_addr,
                    kind=KIND_FLUSH,
                    core_id=core_id,
                    time=accept_time,
                    values=values,
                    prior=prior,
                )
            )
            if self.model.epoch_edges:
                self._epoch_of[self._next_eid] = self._core_epoch.get(
                    core_id, 0
                )
            self._next_eid += 1
            return
        # Evictions, the cleaner, and drains are hardware writebacks the
        # ADR domain accepted: durable, and they supersede any older
        # uncertainty about this line.
        self._absorb_line(line_addr)

    def on_fence(self, core_id: int, now: float) -> None:
        """An sfence retired on ``core_id``.

        Under ADR it orders that core's accepted flushes into the
        persistence domain — durable for sure.  Under epoch persistency
        it only closes the core's current epoch: pending flushes stay
        reorderable, but later epochs' persists will be constrained to
        come after them (see :meth:`snapshot`).  Broken no-fence
        variants ignore it entirely.
        """
        if self.model.epoch_edges:
            self._core_epoch[core_id] = self._core_epoch.get(core_id, 0) + 1
            return
        if not self.model.fence_commits:
            return
        committed = [
            ev
            for ev in self._pending
            if ev.core_id == core_id and ev.time <= now
        ]
        if not committed:
            return
        # A committed flush's line durably holds its data, so an *older*
        # pending flush of the same line (e.g. another core's, before
        # ownership migrated) can never be observed any more — absorb
        # it, or the snapshot floor would wrongly undo the committed
        # values on its behalf.  Newer pending flushes of the line stay:
        # their prior values are the committed ones, which is exactly
        # what undoing them restores.
        committed_eids = {ev.eid for ev in committed}
        newest_committed: Dict[int, int] = {}
        for ev in committed:
            newest_committed[ev.line_addr] = ev.eid
        self._pending = [
            ev
            for ev in self._pending
            if ev.eid not in committed_eids
            and ev.eid > newest_committed.get(ev.line_addr, -1)
        ]

    def _absorb_line(self, line_addr: int) -> None:
        self._pending = [
            ev for ev in self._pending if ev.line_addr != line_addr
        ]

    # -- introspection ----------------------------------------------------

    @property
    def pending_flush_count(self) -> int:
        return len(self._pending)

    def pending_lines(self) -> List[int]:
        """Line addresses with at least one unfenced flush outstanding."""
        return sorted({ev.line_addr for ev in self._pending})

    # -- crash snapshot ---------------------------------------------------

    def snapshot(
        self, dirty_line_addrs: Iterable[int], crash_time: float
    ) -> CrashStateSpace:
        """Build the reachable-image space at a crash.

        ``dirty_line_addrs`` is the hierarchy's dirty-line set at the
        crash instant; their *current architectural* values are what a
        last-moment hardware writeback would have persisted.
        """
        if not self.model.enumerable:
            raise ConfigError(
                f"crash-state enumeration is not defined for the "
                f"{self.model.name!r} persistency model: its durability "
                f"is completion-timed (MC undo records), not "
                f"order-ideal-shaped. Models that support enumeration: "
                f"{', '.join(enumerable_model_names())}"
            )
        if self.model.persist_on_store:
            # Every store was durable the instant it executed: the
            # persistent image *is* the architectural state and there
            # is exactly one reachable crash image.
            return CrashStateSpace(
                floor=dict(self.mem.persistent),
                events=[],
                edges=[],
                crash_time=crash_time,
            )
        # Floor: the persistent image with every pending (unfenced)
        # flush undone, newest-first so overlapping flushes restore the
        # oldest surviving values.
        floor = dict(self.mem.persistent)
        for ev in reversed(self._pending):
            for addr, value in ev.prior.items():
                if value is None:
                    floor.pop(addr, None)
                else:
                    floor[addr] = value

        events: List[PersistEvent] = list(self._pending)
        for line_addr in sorted(dirty_line_addrs):
            values = {
                addr: self.mem.arch[addr]
                for addr in element_addrs_of_line(line_addr)
                if addr in self.mem.arch
            }
            if not values:
                continue
            events.append(
                PersistEvent(
                    eid=self._next_eid,
                    line_addr=line_addr,
                    kind=KIND_DIRTY,
                    core_id=None,
                    time=crash_time,
                    values=values,
                )
            )
            self._next_eid += 1

        # Same-line chains: an event is only observable if every older
        # event on the same line also "happened" (its values are what
        # the newer write overwrote on the way to the MC).
        edges: List[Tuple[int, int]] = []
        by_line: Dict[int, List[PersistEvent]] = {}
        for ev in sorted(events, key=lambda e: e.eid):
            chain = by_line.setdefault(ev.line_addr, [])
            if chain:
                edges.append((chain[-1].eid, ev.eid))
            chain.append(ev)

        if self.model.epoch_edges:
            # Epoch persistency: within one core, a flush from epoch
            # N+1 can only persist if every flush from the core's
            # previous non-empty epoch did.  Adjacent non-empty epochs
            # get the complete bipartite edge set; transitivity covers
            # the rest.  Dirty-line writebacks are hardware-initiated
            # and stay unordered (beyond same-line chains).
            seen = {(a, b) for a, b in edges}
            by_core: Dict[int, Dict[int, List[PersistEvent]]] = {}
            for ev in events:
                if ev.kind != KIND_FLUSH or ev.core_id is None:
                    continue
                epochs = by_core.setdefault(ev.core_id, {})
                epochs.setdefault(self._epoch_of.get(ev.eid, 0), []).append(ev)
            for epochs in by_core.values():
                ordered = [epochs[e] for e in sorted(epochs)]
                for older, newer in zip(ordered, ordered[1:]):
                    for before in older:
                        for after in newer:
                            if (before.eid, after.eid) not in seen:
                                seen.add((before.eid, after.eid))
                                edges.append((before.eid, after.eid))

        return CrashStateSpace(
            floor=floor,
            events=sorted(events, key=lambda e: e.eid),
            edges=edges,
            crash_time=crash_time,
        )
