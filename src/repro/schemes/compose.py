"""Composition protocol between workloads and persistency schemes.

A region-structured workload declares each durable region once, as a
:class:`RegionDecl` with a *static write-set*: the (address, value)
pairs the region will store, precomputed in Python from the workload's
seeded spec.  The scheme layer (:mod:`repro.schemes.registry`) then
drives the workload's region bodies through any persist protocol —
plain stores, LP checksums, eager flush+fence, WAL transactions, or
write-behind batching — and, crucially, owns a *generic recovery*: a
blind redo of the declared writes from the scheme's restart frontier.

Blind redo is the load-bearing design choice.  Re-executing a
value-dependent body (say, a hashmap probe loop) over a torn image is
unsound — a lost key store makes the probe stop early and place the
key in the wrong slot.  Redoing the precomputed (addr, value) pairs in
declaration order reconstructs the exact failure-free state from any
reachable image, because the final value of every address is the value
declared by its last writer.

:class:`SchemeState` allocates the scheme metadata — checksum table,
per-thread progress markers, WAL logs, write-behind journals — for
*every* workload uniformly, so create/rebind and all schemes address
identical regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.sim.address import Region
from repro.sim.isa import Op, Store
from repro.sim.machine import Machine
from repro.core.eager import progress_markers
from repro.core.lazy import LPRuntime
from repro.core.wal import WriteAheadLog


@dataclass(frozen=True)
class RegionDecl:
    """One durable region: a persist unit with a static write-set.

    ``seq`` is the region's position in its thread's plan (dense,
    starting at 0) — scheme markers and checksum-table slots are keyed
    by it.  ``writes`` lists every (element address, value) the region
    stores, in program order; the runner checks the body against it.
    """

    seq: int
    label: str
    writes: Tuple[Tuple[int, float], ...]

    @property
    def addrs(self) -> List[int]:
        """Distinct written element addresses, in first-write order."""
        seen: List[int] = []
        seen_set = set()
        for addr, _ in self.writes:
            if addr not in seen_set:
                seen_set.add(addr)
                seen.append(addr)
        return seen


class RegionContext:
    """Tracked stores inside one region body.

    Bodies route every durable store through :meth:`store` (``yield
    from ctx.store(addr, v)``) so the active scheme can interleave its
    protocol (checksum updates, deferral into a WAL transaction) and
    the runner can verify the body produced exactly its declared
    write-set.  Loads are plain ``yield Load(addr)`` ops — bodies may
    read anything *except* their own in-region writes, which a deferring
    scheme (WAL) has not architecturally performed yet.
    """

    def __init__(self, defer: bool = False) -> None:
        self.defer = defer
        self.writes: List[Tuple[int, float]] = []

    def store(self, addr: int, value: float) -> Sequence[Op]:
        """Ops for one tracked store (empty when the scheme defers)."""
        self.writes.append((int(addr), float(value)))
        if self.defer:
            return ()
        return (Store(int(addr), float(value)),)


#: write-behind journal header slots (share one line, one flush each)
_WBJ_STATUS = 0
_WBJ_COUNT = 1
_WBJ_SEQ = 2
_WBJ_HEADER_ELEMS = 8  # pad to a full line


class WriteBehindJournal:
    """Per-thread redo journal for the write-behind scheme.

    Unlike :class:`~repro.core.wal.WriteAheadLog` (an undo log of old
    values), this journals the *new* coalesced values of one batch plus
    the batch's publish sequence number: a crash between journal
    validation and batch publication is repaired by re-applying the
    journaled writes, never by rollback — write-behind batches span
    many regions whose pre-images are long gone from any log.
    """

    def __init__(
        self, machine: Machine, name: str, capacity: int, create: bool = True
    ) -> None:
        if capacity <= 0:
            raise WorkloadError("journal capacity must be positive")
        self.machine = machine
        self.capacity = capacity
        if create:
            self.region: Region = machine.alloc(
                name, _WBJ_HEADER_ELEMS + 2 * capacity
            )
        else:
            self.region = machine.region(name)

    # -- addressing ---------------------------------------------------------

    @property
    def status_addr(self) -> int:
        return self.region.addr(_WBJ_STATUS)

    @property
    def count_addr(self) -> int:
        return self.region.addr(_WBJ_COUNT)

    @property
    def seq_addr(self) -> int:
        return self.region.addr(_WBJ_SEQ)

    def entry_addrs(self, i: int) -> Tuple[int, int]:
        """(address-slot, value-slot) element addresses of entry i."""
        base = _WBJ_HEADER_ELEMS + 2 * i
        return self.region.addr(base), self.region.addr(base + 1)

    # -- recovery-side inspection (untimed, reads the NVMM image) -----------

    def needs_redo(self) -> bool:
        """True if a crash interrupted a validated batch publication."""
        return self.machine.mem.persisted(self.status_addr, 0.0) == 1.0

    def persisted_count(self) -> int:
        return int(self.machine.mem.persisted(self.count_addr, 0.0))


def _max_plan_len(plans: Sequence[Sequence[RegionDecl]]) -> int:
    return max((len(plan) for plan in plans), default=0)


def _wal_capacity(plans: Sequence[Sequence[RegionDecl]]) -> int:
    """Largest region write-set, plus one slot for the progress marker
    (WAL transactions publish the marker atomically with the data)."""
    widest = max(
        (len(decl.writes) for plan in plans for decl in plan), default=0
    )
    return widest + 1


def _journal_capacity(
    plans: Sequence[Sequence[RegionDecl]], batch: int
) -> int:
    """Largest coalesced batch: distinct addresses in any window of
    ``batch`` consecutive regions of one thread's plan."""
    cap = 1
    for plan in plans:
        for start in range(0, len(plan), batch):
            window = plan[start : start + batch]
            distinct = {addr for d in window for addr, _ in d.writes}
            cap = max(cap, len(distinct))
    return cap


class SchemeState:
    """Scheme metadata for one bound region workload.

    Allocated uniformly — every scheme's regions exist under every
    scheme — so a workload bound with ``create=True`` and one rebound
    with ``create=False`` (post-crash recovery) agree on every address
    regardless of which scheme ran, and cross-scheme address layouts
    never diverge.
    """

    def __init__(
        self,
        machine: Machine,
        prefix: str,
        num_threads: int,
        plans: Sequence[Sequence[RegionDecl]],
        engine: str,
        wb_batch: int,
        create: bool = True,
    ) -> None:
        if wb_batch < 1:
            raise WorkloadError(f"wb_batch must be >= 1, got {wb_batch}")
        self.machine = machine
        self.num_threads = num_threads
        self.wb_batch = wb_batch
        self.lp = LPRuntime(
            machine,
            f"{prefix}.cktab",
            dims=(num_threads, max(1, _max_plan_len(plans))),
            engine=engine,
            create=create,
        )
        self.markers: List[Region] = progress_markers(
            machine, prefix, num_threads, create
        )
        self.logs: List[WriteAheadLog] = [
            WriteAheadLog(
                machine,
                f"{prefix}.wal.{t}",
                capacity=max(2, _wal_capacity(plans)),
                create=create,
            )
            for t in range(num_threads)
        ]
        self.journals: List[WriteBehindJournal] = [
            WriteBehindJournal(
                machine,
                f"{prefix}.wbj.{t}",
                capacity=_journal_capacity(plans, wb_batch),
                create=create,
            )
            for t in range(num_threads)
        ]

    def marker_value(self, tid: int) -> int:
        """The thread's persisted progress marker (recovery view)."""
        return int(
            self.machine.mem.persisted(self.markers[tid].base, -1.0)
        )


def validate_plans(
    name: str, plans: Sequence[Sequence[RegionDecl]]
) -> None:
    """Structural invariants the scheme layer's soundness rests on.

    * region ``seq`` equals its plan position (dense keying for
      markers and checksum slots);
    * every region declares at least one write;
    * thread write-sets are disjoint (per-thread recovery frontiers
      are only sound when no other thread can touch my addresses).
    """
    owned: Dict[int, int] = {}
    for tid, plan in enumerate(plans):
        for index, decl in enumerate(plan):
            if decl.seq != index:
                raise WorkloadError(
                    f"workload {name!r} thread {tid}: region at position "
                    f"{index} declares seq {decl.seq}"
                )
            if not decl.writes:
                raise WorkloadError(
                    f"workload {name!r} thread {tid} region {index}: "
                    "empty write-set"
                )
            for addr, _ in decl.writes:
                owner = owned.setdefault(addr, tid)
                if owner != tid:
                    raise WorkloadError(
                        f"workload {name!r}: address {addr} written by "
                        f"threads {owner} and {tid}; thread write-sets "
                        "must be disjoint"
                    )
