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
per-thread progress markers, WAL undo logs and write-behind redo
journals (both :class:`~repro.core.wal.WriteAheadLog`s) — for *every*
workload uniformly, so all schemes address identical regions and a
binding on a post-crash machine re-attaches to the ones the crashed
run allocated.
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
    scheme — so a workload bound on a fresh machine and one rebound on
    its post-crash machine (:attr:`Machine.post_crash`, where
    allocating re-attaches) agree on every address regardless of which
    scheme ran, and cross-scheme address layouts never diverge.
    """

    def __init__(
        self,
        machine: Machine,
        prefix: str,
        num_threads: int,
        plans: Sequence[Sequence[RegionDecl]],
        engine: str,
        wb_batch: int,
    ) -> None:
        if wb_batch < 1:
            raise WorkloadError(f"wb_batch must be >= 1, got {wb_batch}")
        self.wb_batch = wb_batch
        self.lp = LPRuntime(
            machine,
            f"{prefix}.cktab",
            dims=(num_threads, max(1, _max_plan_len(plans))),
            engine=engine,
        )
        self.markers: List[Region] = progress_markers(machine, prefix, num_threads)

        def logs(kind: str, capacity: int) -> List[WriteAheadLog]:
            return [
                WriteAheadLog(machine, f"{prefix}.{kind}.{t}", capacity)
                for t in range(num_threads)
            ]

        self.logs = logs("wal", max(2, _wal_capacity(plans)))
        self.journals = logs("wbj", _journal_capacity(plans, wb_batch))


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
