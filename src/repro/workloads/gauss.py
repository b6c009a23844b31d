"""Gaussian elimination (Table V: "4k-square input matrix gauss
elimination"; the paper simulates a 4-pivot window of the outer loop).

In-place LU-style elimination without pivoting on a diagonally dominant
matrix.  The working matrix ``A`` starts as a durable copy of a
**pristine** input ``P`` that is never written — the paper's recovery
strategy for in-place kernels recomputes "from the beginning ... using
the input matrices", and keeping the input pristine in NVMM is what
makes that possible once the original values have been overwritten.

* LP region: the updates one pivot ``k`` applies to one row block,
  keyed (k, block).  Blocks are owned by threads (block % P == tid),
  and a Barrier separates pivots because stage ``k`` reads pivot row
  ``k``, finalised in stage ``k-1``.
* Recovery: reverse-scan for the restart frontier ``f`` (the highest
  pivot at which any block's checksum matches its persisted data),
  then **replay** stages 0..f from the pristine input — elimination's
  read-modify-write structure means partially persisted factor columns
  cannot be trusted piecemeal, so the sound repair is a deterministic
  replay (DESIGN.md section 4) — persist eagerly, and resume Lazy
  execution at stage ``f+1``.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.sim.isa import Barrier, Compute, Fence, Load, Op, RegionMark, Store
from repro.sim.machine import ThreadGen
from repro.core.eager import (
    durable_store,
    persist_addrs,
    persist_region,
    progress_markers,
)
from repro.core.lazy import LPRuntime
from repro.core.region import RegionChecksum
from repro.workloads.arrays import PMatrix
from repro.schemes import SCHEME_BASE, SCHEME_EP, SCHEME_LP
from repro.workloads.base import (
    BoundWorkload,
    Workload,
    integer_matrix,
)
from repro.workloads.registry import register


class BoundGauss(BoundWorkload):
    def __init__(self, spec, machine, num_threads, engine):
        super().__init__(spec, machine, num_threads)
        n = spec.n
        self.pristine = PMatrix(machine, "gauss.p", n, n)
        self.a = PMatrix(machine, "gauss.a", n, n)
        self.lp = LPRuntime(
            machine,
            "gauss.cktab",
            dims=(spec.pivots, spec.num_blocks),
            engine=engine,
        )
        self.markers = progress_markers(machine, "gauss", num_threads)
        if not machine.post_crash:
            rng = random.Random(spec.seed)
            mat = integer_matrix(rng, n, n)
            # diagonal dominance: no pivoting needed, pivots never zero
            mat += np.diag([float(8 * n)] * n)
            self.pristine.fill(mat)
            self.a.fill(mat)

    def my_blocks(self, tid: int) -> List[int]:
        """Row blocks owned by thread ``tid``."""
        return [
            b for b in range(self.spec.num_blocks) if b % self.num_threads == tid
        ]

    def block_rows(self, block: int, pivot: int) -> List[int]:
        """Rows of ``block`` that pivot ``pivot`` updates (i > pivot)."""
        r0 = block * self.spec.row_block
        return [
            i for i in range(r0, r0 + self.spec.row_block) if i > pivot
        ]

    # ------------------------------------------------------------------
    # normal execution
    # ------------------------------------------------------------------

    def threads(self, variant: str) -> List[ThreadGen]:
        self.spec.check_variant(variant)
        return [
            self._worker(variant, tid, start_pivot=0)
            for tid in range(self.num_threads)
        ]

    def _worker(self, variant: str, tid: int, start_pivot: int) -> ThreadGen:
        for k in range(start_pivot, self.spec.pivots):
            yield from self.tag(f"pivot{k}")
            for block in self.my_blocks(tid):
                rows = self.block_rows(block, k)
                if not rows:
                    continue
                yield from self.tag(f"block{block}")
                yield RegionMark(f"gauss:{variant}:k{k}:b{block}")
                yield from self._region(variant, tid, k, block, rows)
                yield from self.tag()
            yield from self.tag()
            # stage k+1 reads pivot row k+1, finalised in stage k
            yield Barrier()

    def _region(
        self, variant: str, tid: int, k: int, block: int, rows: List[int]
    ) -> Generator[Op, Optional[float], None]:
        n = self.spec.n
        addr = self.a.addr
        ck: Optional[RegionChecksum] = None
        if variant == SCHEME_LP:
            ck = self.lp.begin_region()

        pivot = yield Load(addr(k, k))
        for i in rows:
            aik = yield Load(addr(i, k))
            factor = aik / pivot
            yield Compute(1)
            yield Store(addr(i, k), factor)
            if ck is not None:
                yield ck.update(factor)
            for j in range(k + 1, n):
                akj = yield Load(addr(k, j))
                aij = yield Load(addr(i, j))
                updated = aij - factor * akj
                yield Store(addr(i, j), updated)
                if ck is not None:
                    yield ck.update(updated)
            yield Compute(2 * (n - k - 1))
            if variant == SCHEME_EP:
                yield from persist_addrs(self.a.row_addrs(i, k, n))

        if variant == SCHEME_LP:
            assert ck is not None
            yield from self.lp.commit(ck, k, block)
        elif variant == SCHEME_EP:
            yield Fence()
            yield from durable_store(
                self.markers[tid].base, float(k * self.spec.num_blocks + block)
            )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recovery_threads(self, variant: str) -> List[ThreadGen]:
        # One conservative path for every variant: replay from the
        # pristine input up to the highest stage with a matching
        # region (none for ep, which commits no checksums).
        self.spec.check_variant(variant)
        return [self._recover(tid) for tid in range(self.num_threads)]

    def _recover(self, tid: int) -> ThreadGen:
        yield RegionMark(f"gauss:recover:t{tid}")
        frontier: Optional[int] = None
        for k in reversed(range(self.spec.pivots)):
            for block in range(self.spec.num_blocks):
                matches = yield from self._region_matches(k, block)
                if matches:
                    frontier = k
                    break
            if frontier is not None:
                break

        # thread 0 replays from the pristine input up to the frontier;
        # the others wait at the barrier.
        if tid == 0:
            yield from self._replay(frontier)
        yield Barrier()

        resume_from = 0 if frontier is None else frontier + 1
        yield from self._worker(SCHEME_LP, tid, start_pivot=resume_from)

    def _region_matches(
        self, k: int, block: int
    ) -> Generator[Op, Optional[float], bool]:
        rows = self.block_rows(block, k)
        if not rows:
            return False
        addr = self.a.addr
        return (
            yield from self.lp.region_matches(
                (addr(i, j) for i in rows for j in range(k, self.spec.n)),
                self.lp.table.slot_addr(k, block),
            )
        )

    def _replay(self, frontier: Optional[int]) -> ThreadGen:
        """Restore A from the pristine input, apply stages 0..frontier,
        persist eagerly, and recommit the frontier checksums."""
        n = self.spec.n
        addr = self.a.addr
        yield RegionMark(f"gauss:recover:replay:f{frontier}")

        # 1. restore A = P (elimination reads A in place, so stage 0
        #    must see the pristine values everywhere).
        for i in range(n):
            for j in range(n):
                v = yield Load(self.pristine.addr(i, j))
                yield Store(addr(i, j), v)

        # 2. replay stages 0..frontier with plain stores (arch state);
        #    the frontier stage's values are kept for its checksums.
        redone: List[List[float]] = [[] for _ in range(self.spec.num_blocks)]
        for k in range(0 if frontier is None else frontier + 1):
            pivot = yield Load(addr(k, k))
            for i in range(k + 1, n):
                block = i // self.spec.row_block
                aik = yield Load(addr(i, k))
                factor = aik / pivot
                yield Compute(1)
                yield Store(addr(i, k), factor)
                if k == frontier:
                    redone[block].append(factor)
                for j in range(k + 1, n):
                    akj = yield Load(addr(k, j))
                    aij = yield Load(addr(i, j))
                    updated = aij - factor * akj
                    yield Store(addr(i, j), updated)
                    if k == frontier:
                        redone[block].append(updated)
                yield Compute(2 * (n - k - 1))

        # 3. persist the replayed matrix and the frontier checksums.
        yield from persist_region(list(self.a.region.element_addrs()))
        if frontier is not None:
            for block in range(self.spec.num_blocks):
                if self.block_rows(block, frontier):
                    yield from self.lp.recommit(
                        redone[block], self.lp.table.slot_addr(frontier, block)
                    )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def reference(self) -> np.ndarray:
        a = self.pristine.to_numpy().copy()
        n = self.spec.n
        for k in range(self.spec.pivots):
            pivot = a[k, k]
            for i in range(k + 1, n):
                factor = a[i, k] / pivot
                a[i, k] = factor
                # same per-element expression as the kernel
                a[i, k + 1 :] = a[i, k + 1 :] - factor * a[k, k + 1 :]
        return a

    def output(self, persistent: bool = False) -> np.ndarray:
        return self.a.to_numpy(persistent=persistent)


@register
class GaussElimination(Workload):
    """In-place elimination: A becomes U above the diagonal, the
    multipliers (L factors) below it."""

    name = "gauss"
    bound = BoundGauss
    variants = (SCHEME_BASE, SCHEME_LP, SCHEME_EP)

    def __init__(
        self,
        n: int = 48,
        row_block: int = 4,
        pivots: Optional[int] = None,
        seed: int = 13,
    ) -> None:
        if n % row_block != 0:
            raise WorkloadError(f"n={n} not divisible by row_block={row_block}")
        self.n = n
        self.row_block = row_block
        self.num_blocks = n // row_block
        #: Simulation window: number of pivot columns (the paper's
        #: simulation passes over 4 columns of a 4096-wide matrix).
        self.pivots = n - 1 if pivots is None else pivots
        if not 1 <= self.pivots <= n - 1:
            raise WorkloadError(f"pivots={pivots} out of range [1, {n - 1}]")
        self.seed = seed
