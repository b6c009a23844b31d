"""Cholesky factorisation (Table V: "1k-square input matrix cholesky
factorization"; the paper ran this kernel to completion).

Left-looking column Cholesky, out-of-place: the factor ``L`` is built
column by column from the pristine SPD input ``P`` and the already
final columns of ``L`` itself.  Each element of ``L`` is written
exactly once and the input is never overwritten, so every region is
**idempotent** and its write-set is read off
:meth:`BoundCholesky.reference`.  Every scheme and its blind-redo
recovery come from the scheme layer (:mod:`repro.workloads.regional`).

Parallelism: threads partition the rows below the diagonal of each
column; a Barrier after the diagonal element and one after each column
enforce the left-looking dependences.  Regions are (column_block,
thread), each holding the L values that thread writes in those
columns.  Other threads read the diagonal element inside the region
that writes it, so the deferring ``wal`` scheme does not apply.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.schemes import (
    SCHEME_BASE,
    SCHEME_EP,
    SCHEME_LP,
    SCHEME_WRITE_BEHIND,
    RegionContext,
    RegionDecl,
)
from repro.sim.isa import Barrier, Compute, Load
from repro.sim.machine import ThreadGen
from repro.workloads.arrays import PMatrix
from repro.workloads.base import integer_matrix
from repro.workloads.regional import BoundRegionWorkload, RegionWorkload
from repro.workloads.registry import register


class BoundCholesky(BoundRegionWorkload):
    def _bind_data(self) -> None:
        n = self.spec.n
        self.pristine = PMatrix(self.machine, "chol.p", n, n)
        self.l = PMatrix(self.machine, "chol.l", n, n)
        if not self.machine.post_crash:
            rng = random.Random(self.spec.seed)
            m = integer_matrix(rng, n, n, span=3)
            spd = m @ m.T + np.diag([float(4 * n)] * n)
            self.pristine.fill(spd)
        self.expected = self.reference()

    def my_rows(self, tid: int, j: int) -> List[int]:
        """Rows strictly below the diagonal of column j owned by tid."""
        return [
            i for i in range(j + 1, self.spec.n) if i % self.num_threads == tid
        ]

    def diag_owner(self, j: int) -> int:
        """Thread that computes column j's diagonal element."""
        return j % self.num_threads

    def cells(self, block: int, tid: int) -> Iterator[Tuple[int, int]]:
        """(i, j) of the L elements ``tid`` writes in a column block,
        in program order."""
        j0 = block * self.spec.col_block
        for j in range(j0, j0 + self.spec.col_block):
            if self.diag_owner(j) == tid:
                yield j, j
            for i in self.my_rows(tid, j):
                yield i, j

    def plan(self, tid: int) -> List[RegionDecl]:
        decls = []
        for block in range(self.spec.num_blocks):
            writes = tuple(
                (self.l.addr(i, j), float(self.expected[i, j]))
                for i, j in self.cells(block, tid)
            )
            if not writes:
                # A thread that owns nothing in a block owns nothing in
                # any later one; it stops, and the later barriers wait
                # only for the threads still running.
                break
            decls.append(
                RegionDecl(seq=block, label=f"b{block}:t{tid}", writes=writes)
            )
        return decls

    def region_body(
        self, tid: int, decl: RegionDecl, ctx: RegionContext
    ) -> ThreadGen:
        j0 = decl.seq * self.spec.col_block
        for j in range(j0, j0 + self.spec.col_block):
            if self.diag_owner(j) == tid:
                yield from self._diagonal(j, ctx)
            yield Barrier()  # everyone needs L[j][j]
            for i in self.my_rows(tid, j):
                yield from self._offdiag(i, j, ctx)
            yield Barrier()  # column j final before j+1 starts

    def _diagonal(self, j: int, ctx: RegionContext) -> ThreadGen:
        """L[j][j] = sqrt(P[j][j] - sum_k L[j][k]^2)."""
        s = yield Load(self.pristine.addr(j, j))
        for k in range(j):
            v = yield Load(self.l.addr(j, k))
            s -= v * v
        yield Compute(2 * j + 2)
        yield from ctx.store(self.l.addr(j, j), math.sqrt(s))

    def _offdiag(self, i: int, j: int, ctx: RegionContext) -> ThreadGen:
        """L[i][j] = (P[i][j] - sum_k L[i][k] L[j][k]) / L[j][j]."""
        l_addr = self.l.addr
        s = yield Load(self.pristine.addr(i, j))
        for k in range(j):
            a = yield Load(l_addr(i, k))
            b = yield Load(l_addr(j, k))
            s -= a * b
        d = yield Load(l_addr(j, j))
        yield Compute(2 * j + 2)
        yield from ctx.store(self.l.addr(i, j), s / d)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def reference(self) -> np.ndarray:
        p = self.pristine.to_numpy()
        n = self.spec.n
        low = np.zeros((n, n))
        # same operation order as the kernel, per element; the rows
        # below the diagonal of one column are done together
        for j in range(n):
            s = p[j, j]
            for k in range(j):
                s -= low[j, k] * low[j, k]
            low[j, j] = math.sqrt(s)
            col = p[j + 1 :, j].copy()
            for k in range(j):
                col -= low[j + 1 :, k] * low[j, k]
            low[j + 1 :, j] = col / low[j, j]
        return low

    def output(self, persistent: bool = False) -> np.ndarray:
        return self.l.to_numpy(persistent=persistent)


@register
class Cholesky(RegionWorkload):
    """P = L @ L.T with L lower-triangular; computes L."""

    name = "cholesky"
    bound = BoundCholesky
    variants = (SCHEME_BASE, SCHEME_LP, SCHEME_EP, SCHEME_WRITE_BEHIND)
    #: Control flow never depends on loaded values.
    stream_safe = True
    #: Later columns re-read every earlier column.
    rereads_output = True

    def __init__(
        self, n: int = 48, col_block: int = 8, seed: int = 17
    ) -> None:
        if n % col_block != 0:
            raise WorkloadError(f"n={n} not divisible by col_block={col_block}")
        self.n = n
        self.col_block = col_block
        self.num_blocks = n // col_block
        self.seed = seed
