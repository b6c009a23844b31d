"""2-D convolution (Table V: "1k-square input matrix 2D convolution").

Out-of-place convolution of an image with a small stencil.  The kernel
never overwrites its input and writes each output element exactly
once, so every region is **idempotent** (section III-E's
trivial-recovery special case) and its write-set is read off
:meth:`BoundConv2D.reference`.  Regions are single output rows, the
kernel's Eager Persistency persist unit; every scheme and its
blind-redo recovery come from the scheme layer
(:mod:`repro.workloads.regional`).

Work partition: thread t owns the rows of the row blocks with
``block % P == t``, top to bottom.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.schemes import RegionContext, RegionDecl
from repro.sim.isa import Compute, Load, Op
from repro.sim.machine import ThreadGen
from repro.workloads.arrays import PMatrix
from repro.workloads.base import integer_matrix
from repro.workloads.regional import BoundRegionWorkload, RegionWorkload
from repro.workloads.registry import register


class BoundConv2D(BoundRegionWorkload):
    def _bind_data(self, create: bool) -> None:
        spec = self.spec
        n, k = spec.n, spec.ksize
        self.image = PMatrix(self.machine, "conv.image", n, n, create=create)
        self.kernel = PMatrix(self.machine, "conv.kernel", k, k, create=create)
        self.out = PMatrix(
            self.machine, "conv.out", spec.out_n, spec.out_n, create=create
        )
        if create:
            rng = random.Random(spec.seed)
            self.image.fill(integer_matrix(rng, n, n))
            self.kernel.fill(integer_matrix(rng, k, k, span=2))
        self.expected = self.reference()

    def row_of(self, tid: int, seq: int) -> int:
        """Output row of thread ``tid``'s ``seq``-th region."""
        rb = self.spec.row_block
        block = tid + (seq // rb) * self.num_threads
        return block * rb + seq % rb

    def plan(self, tid: int) -> List[RegionDecl]:
        spec = self.spec
        owned = len(range(tid, spec.num_blocks, self.num_threads))
        decls = []
        for seq in range(owned * spec.row_block):
            i = self.row_of(tid, seq)
            writes = tuple(
                (self.out.addr(i, j), float(value))
                for j, value in enumerate(self.expected[i])
            )
            decls.append(RegionDecl(seq=seq, label=f"row{i}", writes=writes))
        return decls

    def region_body(
        self, tid: int, decl: RegionDecl, ctx: RegionContext
    ) -> ThreadGen:
        i = self.row_of(tid, decl.seq)
        for j in range(self.spec.out_n):
            s = yield from self._pixel(i, j)
            yield from ctx.store(self.out.addr(i, j), s)

    def _pixel(self, i: int, j: int) -> Generator[Op, Optional[float], float]:
        spec = self.spec
        image, kernel = self.image.addr, self.kernel.addr
        s = 0.0
        for di in range(spec.ksize):
            for dj in range(spec.ksize):
                iv = yield Load(image(i + di, j + dj))
                kv = yield Load(kernel(di, dj))
                s += iv * kv
        yield Compute(2 * spec.ksize * spec.ksize)
        return s

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def reference(self) -> np.ndarray:
        img = self.image.to_numpy()
        ker = self.kernel.to_numpy()
        m = self.spec.out_n
        out = np.zeros((m, m))
        # same accumulation order as the kernel, per element: di
        # outer, dj inner
        for di in range(self.spec.ksize):
            for dj in range(self.spec.ksize):
                out += img[di : di + m, dj : dj + m] * ker[di, dj]
        return out

    def output(self, persistent: bool = False) -> np.ndarray:
        return self.out.to_numpy(persistent=persistent)


@register
class Conv2D(RegionWorkload):
    """out = image (*) kernel, valid region, out-of-place."""

    name = "conv2d"
    bound = BoundConv2D
    #: Control flow never depends on loaded values.
    stream_safe = True

    def __init__(
        self,
        n: int = 64,
        ksize: int = 3,
        row_block: int = 4,
        seed: int = 11,
    ) -> None:
        if ksize % 2 != 1 or ksize < 1:
            raise WorkloadError("kernel size must be odd and positive")
        self.out_n = n - ksize + 1
        if self.out_n <= 0:
            raise WorkloadError(f"image {n} too small for kernel {ksize}")
        if self.out_n % row_block != 0:
            raise WorkloadError(
                f"output rows {self.out_n} not divisible by row_block {row_block}"
            )
        self.n = n
        self.ksize = ksize
        self.row_block = row_block
        self.seed = seed
        self.num_blocks = self.out_n // row_block
