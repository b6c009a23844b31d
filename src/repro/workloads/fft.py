"""Fast Fourier Transform (Table V: "100k nodes vector FFT").

Radix-2 **Stockham autosort** FFT over a complex vector, double-
buffered: stage ``s`` reads buffer ``s % 2`` and writes buffer
``(s+1) % 2``, so no in-place bit-reversal is needed and every stage's
output is a complete, freshly written buffer — ideal LP-region
structure.  Values are stored interleaved (re at ``2i``, im at
``2i+1``).

* LP region: (stage, thread) — each thread checksums every value it
  writes during a stage; a Barrier separates stages.
* Recovery: scan stages from last to first for the highest stage whose
  regions **all** match (that buffer then holds exactly that stage's
  output); resume after it.  If no stage survives — the ping-pong
  means a partially-run stage ``s+2`` may have corrupted stage ``s``'s
  buffer — restore buffer 0 from the pristine input and replay from
  stage 0.  Either way recovery is sound under repeated crashes.
"""

from __future__ import annotations

import cmath
import random
from typing import Generator, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.sim.isa import Barrier, Compute, Fence, Load, Op, RegionMark, Store
from repro.sim.machine import ThreadGen
from repro.core.eager import (
    durable_store,
    persist_region,
    progress_markers,
    writeback_addrs,
)
from repro.core.lazy import LPRuntime
from repro.core.region import RegionChecksum
from repro.workloads.arrays import PArray
from repro.schemes import SCHEME_BASE, SCHEME_EP, SCHEME_LP
from repro.workloads.base import (
    BoundWorkload,
    Workload,
)
from repro.workloads.registry import register


class BoundFFT(BoundWorkload):
    def __init__(self, spec, machine, num_threads, engine, create):
        super().__init__(spec, machine, num_threads, engine)
        n = spec.n
        self.pristine = PArray(machine, "fft.p", 2 * n, create=create)
        self.bufs = [
            PArray(machine, "fft.buf0", 2 * n, create=create),
            PArray(machine, "fft.buf1", 2 * n, create=create),
        ]
        self.lp = LPRuntime(
            machine,
            "fft.cktab",
            dims=(spec.stages, num_threads),
            engine=engine,
            create=create,
        )
        self.markers = progress_markers(machine, "fft", num_threads, create)
        if create:
            rng = random.Random(spec.seed)
            data = [float(rng.randint(-8, 8)) for _ in range(2 * n)]
            self.pristine.fill(data)
            self.bufs[0].fill(data)

    # ------------------------------------------------------------------
    # stage geometry
    # ------------------------------------------------------------------

    def stage_params(self, stage: int) -> Tuple[int, int]:
        """(l, m) for a stage: l butterfly groups of span m."""
        groups = 1 << stage
        m = self.spec.n >> (stage + 1)
        return groups, m

    def my_butterflies(self, tid: int, stage: int) -> range:
        """Contiguous chunk of the n/2 butterfly indices owned by tid."""
        total = self.spec.n // 2
        per = total // self.num_threads
        extra = total % self.num_threads
        lo = tid * per + min(tid, extra)
        hi = lo + per + (1 if tid < extra else 0)
        return range(lo, hi)

    # ------------------------------------------------------------------
    # normal execution
    # ------------------------------------------------------------------

    def threads(self, variant: str) -> List[ThreadGen]:
        self.spec.check_variant(variant)
        return [
            self._worker(variant, tid, start_stage=0)
            for tid in range(self.num_threads)
        ]

    def _worker(self, variant: str, tid: int, start_stage: int) -> ThreadGen:
        for stage in range(start_stage, self.spec.stages):
            yield from self.tag(f"stage{stage}")
            yield RegionMark(f"fft:{variant}:s{stage}:t{tid}")
            yield from self._stage(variant, tid, stage)
            yield from self.tag()
            yield Barrier()

    def _stage(
        self, variant: str, tid: int, stage: int
    ) -> Generator[Op, Optional[float], None]:
        # complex element i lives at (re, im) = elements (2i, 2i + 1)
        src = self.bufs[stage % 2].addr
        dst = self.bufs[(stage + 1) % 2].addr
        groups, m = self.stage_params(stage)
        ck: Optional[RegionChecksum] = None
        if variant == SCHEME_LP:
            ck = self.lp.begin_region()
        written: List[int] = []
        in_tile = 0

        for t in self.my_butterflies(tid, stage):
            p, q = t // m, t % m
            ia, ib = 2 * (q + m * (2 * p)), 2 * (q + m * (2 * p + 1))
            a_re = yield Load(src(ia))
            a_im = yield Load(src(ia + 1))
            b_re = yield Load(src(ib))
            b_im = yield Load(src(ib + 1))
            a, b = complex(a_re, a_im), complex(b_re, b_im)
            w = cmath.exp(-2j * cmath.pi * p / (2 * groups))
            top = a + w * b
            bot = a - w * b
            yield Compute(10)  # twiddle multiply + two complex adds
            it, ibot = 2 * (q + m * p), 2 * (q + m * (p + groups))
            outs = (
                (dst(it), top.real),
                (dst(it + 1), top.imag),
                (dst(ibot), bot.real),
                (dst(ibot + 1), bot.imag),
            )
            for addr, v in outs:
                yield Store(addr, v)
            if ck is not None:
                for _, v in outs:
                    yield ck.update(v)
            if variant == SCHEME_EP:
                written.extend(addr for addr, _ in outs)
                in_tile += 1
                if in_tile >= self.EP_TILE:
                    # EagerRecompute: one transaction per tile — flush
                    # the tile's output, fence, bump the marker durably
                    yield from self._ep_tile_commit(tid, stage, written)
                    written = []
                    in_tile = 0

        if variant == SCHEME_LP:
            assert ck is not None
            yield from self.lp.commit(ck, stage, tid)
        elif variant == SCHEME_EP and written:
            yield from self._ep_tile_commit(tid, stage, written)

    #: butterflies per EagerRecompute transaction tile
    EP_TILE = 16

    def _ep_tile_commit(
        self, tid: int, stage: int, written: List[int]
    ) -> Generator[Op, Optional[float], None]:
        # clwb, not clflushopt: this stage's output is the next stage's
        # input (see core.eager.writeback_addrs)
        yield from writeback_addrs(written)
        yield Fence()
        yield from durable_store(self.markers[tid].base, float(stage))

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recovery_threads(self, variant: str) -> List[ThreadGen]:
        # One conservative path for every variant: the checksum scan
        # finds the highest intact stage, and when nothing survives —
        # always the case for ep, which commits no checksums — buffer 0
        # is restored from the pristine input and the transform replays
        # from stage 0.  Sound on any reachable image.
        self.spec.check_variant(variant)
        return [self._recover(tid) for tid in range(self.num_threads)]

    def _recover(self, tid: int) -> ThreadGen:
        yield RegionMark(f"fft:recover:t{tid}")
        # highest stage whose output buffer is fully consistent
        survivor: Optional[int] = None
        for stage in reversed(range(self.spec.stages)):
            all_match = True
            for t in range(self.num_threads):
                matches = yield from self.lp.region_matches(
                    self._region_addrs(stage, t),
                    self.lp.table.slot_addr(stage, t),
                )
                if not matches:
                    all_match = False
                    break
            if all_match:
                survivor = stage
                break

        if survivor is None and tid == 0:
            # restore buffer 0 from the pristine input, eagerly
            pristine, buf0 = self.pristine.addr, self.bufs[0].addr
            for i in range(2 * self.spec.n):
                v = yield Load(pristine(i))
                yield Store(buf0(i), v)
            yield from persist_region(list(self.bufs[0].region.element_addrs()))
        yield Barrier()

        resume_from = 0 if survivor is None else survivor + 1
        yield from self._worker(SCHEME_LP, tid, start_stage=resume_from)

    def _region_addrs(self, stage: int, tid: int) -> Iterator[int]:
        """Addresses of region (stage, tid)'s values, in checksum order:
        per butterfly, top re/im then bottom re/im."""
        addr = self.bufs[(stage + 1) % 2].addr
        groups, m = self.stage_params(stage)
        for t in self.my_butterflies(tid, stage):
            p, q = t // m, t % m
            for idx in (q + m * p, q + m * (p + groups)):
                yield addr(2 * idx)
                yield addr(2 * idx + 1)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def _replay(self) -> List[complex]:
        """Bit-exact reference: same arithmetic, same order, in Python."""
        n = self.spec.n
        flat = self.pristine.to_numpy()
        src = [complex(flat[2 * i], flat[2 * i + 1]) for i in range(n)]
        dst = [0j] * n
        for stage in range(self.spec.stages):
            groups, m = self.stage_params(stage)
            for t in range(n // 2):
                p, q = t // m, t % m
                a = src[q + m * (2 * p)]
                b = src[q + m * (2 * p + 1)]
                w = cmath.exp(-2j * cmath.pi * p / (2 * groups))
                dst[q + m * p] = a + w * b
                dst[q + m * (p + groups)] = a - w * b
            src, dst = dst, src
        return src

    def reference(self) -> np.ndarray:
        out = self._replay()
        flat = np.empty(2 * self.spec.n)
        for i, c in enumerate(out):
            flat[2 * i] = c.real
            flat[2 * i + 1] = c.imag
        return flat

    def output(self, persistent: bool = False) -> np.ndarray:
        final = self.bufs[self.spec.stages % 2]
        return final.to_numpy(persistent=persistent)

    def output_complex(self, persistent: bool = False) -> np.ndarray:
        """The transform as a complex numpy vector."""
        flat = self.output(persistent=persistent)
        return flat[0::2] + 1j * flat[1::2]


@register
class FFT(Workload):
    """X = FFT(x) by radix-2 Stockham, double-buffered."""

    name = "fft"
    bound = BoundFFT
    variants = (SCHEME_BASE, SCHEME_LP, SCHEME_EP)

    def __init__(self, n: int = 256, seed: int = 23) -> None:
        if n < 2 or n & (n - 1):
            raise WorkloadError(f"FFT size {n} must be a power of two >= 2")
        self.n = n
        self.stages = n.bit_length() - 1
        self.seed = seed
