"""Tests for the 2-D convolution workload."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads.conv2d import Conv2D


def machine(cores=3):
    return Machine(
        MachineConfig(
            num_cores=cores,
            l1=CacheConfig(1024, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 4, hit_cycles=11.0),
        )
    )


class TestSpec:
    def test_even_kernel_rejected(self):
        with pytest.raises(WorkloadError):
            Conv2D(n=20, ksize=4)

    def test_kernel_too_big(self):
        with pytest.raises(WorkloadError):
            Conv2D(n=3, ksize=5)

    def test_row_block_divisibility(self):
        with pytest.raises(WorkloadError):
            Conv2D(n=20, ksize=3, row_block=7)

    def test_output_shape(self):
        spec = Conv2D(n=20, ksize=3, row_block=3)
        assert spec.out_n == 18
        assert spec.num_blocks == 6


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["base", "lp", "ep"])
    def test_exact(self, variant):
        wl = Conv2D(n=20, ksize=3, row_block=3)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads(variant))
        assert bound.verify()

    def test_reference_matches_scipy_style_conv(self):
        wl = Conv2D(n=12, ksize=3, row_block=2)
        bound = wl.bind(machine(), num_threads=1)
        img, ker = bound.image.to_numpy(), bound.kernel.to_numpy()
        ref = bound.reference()
        # cross-correlation of valid region
        manual = np.zeros_like(ref)
        for i in range(ref.shape[0]):
            for j in range(ref.shape[1]):
                manual[i, j] = np.sum(img[i : i + 3, j : j + 3] * ker)
        assert np.allclose(ref, manual)

    def test_reference_is_exactly_the_per_element_loop(self):
        # The vectorized reference must keep the kernel's per-element
        # accumulation order (di outer, dj inner), bit for bit: region
        # write-sets are read off it.
        wl = Conv2D(n=12, ksize=3, row_block=2)
        bound = wl.bind(machine(), num_threads=1)
        img, ker = bound.image.to_numpy(), bound.kernel.to_numpy()
        loop = np.zeros((wl.out_n, wl.out_n))
        for i in range(wl.out_n):
            for j in range(wl.out_n):
                s = 0.0
                for di in range(wl.ksize):
                    for dj in range(wl.ksize):
                        s += img[i + di, j + dj] * ker[di, dj]
                loop[i, j] = s
        assert bound.reference().tobytes() == loop.tobytes()

    def test_single_thread(self):
        wl = Conv2D(n=20, ksize=3, row_block=3)
        m = machine()
        bound = wl.bind(m, num_threads=1)
        m.run(bound.threads("lp"))
        assert bound.verify()


class TestCrashRecovery:
    @pytest.mark.parametrize("at_op", [10, 500, 2000, 4000, 6000])
    def test_recovery_exact(self, at_op):
        wl = Conv2D(n=20, ksize=3, row_block=3)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        res, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
        if not res.crashed:
            pytest.skip("workload finished before crash point")
        rb = wl.bind(post, num_threads=2, create=False)
        post.run(rb.recovery_threads("lp"))
        assert rb.verify()

    def test_idempotent_recovery_skips_consistent_blocks(self):
        """After drain, every region matches: recovery redoes nothing."""
        wl = Conv2D(n=20, ksize=3, row_block=3)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        m.drain()
        post = m.after_crash()
        rb = wl.bind(post, num_threads=2, create=False)
        marks = []
        post.on_mark = lambda mark, cid, clock: marks.append(mark.label)
        post.run(rb.recovery_threads("lp"))
        assert any(":recover:" in mark for mark in marks)
        assert not any(":redo:" in mark for mark in marks)
        assert rb.verify()
