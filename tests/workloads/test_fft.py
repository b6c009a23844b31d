"""Tests for the FFT workload."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads.fft import FFT


def machine(cores=3):
    return Machine(
        MachineConfig(
            num_cores=cores,
            l1=CacheConfig(1024, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 4, hit_cycles=11.0),
        )
    )


class TestSpec:
    def test_power_of_two_required(self):
        with pytest.raises(WorkloadError):
            FFT(n=96)
        with pytest.raises(WorkloadError):
            FFT(n=1)

    def test_stage_count(self):
        assert FFT(n=64).stages == 6

    def test_stage_params(self):
        wl = FFT(n=16)
        # groups double, m halves, groups*m == n/2 at every stage
        spec = wl
        b = wl.bind(machine(), num_threads=1)
        for s in range(spec.stages):
            groups, m = b.stage_params(s)
            assert groups * m == spec.n // 2


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["base", "lp", "ep"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_exact_vs_replay(self, variant, threads):
        wl = FFT(n=64)
        m = machine()
        bound = wl.bind(m, num_threads=threads)
        m.run(bound.threads(variant))
        assert bound.verify()

    def test_matches_numpy_fft(self):
        wl = FFT(n=128)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("base"))
        flat = bound.pristine.to_numpy()
        x = flat[0::2] + 1j * flat[1::2]
        assert np.allclose(bound.output_complex(), np.fft.fft(x))

    def test_butterfly_partition_covers_all(self):
        wl = FFT(n=64)
        b = wl.bind(machine(), num_threads=3)
        covered = []
        for tid in range(3):
            covered.extend(b.my_butterflies(tid, 0))
        assert sorted(covered) == list(range(32))


class TestCrashRecovery:
    @pytest.mark.parametrize("at_op", [5, 300, 900, 1500, 2200])
    def test_recovery_exact(self, at_op):
        wl = FFT(n=64)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        res, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
        if not res.crashed:
            pytest.skip("finished before crash point")
        rb = wl.bind(post, num_threads=2)
        post.run(rb.recovery_threads("lp"))
        assert rb.verify()

    def test_recovery_resumes_from_survivor_stage(self):
        """With everything drained mid-run... approximate by draining
        after completion: recovery should resume past the last stage
        (i.e. recompute nothing)."""
        wl = FFT(n=64)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        m.drain()
        post = m.after_crash()
        rb = wl.bind(post, num_threads=2)
        rres = post.run(rb.recovery_threads("lp"))
        assert rb.verify()
        # scan only: far fewer ops than a full re-run
        full = 64 // 2 * wl.stages * 8
        assert rres.ops_executed < full * 3
