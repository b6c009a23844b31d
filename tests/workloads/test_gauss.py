"""Tests for the Gaussian elimination workload."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads.gauss import GaussElimination


def machine(cores=3):
    return Machine(
        MachineConfig(
            num_cores=cores,
            l1=CacheConfig(1024, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 4, hit_cycles=11.0),
        )
    )


class TestSpec:
    def test_divisibility(self):
        with pytest.raises(WorkloadError):
            GaussElimination(n=18, row_block=4)

    def test_pivot_window(self):
        with pytest.raises(WorkloadError):
            GaussElimination(n=16, row_block=4, pivots=16)
        assert GaussElimination(n=16, row_block=4, pivots=4).pivots == 4
        assert GaussElimination(n=16, row_block=4).pivots == 15


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["base", "lp", "ep"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_exact(self, variant, threads):
        wl = GaussElimination(n=16, row_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=threads)
        m.run(bound.threads(variant))
        assert bound.verify()

    def test_elimination_produces_upper_triangular_u(self):
        wl = GaussElimination(n=16, row_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("base"))
        a = bound.output()
        p = bound.pristine.to_numpy()
        # reconstruct: L (unit lower from factors) @ U == P
        n = 16
        low = np.tril(a, -1) + np.eye(n)
        u = np.triu(a)
        assert np.allclose(low @ u, p)

    def test_pivot_window_partial(self):
        wl = GaussElimination(n=16, row_block=4, pivots=3)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        assert bound.verify()

    def test_pristine_never_written(self):
        wl = GaussElimination(n=16, row_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        before = bound.pristine.to_numpy().copy()
        m.run(bound.threads("lp"))
        assert np.array_equal(bound.pristine.to_numpy(), before)


class TestCrashRecovery:
    @pytest.mark.parametrize("at_op", [5, 300, 1500, 3000, 4500])
    def test_recovery_exact(self, at_op):
        wl = GaussElimination(n=16, row_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        res, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
        if not res.crashed:
            pytest.skip("finished before crash point")
        rb = wl.bind(post, num_threads=2, create=False)
        post.run(rb.recovery_threads("lp"))
        assert rb.verify()

    def test_double_crash(self):
        wl = GaussElimination(n=16, row_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        _, post1 = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=2500))
        rb1 = wl.bind(post1, num_threads=2, create=False)
        res2 = post1.run(rb1.recovery_threads("lp"), crash_at_op=2000)
        assert res2.crashed
        post2 = post1.after_crash()
        rb2 = wl.bind(post2, num_threads=2, create=False)
        post2.run(rb2.recovery_threads("lp"))
        assert rb2.verify()
