"""Tests for the Cholesky factorisation workload."""

import math

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads.cholesky import Cholesky
from tests.workloads.conftest import run_with_marks


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
            Cholesky(n=18, col_block=4)


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["base", "lp", "ep"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_exact(self, variant, threads):
        wl = Cholesky(n=16, col_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=threads)
        m.run(bound.threads(variant))
        assert bound.verify()

    @pytest.mark.parametrize("variant", ["lp", "ep", "write_behind"])
    def test_threads_out_of_rows_stop_early(self, variant):
        # With more threads than columns per block, some threads own no
        # element of the last blocks: their plans end early, and the
        # remaining barriers wait only for the threads still running.
        wl = Cholesky(n=8, col_block=2)
        m = machine(cores=5)
        bound = wl.bind(m, num_threads=4)
        assert [len(plan) for plan in bound.plans] == [3, 3, 4, 4]
        m.run(bound.threads(variant))
        assert bound.verify()

    def test_factorisation_property(self):
        """L @ L.T reconstructs the SPD input."""
        wl = Cholesky(n=16, col_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        low = np.tril(bound.output())
        p = bound.pristine.to_numpy()
        assert np.allclose(low @ low.T, p)

    def test_matches_numpy_cholesky(self):
        wl = Cholesky(n=16, col_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=1)
        m.run(bound.threads("base"))
        want = np.linalg.cholesky(bound.pristine.to_numpy())
        assert np.allclose(np.tril(bound.output()), want)

    def test_reference_is_exactly_the_per_element_loop(self):
        # The column-vectorized reference must keep the kernel's
        # per-element operation order, bit for bit: region write-sets
        # are read off it.
        wl = Cholesky(n=16, col_block=4)
        bound = wl.bind(machine(), num_threads=1)
        p = bound.pristine.to_numpy()
        low = np.zeros((wl.n, wl.n))
        for j in range(wl.n):
            s = p[j, j]
            for k in range(j):
                s -= low[j, k] * low[j, k]
            low[j, j] = math.sqrt(s)
            for i in range(j + 1, wl.n):
                s = p[i, j]
                for k in range(j):
                    s -= low[i, k] * low[j, k]
                low[i, j] = s / low[j, j]
        assert bound.reference().tobytes() == low.tobytes()


class TestCrashRecovery:
    @pytest.mark.parametrize("at_op", [10, 400, 1200, 1700])
    def test_recovery_exact(self, at_op):
        wl = Cholesky(n=16, col_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        res, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
        if not res.crashed:
            pytest.skip("finished before crash point")
        rb = wl.bind(post, num_threads=2)
        post.run(rb.recovery_threads("lp"))
        assert rb.verify()

    def test_recovery_after_drain_repairs_nothing(self):
        wl = Cholesky(n=16, col_block=4)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        m.drain()
        post = m.after_crash()
        rb = wl.bind(post, num_threads=2)
        _, marks = run_with_marks(post, rb.recovery_threads("lp"))
        assert any(":recover:" in mark for mark in marks)
        assert not any(":redo:" in mark for mark in marks)
        assert rb.verify()
