"""Tests for tiled matrix multiplication: all variants, crash recovery."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads.tmm import TiledMatMul

N, B = 24, 8  # 3x3 tiles: small enough for fast tests


def machine(num_cores=3, l1=1024, l2=4096):
    """Deliberately tiny caches so evictions (and hence persistence)
    actually happen at test scale."""
    return Machine(
        MachineConfig(
            num_cores=num_cores,
            l1=CacheConfig(l1, 2, hit_cycles=2.0),
            l2=CacheConfig(l2, 4, hit_cycles=11.0),
        )
    )


class TestSpec:
    def test_rejects_indivisible_tile(self):
        with pytest.raises(WorkloadError):
            TiledMatMul(n=20, bsize=8)

    def test_rejects_bad_kk_window(self):
        with pytest.raises(WorkloadError):
            TiledMatMul(n=24, bsize=8, kk_tiles=9)

    def test_unknown_variant(self):
        wl = TiledMatMul(n=N, bsize=B)
        bound = wl.bind(machine(), num_threads=1)
        with pytest.raises(WorkloadError):
            bound.threads("turbo")


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["base", "lp", "ep", "wal"])
    def test_single_thread_exact(self, variant):
        wl = TiledMatMul(n=N, bsize=B)
        m = machine()
        bound = wl.bind(m, num_threads=1)
        m.run(bound.threads(variant))
        assert bound.verify(), f"{variant} output mismatch"

    @pytest.mark.parametrize("variant", ["base", "lp", "ep"])
    @pytest.mark.parametrize("threads", [2, 3])
    def test_multithreaded_exact(self, variant, threads):
        wl = TiledMatMul(n=N, bsize=B)
        m = machine(num_cores=threads)
        bound = wl.bind(m, num_threads=threads)
        m.run(bound.threads(variant))
        assert bound.verify()

    def test_kk_window_partial_product(self):
        wl = TiledMatMul(n=N, bsize=B, kk_tiles=1)
        m = machine()
        bound = wl.bind(m, num_threads=1)
        m.run(bound.threads("base"))
        a, b = bound.a.to_numpy(), bound.b.to_numpy()
        assert np.array_equal(bound.output(), a[:, :B] @ b[:B, :])
        assert bound.verify()

    def test_reference_is_full_matmul(self):
        wl = TiledMatMul(n=N, bsize=B)
        bound = wl.bind(machine(), num_threads=1)
        a, b = bound.a.to_numpy(), bound.b.to_numpy()
        assert np.array_equal(bound.reference(), a @ b)

    def test_inputs_are_durable(self):
        wl = TiledMatMul(n=N, bsize=B)
        bound = wl.bind(machine(), num_threads=1)
        assert np.array_equal(bound.a.to_numpy(persistent=True), bound.a.to_numpy())


class TestVariantCostShape:
    """The qualitative Figure 10 ordering must hold even at test scale."""

    def run_variant(self, variant, threads=2):
        wl = TiledMatMul(n=N, bsize=B)
        m = machine(num_cores=threads)
        bound = wl.bind(m, num_threads=threads)
        res = m.run(bound.threads(variant))
        return res

    def test_lp_exec_close_to_base(self):
        base = self.run_variant("base").exec_cycles
        lp = self.run_variant("lp").exec_cycles
        assert lp / base < 1.10

    def test_ep_flushes_lp_does_not(self):
        ep = self.run_variant("ep")
        lp = self.run_variant("lp")
        assert ep.stats.writes_by_cause.get("flush", 0) > 0
        assert lp.stats.writes_by_cause.get("flush", 0) == 0

    def test_wal_is_most_expensive(self):
        base = self.run_variant("base")
        wal = self.run_variant("wal")
        assert wal.exec_cycles > 2 * base.exec_cycles
        assert wal.nvmm_writes > 2 * base.nvmm_writes

    def test_lp_adds_no_fences(self):
        lp = self.run_variant("lp")
        assert all(c.fences == 0 for c in lp.stats.per_core)


class TestCrashRecovery:
    def crash_recover(self, at_op, threads=2, at_mark=None):
        wl = TiledMatMul(n=N, bsize=B)
        m = machine(num_cores=threads)
        bound = wl.bind(m, num_threads=threads)
        plan = CrashPlan(at_op=at_op) if at_mark is None else CrashPlan(at_mark=at_mark)
        result, post = run_with_crash(m, bound.threads("lp"), plan)
        rebound = wl.bind(post, num_threads=threads, create=False)
        rres = post.run(rebound.recovery_threads("lp"))
        return result, rres, rebound

    @pytest.mark.parametrize(
        "at_op", [1, 137, 1000, 5000, 12000, 20000, 30000]
    )
    def test_exact_output_after_any_crash_point(self, at_op):
        result, rres, rebound = self.crash_recover(at_op)
        assert result.crashed
        assert rebound.verify(), f"recovery failed for crash at op {at_op}"

    def test_crash_at_region_boundary(self):
        result, rres, rebound = self.crash_recover(None, at_mark=4)
        assert result.crashed
        assert rebound.verify()

    def test_recovery_output_is_durable(self):
        _, _, rebound = self.crash_recover(5000)
        # recovery resumes with LP; drain the post-crash machine and
        # check the persistent image as well
        rebound.machine.drain()
        assert rebound.verify(persistent=True)

    def test_recovery_cost_shrinks_with_progress_when_persisted(self):
        """With a cleaner keeping data durable, crashing later must
        leave less work to redo."""
        from repro.sim.cleaner import PeriodicCleaner

        costs = []
        for at_op in (2000, 30000):
            wl = TiledMatMul(n=N, bsize=B)
            m = machine(num_cores=2)
            m.cleaner = PeriodicCleaner(2000.0)
            bound = wl.bind(m, num_threads=2)
            result, post = run_with_crash(
                m, bound.threads("lp"), CrashPlan(at_op=at_op)
            )
            assert result.crashed
            rebound = wl.bind(post, num_threads=2, create=False)
            rres = post.run(rebound.recovery_threads("lp"))
            assert rebound.verify()
            costs.append(rres.ops_executed)
        assert costs[1] < costs[0]

    def test_double_crash_recovery(self):
        """Crash during recovery; recover again; still exact."""
        wl = TiledMatMul(n=N, bsize=B)
        m = machine(num_cores=2)
        bound = wl.bind(m, num_threads=2)
        _, post1 = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=9000))

        rebound1 = wl.bind(post1, num_threads=2, create=False)
        res2 = post1.run(rebound1.recovery_threads("lp"), crash_at_op=7000)
        assert res2.crashed
        post2 = post1.after_crash()

        rebound2 = wl.bind(post2, num_threads=2, create=False)
        post2.run(rebound2.recovery_threads("lp"))
        assert rebound2.verify()

    def test_no_crash_recovery_is_safe(self):
        """Running recovery on a cleanly finished machine must keep the
        output correct (regions all match, nothing recomputed wrongly)."""
        wl = TiledMatMul(n=N, bsize=B)
        m = machine(num_cores=2)
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        m.drain()
        post = m.after_crash()  # graceful: NVMM == final state
        rebound = wl.bind(post, num_threads=2, create=False)
        post.run(rebound.recovery_threads("lp"))
        assert rebound.verify()
