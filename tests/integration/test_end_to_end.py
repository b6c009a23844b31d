"""End-to-end integration: the full experiment pipeline on every
Table V workload at test scale.

These tests exercise the same paths the benchmark harness uses —
workload registry -> bind -> run -> verify -> (crash -> recover) —
across all five kernels, which is the reproduction's core claim:
Lazy Persistency is near-free in the failure-free case and exactly
recoverable in the failure case.
"""

import pytest

from repro.analysis.experiments import compare_variants, run_variant
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan
from repro.verify import check_variant
from repro.workloads import available_workloads, get_workload

TEST_SPECS = {
    "tmm": dict(n=24, bsize=8),
    "cholesky": dict(n=16, col_block=4),
    "conv2d": dict(n=20, ksize=3, row_block=3),
    "gauss": dict(n=16, row_block=4),
    "fft": dict(n=64),
    "log": dict(records=24, width=4, wb_batch=4),
    "hashmap": dict(capacity=32, ops=48, keys=8, wb_batch=4),
}


def config(cores=3):
    # L2 of 8KB: big enough that the tiny test problems are not in a
    # pure-thrash regime (where clflushopt's invalidations act as a
    # cache-bypass hint and distort the LP-vs-EP comparison)
    return MachineConfig(
        num_cores=cores,
        l1=CacheConfig(1024, 2, hit_cycles=2.0),
        l2=CacheConfig(8192, 4, hit_cycles=11.0),
    )


def make(name):
    return get_workload(name)(**TEST_SPECS[name])


class TestAllWorkloadsAllVariants:
    @pytest.mark.parametrize("name", sorted(TEST_SPECS))
    def test_base_lp_ep_verified(self, name):
        results = compare_variants(
            make(name), config(), ["base", "lp", "ep"], num_threads=2
        )
        assert all(r.verified for r in results.values())

    @pytest.mark.parametrize("name", sorted(TEST_SPECS))
    def test_lp_cheaper_than_ep(self, name):
        results = compare_variants(
            make(name), config(), ["base", "lp", "ep"], num_threads=2
        )
        lp = results["lp"].exec_cycles / results["base"].exec_cycles
        ep = results["ep"].exec_cycles / results["base"].exec_cycles
        assert lp < ep, f"{name}: LP ({lp:.3f}) must beat EP ({ep:.3f})"

    @pytest.mark.parametrize("name", sorted(TEST_SPECS))
    def test_lp_adds_no_flushes(self, name):
        res = run_variant(make(name), config(), "lp", num_threads=2)
        assert res.writes_by_cause.get("flush", 0) == 0

    @pytest.mark.parametrize("name", sorted(TEST_SPECS))
    def test_ep_flushes(self, name):
        res = run_variant(make(name), config(), "ep", num_threads=2)
        flushed = res.writes_by_cause.get("flush", 0)
        flushed += res.writes_by_cause.get("flushwb", 0)
        assert flushed > 0 or "flush" in res.writes_by_cause


def crash_campaign(name, crash_points, **kwargs):
    """LP crashed at each op count; the one image each crash left is
    recovered and verified."""
    return check_variant(
        make(name),
        config(),
        "lp",
        [CrashPlan(at_op=op) for op in crash_points],
        plan=None,
        num_threads=2,
        **kwargs,
    )


class TestCrashCampaignsAllWorkloads:
    @pytest.mark.parametrize("name", sorted(TEST_SPECS))
    def test_recovery_exact_everywhere(self, name):
        report = crash_campaign(name, [7, 250, 900, 2200])
        assert report.ok, f"{name}: recovery failed at some crash point"

    @pytest.mark.parametrize("name", sorted(TEST_SPECS))
    def test_recovery_with_cleaner(self, name):
        report = crash_campaign(name, [600], cleaner_period=300.0)
        assert report.ok


class TestRegistryCoverage:
    def test_specs_cover_registry(self):
        assert sorted(TEST_SPECS) == available_workloads()
