"""Tests for the experiment runner."""

import pytest

from repro.errors import WorkloadError
from repro.analysis.experiments import compare_variants, run_variant
from repro.sim.config import CacheConfig, MachineConfig
from repro.workloads.tmm import BoundTMM, TiledMatMul


def config(cores=3):
    return MachineConfig(
        num_cores=cores,
        l1=CacheConfig(1024, 2, hit_cycles=2.0),
        l2=CacheConfig(4096, 4, hit_cycles=11.0),
    )


def tmm():
    return TiledMatMul(n=16, bsize=8)


class TestRunVariant:
    def test_returns_metrics(self):
        res = run_variant(tmm(), config(), "lp", num_threads=2)
        assert res.workload == "tmm"
        assert res.variant == "lp"
        assert res.exec_cycles > 0
        assert res.verified
        assert set(res.hazards) == {"mshr", "fui", "fur", "fuw"}

    def test_verification_failure_raises(self, monkeypatch):
        # Every point verifies: shift the reference so the exact
        # comparison cannot match, and the run must fail loudly.
        reference = BoundTMM.reference
        monkeypatch.setattr(
            BoundTMM, "reference", lambda bound: reference(bound) + 1.0
        )
        with pytest.raises(WorkloadError, match="wrong result"):
            run_variant(tmm(), config(), "base", num_threads=1)

    def test_thread_count_validated(self):
        with pytest.raises(WorkloadError):
            run_variant(tmm(), config(cores=2), "lp", num_threads=4)

    def test_unknown_variant_rejected(self):
        with pytest.raises(WorkloadError):
            run_variant(tmm(), config(), "hyper", num_threads=1)

    def test_cleaner_period_counts_writes(self):
        res = run_variant(
            tmm(), config(), "lp", num_threads=2, cleaner_period=500.0
        )
        assert res.cleaner_writes > 0

    def test_normalized_to(self):
        base = run_variant(tmm(), config(), "base", num_threads=2)
        lp = run_variant(tmm(), config(), "lp", num_threads=2)
        norm = lp.normalized_to(base)
        assert norm["exec_time"] == pytest.approx(
            lp.exec_cycles / base.exec_cycles
        )


class TestCompareVariants:
    def test_runs_all(self):
        out = compare_variants(
            tmm(), config(), ["base", "lp"], num_threads=2
        )
        assert set(out) == {"base", "lp"}
        assert all(r.verified for r in out.values())
