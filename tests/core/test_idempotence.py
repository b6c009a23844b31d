"""Tests for the idempotent-region analysis (section III-E)."""

import pytest

from repro.core.idempotence import (
    RegionFootprint,
    analyze_trace,
    classify_workload,
)
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.isa import Compute, Load, RegionMark, Store
from repro.sim.machine import Machine
from repro.workloads import get_workload


def machine(cores=2):
    return Machine(
        MachineConfig(
            num_cores=cores,
            l1=CacheConfig(1024, 2, hit_cycles=2.0),
            l2=CacheConfig(8192, 4, hit_cycles=11.0),
        )
    )


class TestFootprint:
    def test_pure_producer_is_idempotent(self):
        fp = RegionFootprint("r")
        fp.observe(Load(64))
        fp.observe(Store(128, 1.0))
        assert fp.is_idempotent

    def test_read_then_write_violates(self):
        fp = RegionFootprint("r")
        fp.observe(Load(64))
        fp.observe(Store(64, 1.0))
        assert not fp.is_idempotent
        assert fp.overwritten_live_ins == {64}

    def test_write_then_read_is_fine(self):
        """Reading your own output is regenerated on re-execution."""
        fp = RegionFootprint("r")
        fp.observe(Store(64, 1.0))
        fp.observe(Load(64))
        assert fp.is_idempotent

    def test_counters(self):
        fp = RegionFootprint("r")
        fp.observe(Load(64))
        fp.observe(Store(64, 1.0))
        fp.observe(Store(72, 2.0))
        assert fp.loads == 1
        assert fp.store_ops == 2


class TestAnalyzeTrace:
    def test_splits_at_marks(self):
        report = analyze_trace(
            [
                RegionMark("r0"),
                Store(64, 1.0),
                RegionMark("r1"),
                Load(64),
                Store(64, 2.0),
            ]
        )
        assert [r.label for r in report.regions] == ["r0", "r1"]
        assert report.regions[0].is_idempotent
        assert not report.regions[1].is_idempotent
        assert not report.all_idempotent
        assert report.summary() == {
            "regions": 2,
            "idempotent": 1,
            "violating": 1,
        }

    def test_preamble_region(self):
        report = analyze_trace([Store(64, 1.0), RegionMark("r0"), Load(64)])
        assert report.regions[0].label == "<preamble>"

    def test_compute_ops_ignored(self):
        report = analyze_trace([RegionMark("r0"), Compute(4)])
        assert report.regions[0].loads == 0


class TestWorkloadClassification:
    """The analysis must reproduce the recovery-strategy split the
    workloads implement (docs/recovery.md)."""

    @pytest.mark.parametrize(
        "name,kwargs,expect_idempotent",
        [
            ("conv2d", dict(n=12, ksize=3, row_block=2), True),
            ("fft", dict(n=32), True),
            ("cholesky", dict(n=8, col_block=4), True),
            ("tmm", dict(n=16, bsize=8), False),
            ("gauss", dict(n=8, row_block=4), False),
        ],
    )
    def test_classification(self, name, kwargs, expect_idempotent):
        wl = get_workload(name)(**kwargs)
        report = classify_workload(wl, machine(), num_threads=1)
        assert report.regions, "no regions observed"
        assert report.all_idempotent == expect_idempotent, (
            f"{name}: expected all_idempotent={expect_idempotent}, "
            f"got {report.summary()}"
        )

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("conv2d", dict(n=12, ksize=3, row_block=2)),
            ("tmm", dict(n=16, bsize=8)),
            ("gauss", dict(n=8, row_block=4)),
        ],
    )
    def test_two_threads_see_the_one_thread_regions(self, name, kwargs):
        # These kernels cut the same regions at any thread count, so
        # splitting a two-core recording by core must give back every
        # region with the footprint counts of a one-thread run.
        def regions(num_threads):
            wl = get_workload(name)(**kwargs)
            report = classify_workload(wl, machine(), num_threads=num_threads)
            return sorted(
                (r.label, r.is_idempotent, r.loads, r.store_ops)
                for r in report.regions
            )

        two = regions(2)
        assert len(two) > 1
        assert two == regions(1)

    def test_tmm_violations_are_the_c_accumulations(self):
        wl = get_workload("tmm")(n=16, bsize=8)
        bound_probe = wl.bind(machine(), num_threads=1)
        c_addrs = set(bound_probe.c.region.element_addrs())

        wl2 = get_workload("tmm")(n=16, bsize=8)
        report = classify_workload(wl2, machine(), num_threads=1)
        for region in report.violating_regions:
            assert region.overwritten_live_ins <= c_addrs
