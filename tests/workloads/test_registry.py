"""Tests for the workload registry."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import available_workloads, get_workload
from repro.workloads.base import Workload


class TestRegistry:
    def test_all_table5_benchmarks_present(self):
        assert available_workloads() == [
            "cholesky",
            "conv2d",
            "fft",
            "gauss",
            "hashmap",
            "log",
            "tmm",
        ]

    def test_lookup_returns_workload_class(self):
        cls = get_workload("tmm")
        assert issubclass(cls, Workload)
        assert cls.name == "tmm"

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            get_workload("linpack")

    def test_every_workload_has_lp_and_base(self):
        for name in available_workloads():
            cls = get_workload(name)
            assert "base" in cls.variants
            assert "lp" in cls.variants
            assert "ep" in cls.variants

    def test_wal_support(self):
        # tmm implements WAL natively; conv2d and the storage workloads
        # inherit it (and every other scheme) from the scheme layer.
        # cholesky has none: other threads read a region's diagonal
        # store before the region ends, and WAL defers it.
        for name in available_workloads():
            cls = get_workload(name)
            expected = name in ("tmm", "conv2d", "log", "hashmap")
            assert ("wal" in cls.variants) == expected
