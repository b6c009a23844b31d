"""Unit tests for repro.sim.config."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    MachineConfig,
    NVMMConfig,
    ELEMS_PER_LINE,
    LINE_BYTES,
    paper_machine,
    real_system_machine,
    scaled_machine,
)


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig(64 * 1024, 8, hit_cycles=2.0)
        assert cfg.num_sets == 128
        assert cfg.num_lines == 1024

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(0, 8, hit_cycles=2.0)

    def test_rejects_nonpositive_ways(self):
        with pytest.raises(ConfigError):
            CacheConfig(1024, 0, hit_cycles=2.0)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(1000, 8, hit_cycles=2.0)

    def test_line_constants(self):
        assert LINE_BYTES == 64
        assert ELEMS_PER_LINE == 8


class TestNVMMConfig:
    def test_defaults_match_table2(self):
        cfg = NVMMConfig()
        # 150ns read / 300ns write at 2GHz.
        assert cfg.read_cycles == 300.0
        assert cfg.write_cycles == 600.0
        assert cfg.write_queue_depth == 64
        assert cfg.read_queue_depth == 32

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            NVMMConfig(read_cycles=-1.0)

    def test_rejects_zero_queue(self):
        with pytest.raises(ConfigError):
            NVMMConfig(write_queue_depth=0)


class TestCoreConfig:
    def test_rejects_zero_issue_width(self):
        with pytest.raises(ConfigError):
            CoreConfig(issue_width=0)

    def test_rejects_zero_mshrs(self):
        with pytest.raises(ConfigError):
            CoreConfig(mshr_entries=0)


class TestMachineConfig:
    def test_paper_machine_matches_table2(self):
        cfg = paper_machine()
        assert cfg.num_cores == 9
        assert cfg.l1.size_bytes == 64 * 1024
        assert cfg.l2.size_bytes == 512 * 1024
        assert cfg.l1.ways == 8 and cfg.l2.ways == 8
        assert cfg.l1.hit_cycles == 2.0
        assert cfg.l2.hit_cycles == 11.0

    def test_scaled_machine_shrinks_caches(self):
        cfg = scaled_machine()
        assert cfg.l1.size_bytes < paper_machine().l1.size_bytes
        assert cfg.l2.size_bytes < paper_machine().l2.size_bytes

    def test_real_system_is_symmetric_latency(self):
        cfg = real_system_machine()
        assert cfg.nvmm.read_cycles == cfg.nvmm.write_cycles

    def test_with_l2_size(self):
        cfg = paper_machine().with_l2_size(256 * 1024)
        assert cfg.l2.size_bytes == 256 * 1024
        # original untouched (frozen dataclass semantics)
        assert paper_machine().l2.size_bytes == 512 * 1024

    def test_with_nvmm_latency(self):
        cfg = paper_machine().with_nvmm_latency(120.0, 300.0)
        assert cfg.nvmm.read_cycles == 120.0
        assert cfg.nvmm.write_cycles == 300.0

    def test_with_cores(self):
        assert paper_machine().with_cores(17).num_cores == 17

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            MachineConfig(num_cores=0)
