"""Unit tests for the core execution engine and hazard model."""

import pytest

from repro.errors import SimulationError
from repro.sim.config import CacheConfig, CoreConfig, MachineConfig
from repro.sim.coherence import Hierarchy
from repro.sim.core import Core
from repro.sim.isa import Compute, Fence, Flush, FlushWB, Load, RegionMark, Store
from repro.sim.nvmm import MemoryController
from repro.sim.stats import MachineStats
from repro.sim.valuestore import MemoryState

LINE = 64


def make_core(core_cfg=None, **machine_kwargs):
    cfg = MachineConfig(
        num_cores=1,
        core=core_cfg or CoreConfig(),
        l1=CacheConfig(512, 2, hit_cycles=2.0),
        l2=CacheConfig(2048, 2, hit_cycles=11.0),
        **machine_kwargs,
    )
    mem = MemoryState()
    stats = MachineStats().for_cores(1)
    mc = MemoryController(cfg.nvmm, mem, stats)
    h = Hierarchy(cfg, mem, stats, mc)
    for addr in range(LINE, LINE * 128, 8):
        mem.init(addr, float(addr))
    return Core(0, cfg.core, h, mem, stats.per_core[0]), stats


class TestLoads:
    def test_load_returns_value(self):
        core, _ = make_core()
        assert core.execute(Load(LINE)) == float(LINE)

    def test_hit_is_cheap_miss_is_expensive(self):
        core, _ = make_core()
        core.execute(Load(LINE))
        t_after_miss = core.clock
        core.execute(Load(LINE + 8))  # same line: L1 hit
        assert core.clock - t_after_miss == core.config.l1_hit_issue_cycles
        assert t_after_miss >= 300.0  # went to NVMM

    def test_load_counts(self):
        core, _ = make_core()
        core.execute(Load(LINE))
        core.execute(Load(LINE))
        assert core.stats.loads == 2
        assert core.stats.l1_misses == 1
        assert core.stats.l1_hits == 1


class TestStores:
    def test_store_is_asynchronous(self):
        core, _ = make_core()
        core.execute(Load(LINE))  # warm the line
        t0 = core.clock
        core.execute(Store(LINE, 1.0))
        # only issue cost charged inline; drain happens in background
        assert core.clock - t0 == core.config.l1_hit_issue_cycles

    def test_store_buffer_full_counts_fuw(self):
        cfg = CoreConfig(store_buffer_entries=2)
        core, _ = make_core(core_cfg=cfg)
        # cold stores miss -> slow drains; the third store finds both
        # slots occupied by in-flight RFOs
        stride = 512  # distinct L1 sets and lines
        for i in range(4):
            core.execute(Store(LINE + i * stride, 1.0))
        assert core.stats.fu_write_events >= 1

    def test_store_value_visible_to_load(self):
        core, _ = make_core()
        core.execute(Store(LINE, 42.0))
        assert core.execute(Load(LINE)) == 42.0


class TestFlushFence:
    def test_flush_then_fence_persists(self):
        core, stats = make_core()
        core.execute(Store(LINE, 9.0))
        core.execute(Flush(LINE))
        core.execute(Fence())
        assert stats.nvmm_writes == 1
        assert core.hierarchy.mem.persisted(LINE) == 9.0

    def test_fence_waits_for_flush_acceptance(self):
        core, _ = make_core()
        core.execute(Store(LINE, 9.0))
        core.execute(Flush(LINE))
        core.execute(Fence())
        assert core.stats.fences == 1
        # nothing in flight afterwards
        assert core.timer.outstanding_drain_time() == core.clock

    def test_fence_with_nothing_outstanding_is_free(self):
        core, _ = make_core()
        core.execute(Compute(4))
        t0 = core.clock
        core.execute(Fence())
        assert core.clock == t0
        assert core.stats.fence_stall_cycles == 0.0

    def test_flushwb_keeps_line_warm(self):
        core, stats = make_core()
        core.execute(Store(LINE, 9.0))
        core.execute(FlushWB(LINE))
        core.execute(Fence())
        assert stats.nvmm_writes == 1
        t0 = core.clock
        core.execute(Load(LINE))  # should still hit
        assert core.clock - t0 == core.config.l1_hit_issue_cycles

    def test_flush_queue_full_counts_mshr_pressure(self):
        cfg = CoreConfig(flush_queue_entries=1)
        core, _ = make_core(core_cfg=cfg)
        core.execute(Store(LINE, 1.0))
        core.execute(Store(LINE + 512, 2.0))
        core.execute(Flush(LINE))
        core.execute(Flush(LINE + 512))
        assert core.stats.mshr_full_events >= 1


class TestCompute:
    def test_compute_cost_scales_with_flops(self):
        core, _ = make_core()
        core.execute(Compute(8))
        assert core.clock == 8 * core.config.compute_cpi

    def test_fui_pressure_counted_under_inflight_backlog(self):
        cfg = CoreConfig(fu_pressure_threshold=1)
        core, _ = make_core(core_cfg=cfg)
        core.execute(Store(LINE, 1.0))  # cold store: long drain in flight
        core.execute(Compute(1))
        assert core.stats.fu_int_events == 1

    def test_no_fui_when_quiet(self):
        core, _ = make_core()
        core.execute(Compute(1))
        assert core.stats.fu_int_events == 0


class TestMisc:
    def test_region_mark_is_free(self):
        core, _ = make_core()
        core.execute(RegionMark("r0"))
        assert core.clock == 0.0
        assert core.stats.ops == 1

    def test_unknown_op_rejected(self):
        core, _ = make_core()
        with pytest.raises(SimulationError):
            core.execute("not an op")  # type: ignore[arg-type]
