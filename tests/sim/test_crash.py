"""Unit tests for crash injection."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.isa import Flush, Fence, Store
from repro.sim.machine import Machine


def tiny_machine():
    return Machine(
        MachineConfig(
            num_cores=1,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(2048, 2, hit_cycles=11.0),
        )
    )


class TestCrashPlan:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ConfigError):
            CrashPlan()
        with pytest.raises(ConfigError):
            CrashPlan(at_op=1, at_flush=2)
        CrashPlan(at_op=1)
        CrashPlan(at_op=0)
        CrashPlan(at_flush=2)


class TestRunWithCrash:
    def test_flushed_data_survives(self):
        m = tiny_machine()
        r = m.alloc("a", 16)

        def writer():
            for i in range(16):
                yield Store(r.addr(i), 5.0)
                if i < 8:
                    yield Flush(r.addr(i))
            yield Fence()

        # crash after all stores+flushes of the first 8 elements
        result, post = run_with_crash(m, [writer()], CrashPlan(at_op=24))
        assert result.crashed
        values = post.read_region(r)
        assert values[:8] == [5.0] * 8
        assert values[8:] == [0.0] * 8

    def test_no_crash_if_workload_finishes_first(self):
        m = tiny_machine()
        r = m.alloc("a", 2)

        def writer():
            yield Store(r.addr(0), 1.0)

        result, post = run_with_crash(m, [writer()], CrashPlan(at_op=1000))
        assert not result.crashed
        assert post is not None

    def test_post_crash_caches_are_cold(self):
        m = tiny_machine()
        r = m.alloc("a", 8)

        def writer():
            for i in range(8):
                yield Store(r.addr(i), 1.0)

        _, post = run_with_crash(m, [writer()], CrashPlan(at_op=4))
        assert post.hierarchy.l2.occupancy == 0
        assert all(l1.occupancy == 0 for l1 in post.hierarchy.l1s)
        assert post.stats.nvmm_writes == 0  # fresh stats
