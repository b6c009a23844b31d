"""Unit tests for the Machine scheduler and run lifecycle."""

import pytest

from repro.errors import AddressError, ConfigError
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.isa import Compute, Load, Store
from repro.sim.machine import Machine


def tiny_machine(num_cores=2):
    return Machine(
        MachineConfig(
            num_cores=num_cores,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(2048, 2, hit_cycles=11.0),
        )
    )


def incrementer(region, lo, hi, delta=1.0):
    for i in range(lo, hi):
        v = yield Load(region.addr(i))
        yield Compute(1)
        yield Store(region.addr(i), v + delta)


class TestAllocation:
    def test_alloc_initialises_durably(self):
        m = tiny_machine()
        r = m.alloc("a", 4)
        assert m.read_region(r) == [0.0] * 4
        assert m.read_region(r, persistent=True) == [0.0] * 4

    def test_alloc_init_values(self):
        m = tiny_machine()
        r = m.alloc_init("a", [1.0, 2.0, 3.0])
        assert m.read_region(r) == [1.0, 2.0, 3.0]

    def test_scalar(self):
        m = tiny_machine()
        s = m.scalar("counter", -1.0)
        assert m.arch_value(s.base) == -1.0

    def test_region_lookup(self):
        m = tiny_machine()
        r = m.alloc("a", 4)
        assert m.region("a") == r


#: The two ways to build a post-crash machine.
POST_CRASH = {
    "after_crash": lambda m: m.after_crash(),
    "image_replay": lambda m: m.after_crash_with_image(
        m.mem.persistent, replay=True
    ),
}

#: The three allocating calls, each asking for one element.
ALLOCATORS = {
    "alloc": lambda m, name: m.alloc(name, 1),
    "alloc_init": lambda m, name: m.alloc_init(name, [7.0]),
    "scalar": lambda m, name: m.scalar(name, 7.0),
}


class TestPostCrashAllocation:
    """A post-crash machine re-attaches by name and never allocates."""

    def crashed(self):
        m = tiny_machine()
        m.alloc_init("a", [1.0, 2.0, 3.0])
        m.scalar("s", -1.0)
        return m

    def test_only_rebuilt_machines_are_post_crash(self):
        m = self.crashed()
        assert not m.post_crash
        for rebuild in POST_CRASH.values():
            assert rebuild(m).post_crash
        assert m.after_crash().after_crash().post_crash

    @pytest.mark.parametrize("rebuild", sorted(POST_CRASH))
    def test_reattach_writes_nothing(self, rebuild):
        m = self.crashed()
        post = POST_CRASH[rebuild](m)
        arch, persistent = dict(post.mem.arch), dict(post.mem.persistent)
        assert post.alloc("a", 3) == m.region("a")
        assert post.alloc_init("a", [9.0, 9.0, 9.0]) == m.region("a")
        assert post.scalar("s", 5.0) == m.region("s")
        assert post.mem.arch == arch
        assert post.mem.persistent == persistent
        assert post.read_region(m.region("a")) == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("call", sorted(ALLOCATORS))
    @pytest.mark.parametrize("rebuild", sorted(POST_CRASH))
    def test_unknown_name_raises_and_adds_no_region(self, rebuild, call):
        m = self.crashed()
        post = POST_CRASH[rebuild](m)
        regions = post.allocator.regions
        bump = post.allocator.bytes_allocated
        with pytest.raises(AddressError):
            ALLOCATORS[call](post, "new")
        assert post.allocator.regions == regions
        assert post.allocator.bytes_allocated == bump

    @pytest.mark.parametrize("call", sorted(ALLOCATORS))
    @pytest.mark.parametrize("rebuild", sorted(POST_CRASH))
    def test_size_mismatch_raises(self, rebuild, call):
        post = POST_CRASH[rebuild](self.crashed())
        with pytest.raises(AddressError, match="holds 3 elements"):
            ALLOCATORS[call](post, "a")


class TestRun:
    def test_single_thread_completes(self):
        m = tiny_machine()
        r = m.alloc("a", 8)
        result = m.run([incrementer(r, 0, 8)])
        assert not result.crashed
        assert result.finished_threads == 1
        assert m.read_region(r) == [1.0] * 8
        assert result.exec_cycles > 0

    def test_two_threads_interleave(self):
        m = tiny_machine()
        r = m.alloc("a", 16)
        result = m.run([incrementer(r, 0, 8), incrementer(r, 8, 16)])
        assert result.finished_threads == 2
        assert m.read_region(r) == [1.0] * 16

    def test_exec_cycles_is_max_over_cores(self):
        m = tiny_machine()
        r = m.alloc("a", 16)
        result = m.run([incrementer(r, 0, 8), incrementer(r, 8, 16)])
        per_core = [c.cycles for c in result.stats.per_core[:2]]
        assert result.exec_cycles == max(per_core)

    def test_determinism(self):
        def run_once():
            m = tiny_machine()
            r = m.alloc("a", 16)
            res = m.run([incrementer(r, 0, 8), incrementer(r, 8, 16)])
            return res.exec_cycles, res.stats.nvmm_writes, res.ops_executed

        assert run_once() == run_once()

    def test_too_many_threads_rejected(self):
        m = tiny_machine(num_cores=1)
        r = m.alloc("a", 4)
        with pytest.raises(ConfigError):
            m.run([incrementer(r, 0, 2), incrementer(r, 2, 4)])

    def test_no_threads_rejected(self):
        m = tiny_machine()
        with pytest.raises(ConfigError):
            m.run([])


class TestCrashTriggers:
    def test_crash_at_op(self):
        m = tiny_machine()
        r = m.alloc("a", 64)
        result = m.run([incrementer(r, 0, 64)], crash_at_op=15)
        assert result.crashed
        assert result.ops_executed == 15


class TestCrashSemantics:
    def test_after_crash_loses_cached_stores(self):
        m = tiny_machine()
        r = m.alloc("a", 8)  # one line: stays cached, never evicted
        result = m.run([incrementer(r, 0, 8)], crash_at_op=23)
        assert result.crashed
        post = m.after_crash()
        assert post.read_region(r) == [0.0] * 8

    def test_after_crash_keeps_drained_data(self):
        m = tiny_machine()
        r = m.alloc("a", 8)
        m.run([incrementer(r, 0, 8)])
        m.drain()
        post = m.after_crash()
        assert post.read_region(r) == [1.0] * 8

    def test_after_crash_shares_allocator(self):
        m = tiny_machine()
        r = m.alloc("a", 8)
        post = m.after_crash()
        assert post.region("a") == r

    def test_post_crash_machine_runs(self):
        m = tiny_machine()
        r = m.alloc("a", 8)
        m.run([incrementer(r, 0, 8)], crash_at_op=10)
        post = m.after_crash()
        res = post.run([incrementer(r, 0, 8, delta=2.0)])
        assert res.finished_threads == 1


class TestDrain:
    def test_drain_persists_everything(self):
        m = tiny_machine()
        r = m.alloc("a", 8)
        m.run([incrementer(r, 0, 8)])
        assert m.read_region(r, persistent=True) == [0.0] * 8
        m.drain()
        assert m.read_region(r, persistent=True) == [1.0] * 8

    def test_drain_counts_writes(self):
        m = tiny_machine()
        r = m.alloc("a", 8)
        m.run([incrementer(r, 0, 8)])
        m.drain()
        assert m.stats.writes_by_cause.get("drain", 0) >= 1
