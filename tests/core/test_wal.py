"""Unit tests for write-ahead-logging durable transactions (Figure 2)."""

import pytest

from repro.errors import ConfigError
from repro.core.wal import WriteAheadLog
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.isa import Fence, Flush, Load
from repro.sim.machine import Machine


def tiny_machine():
    return Machine(
        MachineConfig(
            num_cores=1,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 2, hit_cycles=11.0),
        )
    )


class TestTransaction:
    def test_commit_persists_all_writes(self):
        m = tiny_machine()
        data = m.alloc("data", 8)
        log = WriteAheadLog(m, "log", capacity=8)
        writes = [(data.addr(i), float(i + 1)) for i in range(4)]
        m.run([log.transaction(writes)])
        for i in range(4):
            assert m.persistent_value(data.addr(i)) == float(i + 1)
        assert m.mem.persisted(log.status_addr) == 0.0

    def test_four_fence_sets(self):
        """Figure 2: four flush+fence sets per durable transaction."""
        m = tiny_machine()
        data = m.alloc("data", 8)
        log = WriteAheadLog(m, "log", capacity=8)
        ops = list(log.transaction([(data.addr(0), 1.0)]))
        assert sum(1 for o in ops if isinstance(o, Fence)) == 4
        assert sum(1 for o in ops if isinstance(o, Flush)) >= 4

    def test_capacity_enforced(self):
        m = tiny_machine()
        data = m.alloc("data", 8)
        log = WriteAheadLog(m, "log", capacity=2)
        with pytest.raises(ConfigError):
            list(log.transaction([(data.addr(i), 1.0) for i in range(3)]))

    def test_zero_capacity_rejected(self):
        m = tiny_machine()
        with pytest.raises(ConfigError):
            WriteAheadLog(m, "log", capacity=0)


class TestRecovery:
    def run_crash_at(self, at_op):
        m = tiny_machine()
        data = m.alloc_init("data", [10.0, 20.0, 30.0, 40.0])
        m.drain()
        log = WriteAheadLog(m, "log", capacity=8)
        writes = [(data.addr(i), 100.0 + i) for i in range(4)]
        result, post = run_with_crash(
            m, [log.transaction(writes)], CrashPlan(at_op=at_op)
        )
        return m, post, data, result

    def total_ops(self):
        m = tiny_machine()
        data = m.alloc_init("data", [10.0, 20.0, 30.0, 40.0])
        log = WriteAheadLog(m, "log", capacity=8)
        writes = [(data.addr(i), 100.0 + i) for i in range(4)]
        return len(list(log.transaction(writes)))

    @pytest.mark.parametrize("fraction", [0.15, 0.35, 0.55, 0.75, 0.95])
    def test_atomicity_at_any_crash_point(self, fraction):
        """After crash + rollback, data is all-old or all-new."""
        n_ops = self.total_ops()
        at_op = max(1, int(n_ops * fraction))
        m, post, data, result = self.run_crash_at(at_op)
        assert result.crashed

        post_log = WriteAheadLog(post, "log", capacity=8)
        post.run([post_log.recovery_ops()])

        values = [post.persistent_value(data.addr(i)) for i in range(4)]
        old = [10.0, 20.0, 30.0, 40.0]
        new = [100.0, 101.0, 102.0, 103.0]
        assert values in (old, new), f"non-atomic state {values} at op {at_op}"

    def test_recovery_noop_when_clean(self):
        m = tiny_machine()
        data = m.alloc("data", 4)
        log = WriteAheadLog(m, "log", capacity=4)
        m.run([log.transaction([(data.addr(0), 5.0)])])
        status = m.mem.persisted(log.status_addr)
        assert status == 0.0
        # recovery loads the status and stops there
        step = log.recovery_ops()
        assert next(step) == Load(log.status_addr)
        with pytest.raises(StopIteration) as stop:
            step.send(status)
        assert stop.value.value is False
