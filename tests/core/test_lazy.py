"""Unit tests for the LP runtime and region checksums."""

from repro.core.checksum import ModularChecksum
from repro.core.eager import durable_store
from repro.core.hashtable import INVALID_CHECKSUM
from repro.core.lazy import LPRuntime
from repro.core.region import RegionChecksum
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.isa import Compute, Fence, Flush, Load, Store
from repro.sim.machine import Machine


def tiny_machine():
    return Machine(
        MachineConfig(
            num_cores=1,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 2, hit_cycles=11.0),
        )
    )


def run_step(machine, step):
    """Run one LP step on core 0: (the ops it issued, its result)."""
    ops, result = [], []

    def thread():
        value = None
        try:
            while True:
                op = step.send(value)
                ops.append(op)
                value = yield op
        except StopIteration as stop:
            result.append(stop.value)

    machine.run([thread()])
    return ops, result[0]


class TestRegionChecksum:
    def test_update_charges_engine_cost(self):
        ck = RegionChecksum(ModularChecksum())
        op = ck.update(5.0)
        assert op == Compute(ModularChecksum.flops_per_update)
        assert ck.updates == 1

    def test_value_matches_engine(self):
        e = ModularChecksum()
        ck = RegionChecksum(e)
        for v in (1.0, 2.0, 3.0):
            ck.update(v)
        assert ck.value == e.of_values([1.0, 2.0, 3.0])

    def test_reset(self):
        # ResetCheckSum() is LPRuntime.begin_region: a fresh checksum.
        lp = LPRuntime(tiny_machine(), "tab", (1,), engine="modular")
        used = lp.begin_region()
        used.update(1.0)
        ck = lp.begin_region()
        assert ck.updates == 0
        assert ck.value == ModularChecksum().of_values([])

    def test_silent_update_equivalent(self):
        # Every update returns the one frozen op; a recovery-side fold
        # that drops it folds the same value.
        a = RegionChecksum(ModularChecksum())
        b = RegionChecksum(ModularChecksum())
        ops = [a.update(9.0), a.update(2.0)]
        b.update(9.0)
        b.update(2.0)
        assert ops[0] is ops[1]
        assert a.value == b.value


def lp_kernel(lp, data_region, values, key):
    """A minimal LP region: store values, checksum them, commit."""
    ck = lp.begin_region()
    for i, v in enumerate(values):
        yield Store(data_region.addr(i), v)
        yield ck.update(v)
    yield from lp.commit(ck, *key)


class TestLPRuntime:

    def test_consistent_after_drain(self):
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (2, 2), engine="modular")
        data = m.alloc("data", 8)
        vals = [3.0, 1.0, 4.0]
        m.run([lp_kernel(lp, data, vals, (0, 1))])
        m.drain()
        persisted = [m.persistent_value(data.addr(i)) for i in range(3)]
        assert lp.table.matches(persisted, 0, 1)

    def test_inconsistent_after_crash_without_eviction(self):
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (2, 2), engine="modular")
        data = m.alloc("data", 8)
        vals = [3.0, 1.0, 4.0]
        m.run([lp_kernel(lp, data, vals, (0, 1))])
        post = m.after_crash()  # nothing drained: all volatile
        persisted = [post.arch_value(data.addr(i)) for i in range(3)]
        assert not lp.table.matches(persisted, 0, 1)
        assert not lp.committed(lp.table.slot_addr(0, 1))

    def test_string_engine_resolution(self):
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (2,), engine="parity")
        assert lp.engine.name == "parity"

    def test_space_overhead(self):
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (8, 8), engine="modular")
        assert lp.space_overhead_bytes == 64 * 8

    def test_false_negative_region_r3(self):
        """Figure 6's R3: data persisted, checksum not -> flagged for
        (unnecessary but safe) recomputation."""
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (2, 2), engine="modular")
        data = m.alloc("data", 8)

        def kernel():
            ck = lp.begin_region()
            for i, v in enumerate([3.0, 1.0, 4.0]):
                yield Store(data.addr(i), v)
                yield ck.update(v)
            # persist the data but crash before the checksum commit
            from repro.core.eager import persist_region

            yield from persist_region([data.addr(i) for i in range(3)])
            yield from lp.commit(ck, 0, 0)

        m.run([kernel()])
        post = m.after_crash()
        persisted = [post.arch_value(data.addr(i)) for i in range(3)]
        assert persisted == [3.0, 1.0, 4.0]  # data survived
        assert not lp.table.matches(persisted, 0, 0)  # but flagged


class TestSlotSteps:
    """The slot-level steps every LP recovery shares (Figure 9)."""

    VALUES = [3.0, 1.0, 4.0]

    def committed_image(self, engine="modular"):
        """A drained LP region: the post-crash machine, a runtime
        re-attached to it, the data addresses and the region's slot."""
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (2, 2), engine=engine)
        data = m.alloc("data", 8)
        m.run([lp_kernel(lp, data, self.VALUES, (0, 1))])
        m.drain()
        post = m.after_crash()
        lp = LPRuntime(post, "tab", (2, 2), engine=engine, create=False)
        addrs = [data.addr(i) for i in range(len(self.VALUES))]
        return post, lp, addrs, lp.table.slot_addr(0, 1)

    def test_uncommitted_slot_issues_no_op(self):
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (2, 2), engine="modular")
        data = m.alloc("data", 8)
        slot = lp.table.slot_addr(0, 1)
        assert not lp.committed(slot)
        ops, ok = run_step(m, lp.region_matches([data.addr(0)], slot))
        assert ok is False
        assert ops == []

    def test_match(self):
        post, lp, addrs, slot = self.committed_image()
        assert lp.committed(slot)
        ops, ok = run_step(post, lp.region_matches(addrs, slot))
        assert ok is True
        # loads in update order, the fold, then the slot
        assert ops[: len(addrs)] == [Load(a) for a in addrs]
        assert isinstance(ops[len(addrs)], Compute)
        assert ops[len(addrs) + 1 :] == [Load(slot)]

    def test_mismatch(self):
        post, lp, addrs, slot = self.committed_image()
        run_step(post, durable_store(addrs[1], 7.0))
        _, ok = run_step(post, lp.region_matches(addrs, slot))
        assert ok is False

    def test_slot_outside_the_table(self):
        """tmm's embedded checksum columns (Figure 7a) are data
        elements, not table slots: the steps take any address."""
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (1,), engine="modular")
        row = m.alloc_init("row", self.VALUES + [INVALID_CHECKSUM])
        addrs = [row.addr(i) for i in range(len(self.VALUES))]
        slot = row.addr(len(self.VALUES))
        assert not lp.committed(slot)
        run_step(m, lp.recommit(self.VALUES, slot))
        assert lp.committed(slot)
        _, ok = run_step(m, lp.region_matches(addrs, slot))
        assert ok is True
        assert lp.table.committed_keys() == ()

    def test_fold_is_one_compute(self):
        post, lp, addrs, slot = self.committed_image(engine="adler32")
        ops, _ = run_step(post, lp.region_matches(addrs, slot))
        computes = [op for op in ops if isinstance(op, Compute)]
        assert computes == [
            Compute(len(addrs) * lp.engine.flops_per_update)
        ]

    def test_recommit_is_durable_without_drain(self):
        m = tiny_machine()
        lp = LPRuntime(m, "tab", (2, 2), engine="parallel")
        slot = lp.table.slot_addr(1, 0)
        ops, _ = run_step(m, lp.recommit(self.VALUES, slot))
        ck = lp.engine.of_values(self.VALUES)
        assert ops == [
            Compute(len(self.VALUES) * lp.engine.flops_per_update),
            Compute(1.0),
            Store(slot, float(ck)),
            Flush(slot),
            Fence(),
        ]
        post = m.after_crash()  # no drain
        rebound = LPRuntime(post, "tab", (2, 2), engine="parallel", create=False)
        assert rebound.table.matches(self.VALUES, 1, 0)

