"""Tests for the pre-ADR (pcommit-era) persistence model (pre_adr).

Under ADR a write is durable at MC acceptance; without it, durability
waits for the NVMM device to finish the write, fences take the full
write latency, and a crash loses writes still in flight.
"""



from repro.sim.config import CacheConfig, MachineConfig, NVMMConfig
from repro.sim.isa import Fence, Flush, Store
from repro.sim.machine import Machine


def machine(adr=True, write_cycles=600.0):
    return Machine(
        MachineConfig(
            num_cores=1,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(2048, 2, hit_cycles=11.0),
            nvmm=NVMMConfig(write_cycles=write_cycles),
            model="adr" if adr else "pre_adr",
        )
    )


def flushing_writer(region, n):
    for i in range(n):
        yield Store(region.addr(i), 5.0)
        yield Flush(region.addr(i))
    yield Fence()


class TestFenceCost:
    def test_fence_waits_longer_without_adr(self):
        costs = {}
        for adr in (True, False):
            m = machine(adr=adr)
            r = m.alloc("a", 8)
            res = m.run([flushing_writer(r, 1)])
            costs[adr] = res.exec_cycles
        # non-ADR fence waits out the device write latency
        assert costs[False] > costs[True] + 100.0

    def test_flushed_and_fenced_is_durable_either_way(self):
        for adr in (True, False):
            m = machine(adr=adr)
            r = m.alloc("a", 8)
            m.run([flushing_writer(r, 8)])
            assert m.read_region(r, persistent=True) == [5.0] * 8


class TestCrashSemantics:
    def test_in_flight_write_lost_without_adr(self):
        """Crash immediately after a flush issues: ADR keeps the data,
        non-ADR rolls it back."""

        from repro.sim.isa import Compute

        def kernel(region):
            yield Store(region.addr(0), 9.0)
            yield Flush(region.addr(0))
            # crash lands here, long before the 600-cycle write ends
            yield Compute(1)
            yield Compute(1)

        for adr, expected in ((True, 9.0), (False, 0.0)):
            m = machine(adr=adr)
            r = m.alloc("a", 8)
            m.run([kernel(r)], crash_at_op=2)
            post = m.after_crash()
            assert post.arch_value(r.addr(0)) == expected, f"adr={adr}"

    def test_completed_write_survives_without_adr(self):
        """If enough time passes after the flush, the write is durable
        even without ADR."""
        from repro.sim.isa import Compute

        def kernel(region):
            yield Store(region.addr(0), 9.0)
            yield Flush(region.addr(0))
            yield Compute(40_000)  # ~10k cycles >> write latency
            yield Compute(1)

        m = machine(adr=False)
        r = m.alloc("a", 8)
        m.run([kernel(r)], crash_at_op=4)
        post = m.after_crash()
        assert post.arch_value(r.addr(0)) == 9.0

    def test_rollback_restores_prior_persistent_value(self):
        from repro.sim.isa import Compute

        def kernel(region):
            yield Store(region.addr(0), 1.0)
            yield Flush(region.addr(0))
            yield Fence()  # 1.0 durable
            yield Store(region.addr(0), 2.0)
            yield Flush(region.addr(0))
            # crash before the second write completes
            yield Compute(1)
            yield Compute(1)

        m = machine(adr=False)
        r = m.alloc("a", 8)
        m.run([kernel(r)], crash_at_op=5)
        post = m.after_crash()
        assert post.arch_value(r.addr(0)) == 1.0

    def test_adr_discard_is_noop(self):
        m = machine(adr=True)
        r = m.alloc("a", 8)
        m.run([flushing_writer(r, 4)], crash_at_op=6)
        assert m.mc.discard_in_flight(0.0) == 0


class TestUndoBookkeeping:
    def test_prune_drops_completed_records(self):
        m = machine(adr=False)
        r = m.alloc("a", 8)
        m.run([flushing_writer(r, 4)])
        m.mc.prune_undo(1e12)
        assert m.mc.discard_in_flight(0.0) == 0  # nothing left to undo
