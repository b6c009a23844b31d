"""Crash-trigger boundary semantics, golden-pinned before the timing
refactor.

The exact instant a crash trigger fires is part of the crash-state
checker's contract: campaigns sweep ``at_op`` grids and per-flush
boundaries, and a refactor that silently shifts a trigger by one op
would re-aim every campaign.  These tests nail the boundaries down:

* ``crash_at_op=N`` fires *before* the fetched op executes — exactly N
  ops have executed when the machine stops;
* ``crash_at_op=0`` crashes before any op executes;
* ``crash_at_flush=N`` fires right *after* the Nth flush executes (the
  persist-boundary semantics the checker's flush-boundary grid depends
  on), including on the final flush;
* a trigger the run never reaches yields a graceful, uncrashed end.
"""

import pytest

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.isa import Compute, Fence, Flush, RegionMark, Store
from repro.sim.machine import Machine


def tiny_config(timing: str = "detailed") -> MachineConfig:
    kwargs = {}
    if timing != "detailed":
        kwargs["timing"] = timing
    return MachineConfig(
        num_cores=2,
        l1=CacheConfig(512, 2, hit_cycles=2.0),
        l2=CacheConfig(2048, 4, hit_cycles=11.0),
        **kwargs,
    )


TIMINGS = ["detailed", "functional"]


def make_machine(timing: str) -> Machine:
    return Machine(tiny_config(timing))


def simple_thread(machine, executed, n_stores=4):
    """Store / flush / fence / mark loop that records executed ops."""
    region = machine.region("data")
    for i in range(n_stores):
        yield Store(region.base + 8 * (i % region.num_elements), float(i))
        executed.append(("store", i))
        yield Flush(region.base)
        executed.append(("flush", i))
        yield Fence()
        executed.append(("fence", i))
        yield RegionMark(f"r{i}")
        executed.append(("mark", i))


def run_simple(timing, executed, **crash_kwargs):
    machine = make_machine(timing)
    machine.alloc("data", 8)
    result = machine.run(
        [simple_thread(machine, executed)], **crash_kwargs
    )
    return machine, result


@pytest.mark.parametrize("timing", TIMINGS)
class TestAtOpBoundary:
    def test_exactly_n_ops_execute(self, timing):
        for n in (1, 2, 3, 7):
            executed = []
            _, result = run_simple(timing, executed, crash_at_op=n)
            assert result.crashed
            assert result.ops_executed == n
            assert len(executed) == n

    def test_fires_before_the_fetched_op(self, timing):
        # Crash at op 1: the store executed, the first flush did not,
        # so nothing can have reached the persistence domain.
        executed = []
        machine, result = run_simple(timing, executed, crash_at_op=1)
        assert executed == [("store", 0)]
        assert result.stats.nvmm_writes == 0
        base = machine.region("data").base
        assert machine.mem.persisted(base) == 0.0  # init value survives

    def test_at_op_zero_crashes_immediately(self, timing):
        executed = []
        _, result = run_simple(timing, executed, crash_at_op=0)
        assert result.crashed
        assert result.ops_executed == 0
        assert executed == []

    def test_at_op_equal_to_total_is_a_graceful_end(self, timing):
        # Profile the full run, then set the trigger exactly at its op
        # count: every op has executed when the threads finish, so the
        # trigger never fires before a fetch again -> no crash.
        executed = []
        _, profile = run_simple(timing, executed)
        total = profile.ops_executed
        executed = []
        _, result = run_simple(timing, executed, crash_at_op=total)
        assert not result.crashed
        assert result.ops_executed == total

    def test_at_op_one_past_total_is_a_graceful_end(self, timing):
        executed = []
        _, profile = run_simple(timing, executed)
        executed = []
        _, result = run_simple(
            timing, executed, crash_at_op=profile.ops_executed + 1
        )
        assert not result.crashed


@pytest.mark.parametrize("timing", TIMINGS)
class TestAtFlushBoundary:
    def test_fires_right_after_nth_flush(self, timing):
        executed = []
        _, result = run_simple(timing, executed, crash_at_flush=1)
        assert result.crashed
        assert result.flush_ops == 1
        # The flush executed; the fence behind it did not: exactly the
        # store and the flush ran (ops 1 and 2 of the thread).
        assert result.ops_executed == 2

    def test_flush_data_is_accepted_but_unfenced(self, timing):
        executed = []
        machine, result = run_simple(timing, executed, crash_at_flush=1)
        # Persist-boundary semantics: the flushed line reached the MC...
        assert result.stats.nvmm_writes == 1
        tracker = machine.persist_tracker
        assert tracker is not None
        # ...but no fence ordered it: it is still a pending event the
        # crash-state space treats as reorderable.
        assert tracker.pending_flush_count == 1

    def test_fires_on_the_final_flush(self, timing):
        executed = []
        _, profile = run_simple(timing, executed)
        n_flushes = profile.flush_ops
        executed = []
        _, result = run_simple(timing, executed, crash_at_flush=n_flushes)
        # Even when the Nth flush is deep in the run's tail the
        # post-execution check still fires.
        assert result.crashed
        assert result.flush_ops == n_flushes

    def test_beyond_final_flush_is_graceful(self, timing):
        executed = []
        _, profile = run_simple(timing, executed)
        executed = []
        _, result = run_simple(
            timing, executed, crash_at_flush=profile.flush_ops + 1
        )
        assert not result.crashed


@pytest.mark.parametrize("timing", TIMINGS)
def test_compute_only_thread_never_flush_crashes(timing):
    machine = make_machine(timing)
    machine.alloc("data", 8)

    def compute_thread():
        for _ in range(5):
            yield Compute(4)

    result = machine.run([compute_thread()], crash_at_flush=1)
    assert not result.crashed
    assert result.flush_ops == 0
