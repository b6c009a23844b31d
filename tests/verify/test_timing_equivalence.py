"""Equivalence pins for the timing-model pipeline.

The semantics/timing split is only safe if the fast paths answer the
checker's questions exactly like the slow ones.  Three contracts are
pinned here:

* **Single-threaded crash spaces are timing-independent.**  With one
  core there is no interleaving for a model to change, so the
  reachable-image space at any crash point must be *identical* (by
  time-stripped :meth:`CrashStateSpace.signature`) under detailed and
  functional timing.
* **Multi-threaded verdicts agree.**  Different models legally expose
  different interleavings (functional round-robin keeps every core
  mid-flight), so spaces differ — but soundness verdicts must not:
  ``ep`` passes and ``ep_nofence`` is flagged under both.
* **Replay recovery is exact.**  Checking images on cache-free replay
  machines (the campaign default) must produce the same per-point
  verdicts and counterexamples as full-machine recovery runs, and
  ``Machine._run_replay``'s tight loop must be op-for-op equivalent to
  the general heap scheduler on the same replay machine — including
  barrier parking/release and free region marks.
"""

import pytest

from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan, run_to_crash_space
from repro.sim.isa import Barrier, Compute, Fence, Flush, RegionMark, Store
from repro.sim.machine import Machine
from repro.verify import EnumerationPlan, check_variant
from repro.workloads.tmm import TiledMatMul

PLAN = EnumerationPlan(max_exhaustive_events=12, samples=16, seed=0)
TIMINGS = ["detailed", "functional"]


def small_tmm():
    return TiledMatMul(n=8, bsize=4, kk_tiles=1)


def space_at(timing, plan, num_threads=1):
    config = tiny_machine().with_timing(timing)
    machine = Machine(config)
    bound = small_tmm().bind(machine, num_threads=num_threads)
    result, space = run_to_crash_space(machine, bound.threads("ep"), plan)
    assert result.crashed
    assert space is not None
    return space


class TestSingleThreadedSpacesIdentical:
    @pytest.mark.parametrize("at_op", [30, 150, 400])
    def test_same_signature_at_op_points(self, at_op):
        detailed = space_at("detailed", CrashPlan(at_op=at_op))
        functional = space_at("functional", CrashPlan(at_op=at_op))
        assert detailed.signature() == functional.signature()

    @pytest.mark.parametrize("at_flush", [1, 4, 9])
    def test_same_signature_at_persist_boundaries(self, at_flush):
        detailed = space_at("detailed", CrashPlan(at_flush=at_flush))
        functional = space_at("functional", CrashPlan(at_flush=at_flush))
        sig = detailed.signature()
        assert sig == functional.signature()
        # The boundary actually exposes reorderable events under both.
        assert detailed.num_events >= 1

    def test_signature_strips_times_but_not_structure(self):
        detailed = space_at("detailed", CrashPlan(at_flush=4))
        other = space_at("detailed", CrashPlan(at_flush=5))
        assert detailed.signature() != other.signature()


class TestMultiThreadedVerdictsAgree:
    @pytest.mark.parametrize("timing", TIMINGS)
    def test_ep_sound_under_both_models(self, timing):
        report = check_variant(
            small_tmm(),
            tiny_machine().with_timing(timing),
            "ep",
            [CrashPlan(at_flush=n) for n in (2, 5, 8)],
            PLAN,
        )
        assert report.ok

    @pytest.mark.parametrize("timing", TIMINGS)
    def test_ep_nofence_flagged_under_both_models(self, timing):
        # Every persist boundary: the bug-exposing marker flush lands
        # at a different *global* flush index under each interleaving,
        # so a sparse grid could legitimately miss it for one model.
        report = check_variant(
            small_tmm(),
            tiny_machine().with_timing(timing),
            "ep_nofence",
            [CrashPlan(at_flush=n) for n in range(1, 21)],
            PLAN,
        )
        assert not report.ok
        assert report.counterexamples


class TestReplayRecoveryIsExact:
    @pytest.mark.parametrize("variant", ["ep", "ep_nofence"])
    def test_same_verdicts_as_full_machine_recovery(self, variant):
        plans = [CrashPlan(at_flush=n) for n in range(1, 7)]
        reports = {
            replay: check_variant(
                small_tmm(), tiny_machine(), variant, plans, PLAN,
                replay=replay,
            )
            for replay in (True, False)
        }
        fast, full = reports[True], reports[False]
        assert [p.ok for p in fast.points] == [p.ok for p in full.points]
        assert fast.images_checked == full.images_checked
        assert len(fast.counterexamples) == len(full.counterexamples)
        for a, b in zip(fast.counterexamples, full.counterexamples):
            assert list(a.minimized_eids) == list(b.minimized_eids)
            assert a.image == b.image


def lumpy_thread(machine, tid, n):
    """Stores/flushes/fences with barrier-adjacent free marks; thread
    lengths differ so barrier parking order is exercised."""
    region = machine.region("data")
    for i in range(n):
        yield RegionMark(f"t{tid}:pre{i}")
        yield Store(region.base + 8 * ((tid * 7 + i) % 8), float(i))
        yield Compute(2)
        yield Flush(region.base + 8 * tid)
        if i % 2 == 0:
            yield Fence()
        yield RegionMark(f"t{tid}:post{i}")
        yield Barrier()
        yield RegionMark(f"t{tid}:after-barrier{i}")


class TestReplayLoopMatchesGeneralScheduler:
    def run_pair(self, num_threads=3, lengths=(5, 3, 4)):
        results = []
        states = []
        for force_general in (False, True):
            config = tiny_machine(num_cores=num_threads)
            machine = Machine(config, _replay=True)
            machine.alloc("data", 8)
            threads = [
                lumpy_thread(machine, tid, lengths[tid])
                for tid in range(num_threads)
            ]
            # A never-reached op limit disqualifies the tight loop and
            # routes the same replay machine through the heap scheduler.
            kwargs = {"op_limit": 10**9} if force_general else {}
            results.append(machine.run(threads, **kwargs))
            states.append(machine)
        return results, states

    def test_results_and_state_identical(self):
        (fast, general), (m_fast, m_general) = self.run_pair()
        assert fast.ops_executed == general.ops_executed
        assert fast.region_marks == general.region_marks
        assert fast.flush_ops == general.flush_ops
        assert fast.finished_threads == general.finished_threads
        assert not fast.crashed and not general.crashed
        assert m_fast.mem.arch == m_general.mem.arch
        assert m_fast.mem.persistent == m_general.mem.persistent
        for a, b in zip(m_fast.cores, m_general.cores):
            assert a.clock == b.clock
            assert a.stats.ops == b.stats.ops

    def test_tmm_recovery_generators_match(self):
        runs = []
        for force_general in (False, True):
            config = tiny_machine()
            machine = Machine(config)
            wl = small_tmm()
            bound = wl.bind(machine, num_threads=2)
            machine.run(bound.threads("ep"), crash_at_flush=5)
            post = machine.after_crash_with_image(
                machine.mem.persistent, replay=True
            )
            rebound = wl.bind(post, num_threads=2, create=False)
            kwargs = {"op_limit": 10**9} if force_general else {}
            result = post.run(rebound.recovery_threads("ep"), **kwargs)
            runs.append((result, post, rebound.verify()))
        (r_fast, m_fast, ok_fast), (r_gen, m_gen, ok_gen) = runs
        assert r_fast.ops_executed == r_gen.ops_executed
        assert m_fast.mem.arch == m_gen.mem.arch
        assert ok_fast and ok_gen
