"""Regression tests for the crash-state checker.

Sound persistency schemes — LP, eager-marker (ep), WAL — must recover
exact output on *every* reachable image at every crash point.  The
deliberately broken ``ep_nofence`` variant (marker persisted without
fencing the data it covers) must be flagged, with a minimized,
replayable counterexample.
"""

import pytest

from repro.schemes import get_scheme
from repro.sim.cleaner import PeriodicCleaner
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.verify import (
    Counterexample,
    CrashCheckReport,
    EnumerationPlan,
    check_crash_point,
    check_variant,
    minimize_failure,
    plan_from_dict,
    plan_to_dict,
    replay_counterexample,
)
from repro.workloads import available_workloads, get_workload
from repro.workloads.fft import FFT
from repro.workloads.tmm import TiledMatMul

PLAN = EnumerationPlan(max_exhaustive_events=12, samples=16, seed=0)


def small_tmm():
    # kk_tiles=1 so every pass over a tile is its last: a crash that
    # persists a tile's marker without its data can never be papered
    # over by a later repair pass.
    return TiledMatMul(n=8, bsize=4, kk_tiles=1)


def check(workload, variant, plans, plan=PLAN):
    return check_variant(workload, tiny_machine(), variant, plans, plan)


#: Crashcheck-sized problems for every registry workload.
SMALL_PARAMS = {
    "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
    "fft": {"n": 16},
    "gauss": {"n": 8, "row_block": 4},
    "cholesky": {"n": 8, "col_block": 4},
    "conv2d": {"n": 8, "row_block": 2},
    "log": {"records": 6, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}

#: Every registry workload x sound variant.
SOUND_VARIANTS = [
    (name, variant)
    for name in available_workloads()
    for variant in get_workload(name).variants
    if get_scheme(variant).sound
]


class TestSoundVariantsPass:
    def test_tmm_lp_passes_everywhere(self):
        report = check(
            small_tmm(), "lp",
            [CrashPlan(at_op=o) for o in (50, 200, 400, 600)],
        )
        assert report.ok
        assert report.images_checked > len(report.points)

    def test_tmm_ep_passes_at_persist_boundaries(self):
        report = check(
            small_tmm(), "ep",
            [CrashPlan(at_flush=n) for n in range(1, 13)],
        )
        assert report.ok
        # Persist boundaries must expose real reordering to check.
        assert any(p.images_checked > 1 for p in report.points)

    def test_tmm_wal_passes_at_persist_boundaries(self):
        report = check(
            small_tmm(), "wal",
            [CrashPlan(at_flush=n) for n in (2, 9, 16, 23)],
        )
        assert report.ok
        assert any(p.images_checked > 1 for p in report.points)

    def test_fft_ep_passes(self):
        report = check(
            FFT(n=16), "ep",
            [CrashPlan(at_op=o) for o in (40, 160, 320)]
            + [CrashPlan(at_flush=n) for n in (1, 3, 5)],
        )
        assert report.ok

    def test_fft_lp_passes(self):
        # WAL exists only for tmm; fft's non-eager coverage is lp.
        report = check(
            FFT(n=16), "lp",
            [CrashPlan(at_op=o) for o in (80, 240, 400)],
        )
        assert report.ok
        assert any(p.images_checked > 1 for p in report.points)


class TestBrokenVariantFlagged:
    @pytest.fixture(scope="class")
    def report(self):
        return check(
            small_tmm(), "ep_nofence",
            [CrashPlan(at_flush=n) for n in range(1, 13)],
        )

    def test_counterexample_found(self, report):
        assert not report.ok
        assert report.counterexamples

    def test_counterexample_is_minimized(self, report):
        cex = report.counterexamples[0]
        # The no-fence hole is a single unordered marker persist: the
        # shrinker must reduce the failure to exactly that one event.
        assert len(cex.minimized_eids) == 1
        assert set(cex.minimized_eids) <= set(cex.eids) or not cex.eids

    def test_counterexample_replays(self, report):
        cex = report.counterexamples[0]
        assert replay_counterexample(small_tmm(), tiny_machine(), cex)

    def test_counterexample_survives_serialization(self, report):
        cex = Counterexample.from_dict(report.counterexamples[0].to_dict())
        assert replay_counterexample(small_tmm(), tiny_machine(), cex)

    def test_report_roundtrips(self, report):
        clone = CrashCheckReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert not clone.ok
        assert clone.images_checked == report.images_checked


class TestPlanSerialization:
    @pytest.mark.parametrize(
        "plan",
        [
            CrashPlan(at_op=7),
            CrashPlan(at_cycle=12.5),
            CrashPlan(at_mark=3),
            CrashPlan(at_flush=9),
        ],
    )
    def test_roundtrip(self, plan):
        assert plan_from_dict(plan_to_dict(plan)) == plan


class TestMinimizeFailure:
    def test_shrinks_to_root_cause(self):
        from repro.sim.persist import CrashStateSpace, PersistEvent

        events = [
            PersistEvent(
                eid=i, line_addr=64 * (i + 1), kind="flush", core_id=0,
                time=float(i), values={8 * (i + 1): 1.0},
            )
            for i in range(5)
        ]
        space = CrashStateSpace(floor={}, events=events, edges=[(0, 1)])

        # Failure iff event 1 is present (which drags event 0 along).
        minimized = minimize_failure(
            space, frozenset(range(5)), lambda s: 1 in s
        )
        assert minimized == frozenset({0, 1})


class TestOneImageMode:
    """``plan=None`` is the single-image crash path: it must report what
    crashing, recovering and verifying by hand reports."""

    @staticmethod
    def machine(cleaner):
        machine = Machine(tiny_machine())
        if cleaner is not None:
            machine.cleaner = PeriodicCleaner(cleaner)
        return machine

    def reference(self, workload, variant, crash, cleaner):
        """run_with_crash, then the variant's recovery, then verify."""
        machine = self.machine(cleaner)
        bound = workload.bind(machine, num_threads=2, engine="modular")
        result, post = run_with_crash(machine, bound.threads(variant), crash)
        if not result.crashed:
            return False, result.nvmm_writes, 0, 0.0, bound.verify()
        rebound = workload.bind(
            post, num_threads=2, engine="modular", create=False
        )
        recovery = post.run(rebound.recovery_threads(variant))
        return (
            True,
            result.nvmm_writes,
            recovery.ops_executed,
            recovery.exec_cycles,
            rebound.verify(),
        )

    @pytest.mark.parametrize("cleaner", [None, 200.0], ids=["none", "cleaner"])
    @pytest.mark.parametrize(
        "name,variant",
        SOUND_VARIANTS,
        ids=[f"{n}/{v}" for n, v in SOUND_VARIANTS],
    )
    def test_matches_hand_run_reference(self, name, variant, cleaner):
        workload = get_workload(name)(**SMALL_PARAMS[name])
        bound = workload.bind(self.machine(cleaner), num_threads=2)
        total = bound.machine.run(bound.threads(variant)).ops_executed
        # Mid-run, and past the end (a graceful finish).
        for crash in (CrashPlan(at_op=total // 2), CrashPlan(at_op=2 * total)):
            crashed, writes, ops, cycles, exact = self.reference(
                workload, variant, crash, cleaner
            )
            assert crashed == (crash.at_op < total)
            full, fast = [
                check_crash_point(
                    workload, tiny_machine(), variant, crash, plan=None,
                    cleaner_period=cleaner, replay=replay,
                )
                for replay in (False, True)
            ]
            assert (
                full.crashed,
                full.writes_before_crash,
                full.recovery_ops,
                full.recovery_cycles,
                full.ok,
            ) == (crashed, writes, ops, cycles, exact)
            assert (fast.recovery_ops, fast.ok) == (ops, exact)
            assert full.images_checked == fast.images_checked == int(crashed)
