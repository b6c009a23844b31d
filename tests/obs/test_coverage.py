"""Coverage accounting must reconcile exactly with the checker.

``CoverageStats`` is derived data: every number it reports is a fold
over the verification layer's own reports.  These tests pin the fold
— per-epoch sums equal campaign totals, the exhaustive/sampled split
equals the enumerator's frontier decision, bounds dominate image
counts — across three workloads and both sound and broken variants,
plus the checker's one-image mode, ``coverage_of_litmus`` and the
round trip through the journal.
"""

import pytest

from repro.obs.coverage import (
    CoverageStats,
    EpochCoverage,
    coverage_of_crashcheck,
    coverage_of_litmus,
)
from repro.obs.journal import TelemetryJournal, journal_summary
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan
from repro.verify import EnumerationPlan, check_variant
from repro.verify.litmus import check_model, generate_programs
from repro.workloads import get_workload
from repro.workloads.tmm import BoundTMM

PLAN = EnumerationPlan(max_exhaustive_events=12, samples=16, seed=0)

#: Three workloads x sound schemes (params sized for test speed).
SOUND_CASES = [
    ("tmm", {"n": 8, "bsize": 4, "kk_tiles": 1}, "lp",
     [CrashPlan(at_op=o) for o in (200, 400)]),
    ("fft", {"n": 16}, "ep",
     [CrashPlan(at_op=120), CrashPlan(at_flush=2)]),
    ("gauss", {"n": 8, "row_block": 4}, "lp",
     [CrashPlan(at_op=60), CrashPlan(at_flush=1)]),
]


def run_check(workload, params, variant, plans, plan=PLAN):
    wl = get_workload(workload)(**params)
    return check_variant(wl, tiny_machine(), variant, plans, plan)


@pytest.fixture(scope="module")
def sound_reports():
    return [
        (run_check(w, p, v, plans), plans)
        for (w, p, v, plans) in SOUND_CASES
    ]


@pytest.fixture(scope="module")
def broken_report():
    wl = get_workload("tmm")(n=8, bsize=4, kk_tiles=1)
    return check_variant(
        wl, tiny_machine(), "ep_nofence",
        [CrashPlan(at_flush=n) for n in (10, 20)], PLAN,
    )


class TestCrashcheckReconciliation:
    def test_totals_match_report(self, sound_reports):
        for report, plans in sound_reports:
            cov = coverage_of_crashcheck(report)
            assert cov.kind == "crashcheck"
            assert cov.label == f"{report.workload}/{report.variant}"
            assert cov.points == len(report.points) == len(plans)
            assert cov.crashed_points == sum(
                1 for p in report.points if p.crashed
            )
            assert cov.images_checked == report.images_checked
            assert cov.images_checked == sum(
                p.images_checked for p in report.points
            )
            assert cov.images_diverged == 0
            assert cov.counterexamples == 0
            assert cov.ok

    def test_epoch_sums_equal_totals(self, sound_reports, broken_report):
        reports = [r for r, _ in sound_reports] + [broken_report]
        for report in reports:
            cov = coverage_of_crashcheck(report)
            crashed = [p for p in report.points if p.crashed]
            assert sum(e.points for e in cov.epochs) == len(crashed)
            assert sum(e.images_checked for e in cov.epochs) == sum(
                p.images_checked for p in crashed
            )
            assert sum(e.images_diverged for e in cov.epochs) == sum(
                p.images_diverged for p in crashed
            )
            assert sum(e.bound for e in cov.epochs) == sum(
                p.bound for p in crashed
            )
            assert cov.enumeration_bound == sum(e.bound for e in cov.epochs)
            # Epochs are keyed and sorted by event count.
            counts = [e.num_events for e in cov.epochs]
            assert counts == sorted(set(counts))

    def test_exhaustive_split_matches_frontier(self, sound_reports):
        for report, _ in sound_reports:
            cov = coverage_of_crashcheck(report)
            by_events = {e.num_events: e for e in cov.epochs}
            for point in report.points:
                if not point.crashed:
                    continue
                expected = point.num_events <= PLAN.max_exhaustive_events
                assert point.exhaustive == expected
                assert by_events[point.num_events].exhaustive == expected
            assert cov.exhaustive_points + cov.sampled_points == sum(
                1 for p in report.points if p.crashed
            )
            assert (
                cov.exhaustive_images + cov.sampled_images
                == sum(p.images_checked for p in report.points if p.crashed)
            )

    def test_bound_dominates_images_checked(self, sound_reports):
        for report, _ in sound_reports:
            for point in report.points:
                if point.crashed:
                    assert point.images_checked <= point.bound
                    assert point.bound >= 1

    def test_wall_clock_and_rate(self, sound_reports):
        report, _ = sound_reports[0]
        cov = coverage_of_crashcheck(report)
        assert cov.wall_s == pytest.approx(
            sum(p.wall_s for p in report.points)
        )
        assert cov.wall_s > 0.0
        assert cov.images_per_sec() == pytest.approx(
            cov.images_checked / cov.wall_s
        )

    def test_report_coverage_method_matches_builder(self, sound_reports):
        report, _ = sound_reports[0]
        assert report.coverage().to_dict() == (
            coverage_of_crashcheck(report).to_dict()
        )


class TestBrokenVariantCoverage:
    def test_divergence_and_shrinking_are_counted(self, broken_report):
        cov = coverage_of_crashcheck(broken_report)
        assert not broken_report.ok
        assert not cov.ok
        assert cov.counterexamples == sum(
            len(p.counterexamples) for p in broken_report.points
        )
        assert cov.counterexamples >= 1
        assert cov.images_diverged >= cov.counterexamples
        assert cov.images_recovered == (
            cov.images_checked - cov.images_diverged
        )
        assert cov.shrink_steps == sum(
            p.shrink_steps for p in broken_report.points
        )


class TestSampledEpochs:
    def test_sampled_points_use_sample_bound(self):
        # Force the frontier below real event counts: every crashed
        # point with events lands in a sampled epoch whose bound is
        # samples + 3 (floor/full/schedule are always included).
        plan = EnumerationPlan(max_exhaustive_events=2, samples=5, seed=0)
        report = run_check(
            "tmm", {"n": 8, "bsize": 4, "kk_tiles": 1}, "lp",
            [CrashPlan(at_op=400)], plan=plan,
        )
        cov = coverage_of_crashcheck(report)
        sampled = [e for e in cov.epochs if not e.exhaustive]
        assert sampled, "expected at least one sampled epoch"
        for epoch in sampled:
            assert epoch.num_events > plan.max_exhaustive_events
            assert epoch.bound == (plan.samples + 3) * epoch.points
            assert epoch.images_checked <= epoch.bound
        assert cov.exhaustive_fraction() < 1.0


class TestCampaignCoverage:
    def test_one_image_per_trial(self, monkeypatch):
        # Recovery exact at op 200, wrong at op 400; op 10M finishes
        # first and verifies clean.
        verdicts = iter([True, False, True])
        monkeypatch.setattr(BoundTMM, "verify", lambda self: next(verdicts))
        report = run_check(
            "tmm", {"n": 8, "bsize": 4, "kk_tiles": 1}, "lp",
            [CrashPlan(at_op=o) for o in (200, 400, 10_000_000)], plan=None,
        )
        cov = coverage_of_crashcheck(report)
        assert cov.kind == "crashcheck"
        assert cov.label == "tmm/lp"
        assert cov.points == 3
        assert cov.crashed_points == 2
        assert cov.images_checked == 2
        assert cov.images_diverged == 1
        assert not cov.ok
        # Each crashed point checks exactly its schedule's image: one
        # exhaustive zero-event epoch whose bound is one per point.
        assert [e.to_dict() for e in cov.epochs] == [
            {
                "num_events": 0,
                "points": 2,
                "images_checked": 2,
                "images_diverged": 1,
                "bound": 2,
                "exhaustive": True,
            }
        ]
        assert report.coverage().to_dict() == cov.to_dict()


class TestLitmusCoverage:
    @pytest.fixture(scope="class")
    def verdict(self):
        return check_model("epoch", generate_programs(limit=12))

    def test_reconciles_with_verdict(self, verdict):
        cov = coverage_of_litmus(verdict)
        assert cov.kind == "litmus"
        assert cov.label == "epoch"
        assert cov.points == len(verdict.program_points)
        assert cov.images_checked == verdict.images_checked
        assert cov.images_checked == sum(
            images for _, images, _ in verdict.program_points
        )
        assert cov.wall_s == verdict.wall_s
        # Litmus enumeration is always exhaustive.
        assert all(e.exhaustive for e in cov.epochs)
        assert cov.exhaustive_fraction() == 1.0
        assert verdict.coverage().to_dict() == cov.to_dict()

    def test_divergent_model_counts_counterexamples(self):
        verdict = check_model("eadr_nofence", generate_programs(limit=12))
        cov = coverage_of_litmus(verdict)
        assert cov.counterexamples == sum(
            1 for _, _, divergent in verdict.program_points if divergent
        )
        assert cov.counterexamples >= 1
        assert cov.images_diverged >= cov.counterexamples
        assert not cov.ok


class TestSerialization:
    POINTS = [
        dict(num_events=3, images_checked=8, bound=10, exhaustive=True,
             wall_s=0.5),
        dict(num_events=3, images_checked=4, images_diverged=1, bound=8,
             exhaustive=True, counterexamples=1, shrink_steps=2,
             wall_s=0.25),
        dict(num_events=20, images_checked=19, bound=19, exhaustive=False,
             wall_s=1.0),
        dict(num_events=0, images_checked=0, crashed=False),
    ]

    def doc(self):
        cov = CoverageStats(label="w/v")
        for point in self.POINTS:
            cov.add_point(**point)
        return cov

    def test_round_trip(self):
        """The journal is the document's serialization: the same points
        emitted as ``campaign_point`` events fold back to it exactly."""
        data = self.doc().to_dict()
        journal = TelemetryJournal()
        for point in self.POINTS:
            journal.emit("campaign_point", label="w/v", **point)
        (back,) = journal_summary(journal.events)["coverage"]
        assert back == data

    def test_derived_fields_recompute(self):
        cov = self.doc()
        data = cov.to_dict()
        assert data["images_recovered"] == (
            data["images_checked"] - data["images_diverged"]
        )
        assert data["exhaustive_images"] + data["sampled_images"] == sum(
            e["images_checked"] for e in data["epochs"]
        )
        assert data["enumeration_bound"] == sum(
            e["bound"] for e in data["epochs"]
        )

    def test_epoch_round_trip(self):
        epoch = EpochCoverage(5, points=2, images_checked=7,
                              images_diverged=1, bound=9, exhaustive=True)
        assert epoch.images_recovered == 6
        journal = TelemetryJournal()
        journal.emit("campaign_point", label="w/v", num_events=5,
                     images_checked=4, images_diverged=1, bound=5)
        journal.emit("campaign_point", label="w/v", num_events=5,
                     images_checked=3, bound=4)
        (doc,) = journal_summary(journal.events)["coverage"]
        assert doc["epochs"] == [epoch.to_dict()]

    def test_summary_mentions_label_and_images(self):
        cov = self.doc()
        line = cov.summary()
        assert "w/v" in line
        assert "31 images" in line
        assert "img/s" in line
