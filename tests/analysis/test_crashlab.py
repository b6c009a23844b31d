"""Tests for crash campaigns: the single-image crash path (the
crash-state checker with no enumeration plan) and crashcheck campaigns."""

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan
from repro.verify import check_variant
from repro.workloads.conv2d import Conv2D
from repro.workloads.tmm import BoundTMM, TiledMatMul


def config(cores=3):
    return MachineConfig(
        num_cores=cores,
        l1=CacheConfig(1024, 2, hit_cycles=2.0),
        l2=CacheConfig(4096, 4, hit_cycles=11.0),
    )


def one_image(workload, crash_points, variant="lp", **kwargs):
    """Crash at each op count and check the one image the schedule left."""
    return check_variant(
        workload,
        config(),
        variant,
        [CrashPlan(at_op=op) for op in crash_points],
        plan=None,
        num_threads=2,
        **kwargs,
    )


class TestCrashCampaign:
    def test_tmm_campaign_all_recover(self):
        report = one_image(TiledMatMul(n=16, bsize=8), [3, 700, 2500])
        crashed = [p for p in report.points if p.crashed]
        assert crashed
        assert report.ok
        assert all(p.recovery_ops > 0 for p in crashed)
        # One image per crashed point, exhaustive by construction.
        assert all(
            (p.images_checked, p.bound, p.num_events, p.exhaustive)
            == (1, 1, 0, True)
            for p in crashed
        )

    def test_conv_campaign_all_recover(self):
        report = one_image(Conv2D(n=12, ksize=3, row_block=2), [10, 900])
        assert report.ok

    def test_late_crash_point_may_not_crash(self):
        report = one_image(TiledMatMul(n=16, bsize=8), [10_000_000])
        (point,) = report.points
        assert not point.crashed
        assert point.ok  # verified clean finish
        assert point.writes_before_crash > 0
        assert (point.images_checked, point.recovery_ops) == (0, 0)

    def test_cleaner_bounds_recovery(self):
        (slow,) = one_image(TiledMatMul(n=16, bsize=8), [2500]).points
        (fast,) = one_image(
            TiledMatMul(n=16, bsize=8), [2500], cleaner_period=500.0
        ).points
        assert fast.ok and slow.ok
        assert fast.recovery_ops <= slow.recovery_ops


class TestAllRecoveredAccounting:
    def test_failed_verify_on_non_crashed_trial_counts(self, monkeypatch):
        # A point that finishes before its trigger with wrong output is
        # a bug, not a pass.
        monkeypatch.setattr(BoundTMM, "verify", lambda self: False)
        report = one_image(TiledMatMul(n=16, bsize=8), [10_000_000])
        (point,) = report.points
        assert not point.crashed
        assert not point.ok
        assert not report.ok

    def test_failed_crashed_trial_counts(self, monkeypatch):
        # Recovery is exact at the first point and wrong at the second.
        verdicts = iter([True, False])
        monkeypatch.setattr(BoundTMM, "verify", lambda self: next(verdicts))
        report = one_image(TiledMatMul(n=16, bsize=8), [700, 2500])
        first, second = report.points
        assert first.crashed and first.ok
        assert second.crashed and not second.ok
        assert second.images_diverged == 1
        assert not report.ok
        assert report.coverage().images_diverged == 1


class TestVariantCampaigns:
    def test_ep_campaign_recovers_with_marker_recovery(self):
        report = one_image(TiledMatMul(n=16, bsize=8), [700, 2500], "ep")
        assert any(p.crashed for p in report.points)
        assert report.ok

    def test_wal_campaign_recovers_with_log_rollback(self):
        report = one_image(TiledMatMul(n=16, bsize=8), [700, 2500], "wal")
        assert any(p.crashed for p in report.points)
        assert report.ok


class TestCrashPlansFor:
    def test_grid_covers_ops_and_flush_boundaries(self):
        from repro.analysis.crashlab import crash_plans_for

        plans = crash_plans_for(
            TiledMatMul(n=8, bsize=4, kk_tiles=1), config(), "ep",
            op_points=4, max_flush_points=6,
        )
        op_plans = [p for p in plans if p.at_op is not None]
        flush_plans = [p for p in plans if p.at_flush is not None]
        assert len(op_plans) == 4
        assert 1 <= len(flush_plans) <= 6
        assert flush_plans[-1].at_flush >= flush_plans[0].at_flush

    def test_lp_has_no_flush_boundaries(self):
        from repro.analysis.crashlab import crash_plans_for

        plans = crash_plans_for(
            TiledMatMul(n=8, bsize=4, kk_tiles=1), config(), "lp",
            op_points=3,
        )
        assert all(p.at_flush is None for p in plans)
        assert len(plans) == 3

    def test_all_boundaries_kept_when_uncapped(self):
        from repro.analysis.crashlab import crash_plans_for

        plans = crash_plans_for(
            TiledMatMul(n=8, bsize=4, kk_tiles=1), config(), "ep",
            op_points=0, max_flush_points=None,
        )
        flushes = [p.at_flush for p in plans]
        assert flushes == list(range(1, len(flushes) + 1))


class TestCrashcheckCampaign:
    def test_campaign_runs_and_caches(self, tmp_path):
        from repro.analysis.crashlab import run_crashcheck_campaign
        from repro.analysis.runner import ResultCache

        kwargs = dict(
            op_points=2,
            max_flush_points=2,
            max_exhaustive_events=6,
            samples=4,
            num_threads=2,
        )
        workload = TiledMatMul(n=8, bsize=4, kk_tiles=1)
        cache = ResultCache(str(tmp_path))
        reports = run_crashcheck_campaign(
            workload, config(), ["lp", "ep"], cache=cache, **kwargs
        )
        assert set(reports) == {"lp", "ep"}
        assert all(r.ok for r in reports.values())
        assert cache.stats.stores == 2

        warm = ResultCache(str(tmp_path))
        again = run_crashcheck_campaign(
            workload, config(), ["lp", "ep"], cache=warm, **kwargs
        )
        assert warm.stats.hits == 2 and warm.stats.misses == 0
        assert again["ep"].to_dict() == reports["ep"].to_dict()

    def test_campaign_flags_broken_variant(self):
        from repro.analysis.crashlab import run_crashcheck_campaign

        reports = run_crashcheck_campaign(
            TiledMatMul(n=8, bsize=4, kk_tiles=1),
            config(),
            ["ep_nofence"],
            op_points=0,
            max_flush_points=12,
            max_exhaustive_events=10,
            samples=4,
            num_threads=2,
        )
        report = reports["ep_nofence"]
        assert not report.ok
        assert all(len(c.minimized_eids) >= 1 for c in report.counterexamples)

    def test_journal_folds_to_each_report_coverage(self, tmp_path):
        # Cold, pool workers journal the points as they check them;
        # warm, the cache serves every report and the campaign journals
        # the stored points.  Either way each variant's fold is its
        # report's whole coverage document.
        from repro.analysis.crashlab import run_crashcheck_campaign
        from repro.analysis.runner import ResultCache, collect_telemetry
        from repro.obs import journal_summary, read_journal

        kwargs = dict(
            op_points=1,
            max_flush_points=12,
            max_exhaustive_events=10,
            samples=4,
            num_threads=2,
            n_jobs=2,
        )
        workload = TiledMatMul(n=8, bsize=4, kk_tiles=1)
        for hits, run in ((0, "cold"), (2, "warm")):
            cache = ResultCache(str(tmp_path / "cache"))
            path = str(tmp_path / f"{run}.jsonl")
            # As `repro crashcheck --journal` runs it: job spans and
            # points go to one file.
            with collect_telemetry(path):
                reports = run_crashcheck_campaign(
                    workload, config(), ["ep", "ep_nofence"], cache=cache,
                    journal_path=path, **kwargs
                )
            assert cache.stats.hits == hits
            assert not reports["ep_nofence"].ok
            folded = journal_summary(read_journal(path))
            docs = {doc["label"]: doc for doc in folded["coverage"]}
            assert set(docs) == {"tmm/ep", "tmm/ep_nofence"}
            for variant, report in reports.items():
                from_journal = docs[f"tmm/{variant}"]
                from_report = report.coverage().to_dict()
                # wall_s is rounded per event line; the rest is exact.
                for doc in (from_journal, from_report):
                    doc.pop("wall_s")
                    doc.pop("images_per_sec")
                assert from_journal == from_report, (run, variant)
            assert len(folded["counterexamples"]) == sum(
                len(r.counterexamples) for r in reports.values()
            )
            assert folded["telemetry"]["summary"]["hits"] == hits
