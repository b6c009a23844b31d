"""Tests for the crash-campaign driver."""

from repro.analysis.crashlab import run_crash_campaign
from repro.sim.config import CacheConfig, MachineConfig
from repro.workloads.conv2d import Conv2D
from repro.workloads.tmm import TiledMatMul


def config(cores=3):
    return MachineConfig(
        num_cores=cores,
        l1=CacheConfig(1024, 2, hit_cycles=2.0),
        l2=CacheConfig(4096, 4, hit_cycles=11.0),
    )


class TestCrashCampaign:
    def test_tmm_campaign_all_recover(self):
        campaign = run_crash_campaign(
            TiledMatMul(n=16, bsize=8),
            config(),
            crash_points=[3, 700, 2500],
            num_threads=2,
        )
        assert campaign.crashes >= 1
        assert campaign.all_recovered
        assert campaign.mean_recovery_ops() > 0

    def test_conv_campaign_all_recover(self):
        campaign = run_crash_campaign(
            Conv2D(n=12, ksize=3, row_block=2),
            config(),
            crash_points=[10, 900],
            num_threads=2,
        )
        assert campaign.all_recovered

    def test_late_crash_point_may_not_crash(self):
        campaign = run_crash_campaign(
            TiledMatMul(n=16, bsize=8),
            config(),
            crash_points=[10_000_000],
            num_threads=2,
        )
        assert campaign.crashes == 0
        assert campaign.trials[0].recovered_ok  # verified clean finish
        assert campaign.mean_recovery_ops() == 0.0

    def test_cleaner_bounds_recovery(self):
        slow = run_crash_campaign(
            TiledMatMul(n=16, bsize=8),
            config(),
            crash_points=[2500],
            num_threads=2,
        )
        fast = run_crash_campaign(
            TiledMatMul(n=16, bsize=8),
            config(),
            crash_points=[2500],
            num_threads=2,
            cleaner_period=500.0,
        )
        assert fast.all_recovered and slow.all_recovered
        assert (
            fast.trials[0].recovery_ops <= slow.trials[0].recovery_ops
        )


class TestAllRecoveredAccounting:
    def test_failed_verify_on_non_crashed_trial_counts(self):
        # Regression: a graceful (non-crashed) trial whose verify failed
        # used to be filtered out of all_recovered entirely.
        from repro.analysis.crashlab import CrashCampaignResult, CrashTrial

        campaign = CrashCampaignResult(
            workload="x",
            trials=[CrashTrial(10, False, False, 0, 0, 0.0)],
        )
        assert not campaign.all_recovered

    def test_failed_crashed_trial_counts(self):
        from repro.analysis.crashlab import CrashCampaignResult, CrashTrial

        campaign = CrashCampaignResult(
            workload="x",
            trials=[
                CrashTrial(10, True, True, 5, 3, 1.0),
                CrashTrial(20, True, False, 5, 3, 1.0),
            ],
        )
        assert not campaign.all_recovered


class TestVariantCampaigns:
    def test_ep_campaign_recovers_with_marker_recovery(self):
        campaign = run_crash_campaign(
            TiledMatMul(n=16, bsize=8),
            config(),
            crash_points=[700, 2500],
            num_threads=2,
            variant="ep",
        )
        assert campaign.crashes >= 1
        assert campaign.all_recovered

    def test_wal_campaign_recovers_with_log_rollback(self):
        campaign = run_crash_campaign(
            TiledMatMul(n=16, bsize=8),
            config(),
            crash_points=[700, 2500],
            num_threads=2,
            variant="wal",
        )
        assert campaign.crashes >= 1
        assert campaign.all_recovered


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
