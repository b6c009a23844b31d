"""The ``tier="stream"`` contract in run_variant and the runner.

Requesting the op-stream tier must either take it — batch-deriving
any requested observability (``obs_path == "stream"``) — or fall back
to the machine path with the *reason* surfaced on the result and
warned about.  Never a silent downgrade.  The runner side: ``Job``
carries the tier into its cache key (stream results must not alias
machine results), and ``run_jobs`` journals harness telemetry spans.
"""

import dataclasses
import warnings

import pytest

from repro.analysis.experiments import (
    ExperimentResult,
    run_variant,
    stream_fallback_reason,
)
from repro.analysis.runner import (
    CacheStats,
    Job,
    ResultCache,
    collect_telemetry,
    run_jobs,
)
from repro.errors import ConfigError
from repro.obs import (
    IntervalSampler,
    StallFlame,
    TelemetryJournal,
    TraceRecorder,
    WriteHeatmap,
    journal_summary,
)
from repro.sim.config import tiny_machine
from repro.workloads import get_workload

TINY = {"n": 8, "bsize": 4, "kk_tiles": 1}


def _wl():
    return get_workload("tmm")(**TINY)


class TestStreamTier:
    def test_stream_tier_derives_observability(self):
        result = run_variant(
            _wl(), tiny_machine(), "lp", num_threads=2,
            obs_interval=500.0, tier="stream",
        )
        assert result.obs_path == "stream"
        assert result.obs_fallback_reason is None
        assert result.intervals is not None
        assert result.heatmap is not None
        assert result.flame is not None
        # Replay-tier functional metrics: no caches, no NVMM traffic.
        assert result.nvmm_writes == 0
        assert result.verified

    def test_stream_tier_plain_run_reports_no_obs_path(self):
        result = run_variant(
            _wl(), tiny_machine(), "lp", num_threads=2, tier="stream"
        )
        assert result.obs_path is None
        assert result.intervals is None

    def test_machine_tier_reports_probe_bus_path(self):
        result = run_variant(
            _wl(), tiny_machine(), "lp", num_threads=2,
            obs_interval=500.0,
        )
        assert result.obs_path == "probe-bus"
        assert result.obs_fallback_reason is None

    def test_stream_tier_transplants_observers(self):
        recorder = TraceRecorder()
        sampler = IntervalSampler(500.0)
        heatmap = WriteHeatmap()
        flame = StallFlame(root="tmm/lp")
        result = run_variant(
            _wl(), tiny_machine(), "lp", num_threads=2,
            observers=[recorder, sampler, heatmap, flame],
            tier="stream",
        )
        assert result.obs_path == "stream"
        assert 0 < len(recorder.ops) <= result.ops_executed
        totals = sampler.totals()
        assert sum(
            v for k, v in totals.items() if k.startswith("ops.core")
        ) == result.ops_executed
        assert heatmap.to_dict()["regions"]
        assert flame.to_dict() is not None

    def test_invalid_tier_rejected(self):
        with pytest.raises(ConfigError):
            run_variant(
                _wl(), tiny_machine(), "lp", num_threads=2, tier="gpu"
            )


class TestStreamFallback:
    def _expect_fallback(self, match, **kwargs):
        with pytest.warns(RuntimeWarning, match="stream tier unavailable"):
            result = run_variant(
                _wl(), kwargs.pop("config", tiny_machine()), "lp",
                num_threads=2, obs_interval=500.0, tier="stream",
                **kwargs,
            )
        assert result.obs_path == "probe-bus"
        assert result.obs_fallback_reason is not None
        assert match in result.obs_fallback_reason
        return result

    def test_cleaner_falls_back_with_reason(self):
        self._expect_fallback("cleaner", cleaner_period=200.0)

    def test_drain_falls_back_with_reason(self):
        self._expect_fallback("drain", drain=True)

    def test_schedule_jitter_falls_back_with_reason(self):
        config = dataclasses.replace(tiny_machine(), schedule_jitter=2.0)
        self._expect_fallback("jitter", config=config)

    def test_underivable_observer_falls_back_with_reason(self):
        class Exotic:
            def on_event(self, event):
                pass

        with pytest.warns(RuntimeWarning, match="stream tier unavailable"):
            result = run_variant(
                _wl(), tiny_machine(), "lp", num_threads=2,
                observers=[Exotic()], tier="stream",
            )
        assert "Exotic" in (result.obs_fallback_reason or "")

    def test_fallback_reason_is_none_for_clean_points(self):
        assert stream_fallback_reason(_wl(), tiny_machine()) is None

    def test_machine_tier_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_variant(
                _wl(), tiny_machine(), "lp", num_threads=2,
                cleaner_period=200.0, drain=True,
            )


class TestJobTier:
    def test_tier_distinguishes_cache_keys(self):
        machine_job = Job(_wl(), tiny_machine(), "lp", num_threads=2)
        stream_job = Job(
            _wl(), tiny_machine(), "lp", num_threads=2, tier="stream"
        )
        assert machine_job.cache_key() != stream_job.cache_key()

    def test_default_tier_leaves_key_unchanged(self):
        # Key-stability contract: optional payload fields appear only
        # when non-default, so pre-existing cached machine results
        # survive the tier field's introduction.
        job = Job(_wl(), tiny_machine(), "lp", num_threads=2)
        explicit = Job(
            _wl(), tiny_machine(), "lp", num_threads=2, tier="machine"
        )
        assert job.cache_key() == explicit.cache_key()

    def test_stream_job_runs_through_the_engine(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = Job(
            _wl(), tiny_machine(), "lp", num_threads=2,
            obs_interval=500.0, tier="stream",
        )
        (first,) = run_jobs([job], n_jobs=1, cache=cache)
        assert first.obs_path == "stream"
        (second,) = run_jobs([job], n_jobs=1, cache=cache)
        assert cache.stats.hits == 1
        assert isinstance(second, ExperimentResult)
        assert second.to_dict() == first.to_dict()


class TestTelemetry:
    def _jobs(self):
        return [
            Job(_wl(), tiny_machine(), variant, num_threads=2)
            for variant in ("lp", "ep")
        ]

    def test_run_jobs_records_spans(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        journal = TelemetryJournal()
        run_jobs(self._jobs(), n_jobs=1, cache=cache, journal=journal)
        telemetry = journal_summary(journal.events)["telemetry"]
        assert [s["status"] for s in telemetry["spans"]] == ["run", "run"]
        summary = telemetry["summary"]
        assert (summary["jobs"], summary["hits"], summary["runs"]) == (2, 0, 2)
        assert telemetry["wall_clock_s"] > 0
        assert 0 < summary["utilization"] <= 1.0
        labels = [s["label"] for s in telemetry["spans"]]
        assert labels == ["tmm/lp", "tmm/ep"]
        for span in telemetry["spans"]:
            assert span["end_s"] >= span["start_s"] >= 0.0

    def test_cache_hits_recorded_as_hit_spans(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        journal = TelemetryJournal()
        run_jobs(self._jobs(), n_jobs=1, cache=cache)
        run_jobs(self._jobs(), n_jobs=1, cache=cache, journal=journal)
        telemetry = journal_summary(journal.events)["telemetry"]
        assert [s["status"] for s in telemetry["spans"]] == ["hit", "hit"]
        assert telemetry["cache"] is not None
        assert telemetry["cache"]["hits"] == 2

    def test_batches_accumulate_on_one_clock(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with collect_telemetry() as journal:
            for job in self._jobs():
                run_jobs([job], n_jobs=1, cache=cache)
        telemetry = journal_summary(journal.events)["telemetry"]
        assert telemetry["summary"]["jobs"] == 2
        starts = [s["start_s"] for s in telemetry["spans"]]
        assert starts == sorted(starts)

    def test_to_dict_round_trip_shape(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with collect_telemetry() as journal:
            run_jobs(self._jobs(), n_jobs=1, cache=cache)
        doc = journal_summary(journal.events)["telemetry"]
        assert doc["workers"] == 1
        assert len(doc["spans"]) == 2
        assert doc["summary"]["jobs"] == 2
        assert doc["cache"]["misses"] == 2

    def test_cache_stats_summary_format(self):
        stats = CacheStats(hits=3, misses=4)
        assert stats.summary() == "3/7 hits (42.9%)"
