"""One execution path for ``run_variant`` and the runner.

There is no op-stream execution tier: every ``run_variant`` call and
every ``Job`` runs on the machine, and any requested observability
rides its probe bus.  These ids once covered the tier's contract and
now pin what replaced it, point for point: the points the tier served
get their observability from the probe bus, the points it refused
(cleaner, drain, schedule jitter, custom observers) run without any
warning, the ``tier`` keyword is rejected rather than ignored, and
default cache keys are byte-identical to what they were while the tier
existed.  The runner side also journals harness telemetry spans.
"""

import dataclasses
import warnings

import pytest

import repro.analysis.runner as runner
from repro.analysis.experiments import ExperimentResult, run_variant
from repro.analysis.runner import (
    CacheStats,
    Job,
    ResultCache,
    collect_telemetry,
    run_jobs,
)
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


def _result_fields():
    """``ExperimentResult.to_dict()``'s keys: its fields, no more (the
    heatmap, flame and derivation-path keys went with the tier)."""
    return {f.name for f in dataclasses.fields(ExperimentResult)}


def _sampled_ops(intervals):
    return sum(
        sum(values)
        for column, values in intervals["columns"].items()
        if column.startswith("ops.core")
    )


class TestStreamTier:
    def test_stream_tier_derives_observability(self):
        result = run_variant(
            _wl(), tiny_machine(), "lp", num_threads=2, obs_interval=500.0,
        )
        assert result.intervals["interval"] == 500.0
        assert _sampled_ops(result.intervals) == result.ops_executed
        # Machine-path metrics: the cache hierarchy and NVMM are live.
        assert result.nvmm_reads > 0
        assert result.l2_miss_rate > 0
        assert result.verified

    def test_stream_tier_plain_run_reports_no_obs_path(self):
        result = run_variant(_wl(), tiny_machine(), "lp", num_threads=2)
        assert result.intervals is None
        assert set(result.to_dict()) == _result_fields()

    def test_machine_tier_reports_probe_bus_path(self):
        # Sampling on the probe bus observes the run without changing
        # it: every metric matches the unsampled run.
        plain = run_variant(_wl(), tiny_machine(), "lp", num_threads=2)
        sampled = run_variant(
            _wl(), tiny_machine(), "lp", num_threads=2, obs_interval=500.0,
        )
        assert sampled.intervals is not None
        assert dataclasses.replace(sampled, intervals=None) == plain

    def test_stream_tier_transplants_observers(self):
        recorder = TraceRecorder()
        sampler = IntervalSampler(500.0)
        heatmap = WriteHeatmap()
        flame = StallFlame(root="tmm/lp")
        result = run_variant(
            _wl(), tiny_machine(), "lp", num_threads=2,
            observers=[recorder, sampler, heatmap, flame],
        )
        assert 0 < len(recorder.ops) <= result.ops_executed
        totals = sampler.totals()
        assert sum(
            v for k, v in totals.items() if k.startswith("ops.core")
        ) == result.ops_executed
        assert heatmap.to_dict()["regions"]
        assert flame.to_dict() is not None

    def test_invalid_tier_rejected(self):
        for tier in ("stream", "machine"):
            with pytest.raises(TypeError):
                run_variant(
                    _wl(), tiny_machine(), "lp", num_threads=2, tier=tier
                )


class TestStreamFallback:
    """Points the stream tier could not take now run on the one path:
    observed, verified, and without a warning."""

    def _run_without_warnings(self, config=None, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_variant(
                _wl(), config or tiny_machine(), "lp", num_threads=2,
                obs_interval=500.0, **kwargs,
            )
        assert result.intervals is not None
        assert result.verified
        return result

    def test_cleaner_falls_back_with_reason(self):
        result = self._run_without_warnings(cleaner_period=200.0)
        assert result.cleaner_writes > 0

    def test_drain_falls_back_with_reason(self):
        result = self._run_without_warnings(drain=True)
        assert result.drain_writes > 0

    def test_schedule_jitter_falls_back_with_reason(self):
        config = dataclasses.replace(tiny_machine(), schedule_jitter=2.0)
        jittered = self._run_without_warnings(config=config)
        steady = self._run_without_warnings()
        assert jittered.exec_cycles != steady.exec_cycles

    def test_underivable_observer_falls_back_with_reason(self):
        # An observer type repro.obs knows nothing about: the probe
        # bus feeds it every op like any built-in observer.
        class Exotic:
            def __init__(self):
                self.ops = 0

            def on_op(self, event):
                self.ops += 1

        exotic = Exotic()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_variant(
                _wl(), tiny_machine(), "lp", num_threads=2,
                observers=[exotic],
            )
        assert exotic.ops == result.ops_executed > 0

    def test_fallback_reason_is_none_for_clean_points(self):
        result = self._run_without_warnings()
        doc = result.to_dict()
        assert set(doc) == _result_fields()
        assert doc["intervals"] is not None

    def test_machine_tier_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_variant(
                _wl(), tiny_machine(), "lp", num_threads=2,
                cleaner_period=200.0, drain=True,
            )


class TestJobTier:
    def test_default_tier_leaves_key_unchanged(self, monkeypatch):
        # Key-stability contract: with the source digest held fixed, a
        # default job keys exactly as it did while Job carried a tier
        # field, so cached machine results survived its removal.  A
        # deliberate re-key (a CACHE_FORMAT_VERSION bump, a new config
        # field) updates these literals.
        monkeypatch.setattr(runner, "code_version", lambda: "0" * 64)
        plain = Job(_wl(), tiny_machine(), "lp", num_threads=2)
        sampled = Job(
            _wl(), tiny_machine(), "lp", num_threads=2, obs_interval=500.0
        )
        assert plain.cache_key() == (
            "95fe36051e78f06baaa1f90306a4c0060a2968ef07eb82928e246eede9e8f55b"
        )
        assert sampled.cache_key() == (
            "b25ef188273b977be3001e7e9e52fdb61b398faa4cbc9ce7ec2ef54eaa47b0ae"
        )

    def test_stream_job_runs_through_the_engine(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = Job(
            _wl(), tiny_machine(), "lp", num_threads=2, obs_interval=500.0,
        )
        (first,) = run_jobs([job], n_jobs=1, cache=cache)
        assert first.intervals is not None
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
