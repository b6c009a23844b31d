"""Tests for the parallel experiment engine and its on-disk cache."""

import dataclasses
import json
import os

import pytest

from repro.analysis.experiments import ExperimentResult, run_variant
from repro.analysis.runner import (
    Job,
    ResultCache,
    code_version,
    run_jobs,
    workload_from_spec,
    workload_spec,
)
from repro.errors import ConfigError
from repro.sim.config import CacheConfig, MachineConfig
from repro.workloads.tmm import TiledMatMul


def config(cores=3):
    return MachineConfig(
        num_cores=cores,
        l1=CacheConfig(1024, 2, hit_cycles=2.0),
        l2=CacheConfig(4096, 4, hit_cycles=11.0),
    )


def tmm(**kw):
    kw.setdefault("n", 16)
    kw.setdefault("bsize", 8)
    return TiledMatMul(**kw)


def jobs_for(variants=("base", "lp")):
    return [Job(tmm(), config(), v, num_threads=2) for v in variants]


class TestCacheKey:
    def test_stable_across_instances(self):
        assert jobs_for()[0].cache_key() == jobs_for()[0].cache_key()

    def test_sensitive_to_every_knob(self):
        base = Job(tmm(), config(), "lp", num_threads=2)
        different = [
            Job(tmm(n=24), config(), "lp", num_threads=2),
            Job(tmm(seed=8), config(), "lp", num_threads=2),
            Job(tmm(), config(cores=4), "lp", num_threads=2),
            Job(tmm(), config().with_l2_size(8192), "lp", num_threads=2),
            Job(tmm(), config(), "base", num_threads=2),
            Job(tmm(), config(), "lp", num_threads=1),
            Job(tmm(), config(), "lp", num_threads=2, engine="parity"),
            Job(tmm(), config(), "lp", num_threads=2, cleaner_period=100.0),
            Job(tmm(), config(), "lp", num_threads=2, drain=True),
        ]
        keys = {j.cache_key() for j in different}
        assert len(keys) == len(different)
        assert base.cache_key() not in keys

    def test_machine_config_cache_key_canonical(self):
        assert config().cache_key() == config().cache_key()
        assert config().cache_key() != config(cores=4).cache_key()
        assert "num_cores" in config().cache_key()

    def test_workload_spec_is_scalars(self):
        spec = workload_spec(tmm())
        assert spec["__name__"] == "tmm"
        assert spec["n"] == 16
        json.dumps(spec)  # JSON-safe by construction

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)


class TestWorkloadSpecRoundTrip:
    """workload_from_spec rebuilds exactly the workload a spec named."""

    def test_round_trips_every_registered_workload(self):
        from repro.workloads import available_workloads, get_workload

        params = {
            "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
            "fft": {"n": 16},
            "gauss": {"n": 8, "row_block": 4},
            "cholesky": {"n": 8, "col_block": 4},
            "conv2d": {"n": 8, "row_block": 2},
        }
        for name in available_workloads():
            workload = get_workload(name)(**params.get(name, {}))
            spec = workload_spec(workload)
            rebuilt = workload_from_spec(spec)
            assert type(rebuilt) is type(workload)
            assert workload_spec(rebuilt) == spec

    def test_derived_attributes_are_rederived_not_passed(self):
        # tmm's spec records the derived tile count; the constructor
        # does not accept it, so the round trip must re-derive it.
        spec = workload_spec(tmm(n=16, bsize=8))
        assert "tiles" in spec
        rebuilt = workload_from_spec(spec)
        assert rebuilt.tiles == tmm(n=16, bsize=8).tiles

    def test_rejects_specs_without_a_name(self):
        with pytest.raises(ConfigError):
            workload_from_spec({"n": 16})

    def test_rejects_unknown_workloads(self):
        with pytest.raises(Exception):
            workload_from_spec({"__name__": "nope"})

    def test_rejects_drifted_specs(self):
        # A stored spec whose parameters no longer reproduce themselves
        # (here: a stale derived attribute) must fail loudly instead of
        # silently measuring a different problem.
        spec = workload_spec(tmm(n=16, bsize=8))
        spec["tiles"] = 99
        with pytest.raises(ConfigError):
            workload_from_spec(spec)


class TestObsCacheIsolation:
    """Observability must never poison (or be served from) the cache.

    Interval sampling and provenance tagging are single-run features
    (``run_variant``): no job carries them, so the cache only ever
    holds plain results, keyed on what the simulation depends on.
    """

    def test_obs_interval_changes_the_key(self):
        for interval in (500.0, 1000.0):
            with pytest.raises(TypeError):
                Job(tmm(), config(), "lp", num_threads=2,
                    obs_interval=interval)

    def test_unsampled_key_matches_pre_observability_layout(self):
        # Observability adds no field: the key is exactly the payload
        # of what the simulation depends on, byte for byte.
        import hashlib

        from repro.analysis.runner import CACHE_FORMAT_VERSION

        job = Job(tmm(), config(), "lp", num_threads=2)
        payload = json.dumps(
            {
                "workload": workload_spec(job.workload),
                "config": job.config.cache_key(),
                "variant": "lp",
                "num_threads": 2,
                "engine": "modular",
                "cleaner_period": None,
                "drain": False,
                "code": code_version(),
                "format": CACHE_FORMAT_VERSION,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        expected = hashlib.sha256(payload.encode()).hexdigest()
        assert job.cache_key() == expected

    def test_provenance_keying_mirrors_obs_interval(self):
        with pytest.raises(TypeError):
            Job(tmm(), config(), "lp", num_threads=2, provenance=True)

    def test_sampled_results_round_trip_through_the_cache(self, tmp_path):
        # Fresh or served from the cache, an engine result carries no
        # interval series.
        cache = ResultCache(root=str(tmp_path))
        job = Job(tmm(), config(), "lp", num_threads=2)
        (first,) = run_jobs([job], cache=cache)
        (second,) = run_jobs([job], cache=cache)
        assert cache.stats.hits == 1
        assert first.intervals is None and second.intervals is None

    def test_plain_and_sampled_results_agree_on_metrics(self, tmp_path):
        # Sampling observes a run without changing it: a sampled single
        # run matches the cached plain result on every metric.
        cache = ResultCache(root=str(tmp_path))
        job = Job(tmm(), config(), "lp", num_threads=2)
        run_jobs([job], cache=cache)
        (cached,) = run_jobs([job], cache=cache)
        assert cache.stats.hits == 1
        sampled = run_variant(
            tmm(), config(), "lp", num_threads=2, obs_interval=500.0
        )
        assert sampled.intervals["num_buckets"] > 0
        assert dataclasses.replace(sampled, intervals=None) == cached


class TestSerialEngine:
    def test_matches_run_variant_exactly(self):
        direct = run_variant(tmm(), config(), "lp", num_threads=2)
        (engine,) = run_jobs([Job(tmm(), config(), "lp", num_threads=2)])
        assert engine == direct

    def test_order_preserved(self):
        results = run_jobs(jobs_for(("base", "lp", "ep")))
        assert [r.variant for r in results] == ["base", "lp", "ep"]

    def test_duplicate_jobs_simulated_once(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        results = run_jobs(jobs_for(("lp", "lp")), cache=cache)
        assert results[0] == results[1]
        assert cache.stats.stores == 1

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ConfigError):
            run_jobs(jobs_for(), n_jobs=0)


class TestParallelEngine:
    def test_bitwise_equal_to_serial(self):
        serial = run_jobs(jobs_for(("base", "lp", "ep")), n_jobs=1)
        parallel = run_jobs(jobs_for(("base", "lp", "ep")), n_jobs=2)
        assert serial == parallel  # full dataclass equality, every field

    def test_parallel_fills_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs(jobs_for(), n_jobs=2, cache=cache)
        assert cache.stats.stores == 2
        rerun = ResultCache(str(tmp_path))
        results = run_jobs(jobs_for(), n_jobs=2, cache=rerun)
        assert rerun.stats.hits == 2 and rerun.stats.misses == 0
        assert [r.variant for r in results] == ["base", "lp"]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = run_jobs(jobs_for(), cache=cache)
        assert cache.stats.misses == 2 and cache.stats.stores == 2
        second = run_jobs(jobs_for(), cache=cache)
        assert cache.stats.hits == 2
        assert first == second

    def test_hits_only_need_no_simulation(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        run_jobs(jobs_for(), cache=cache)
        monkeypatch.setattr(
            "repro.analysis.runner.run_variant",
            lambda *a, **k: pytest.fail("cache hit must not re-simulate"),
        )
        results = run_jobs(jobs_for(), cache=cache)
        assert [r.variant for r in results] == ["base", "lp"]

    def test_corrupted_entry_falls_back_to_rerun(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (good,) = run_jobs(jobs_for(("lp",)), cache=cache)
        key = jobs_for(("lp",))[0].cache_key()
        path = cache._path(key)
        with open(path, "w") as fh:
            fh.write("{ not json at all")
        fresh = ResultCache(str(tmp_path))
        (recovered,) = run_jobs(jobs_for(("lp",)), cache=fresh)
        assert recovered == good
        assert fresh.stats.corrupt == 1
        # the re-run rewrote a valid entry
        assert ResultCache(str(tmp_path)).get(key) == good

    def test_wrong_schema_entry_is_corrupt(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (good,) = run_jobs(jobs_for(("lp",)), cache=cache)
        key = jobs_for(("lp",))[0].cache_key()
        with open(cache._path(key), "r+") as fh:
            record = json.load(fh)
            record["result"]["not_a_field"] = 1
            fh.seek(0)
            json.dump(record, fh)
            fh.truncate()
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.stats.corrupt == 1

    def test_key_mismatch_is_corrupt(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (good,) = run_jobs(jobs_for(("lp",)), cache=cache)
        key = jobs_for(("lp",))[0].cache_key()
        other = "ab" + key[2:]
        os.makedirs(os.path.dirname(cache._path(other)), exist_ok=True)
        os.rename(cache._path(key), cache._path(other))
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(other) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs(jobs_for(), cache=cache)
        assert cache.clear() == 2
        assert cache.get(jobs_for()[0].cache_key()) is None

    def test_run_variant_cached_wrapper(self, tmp_path):
        # One point through the cache is a one-job run_jobs batch.
        cache = ResultCache(str(tmp_path))
        job = Job(tmm(), config(), "lp", num_threads=2)
        (r1,) = run_jobs([job], n_jobs=1, cache=cache)
        (r2,) = run_jobs([job], n_jobs=1, cache=cache)
        assert r1 == r2
        assert (cache.stats.stores, cache.stats.hits) == (1, 1)


class TestResultRoundtrip:
    def test_to_from_dict_lossless(self):
        result = run_variant(tmm(), config(), "lp", num_threads=2, drain=True)
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result

    def test_from_dict_rejects_unknown_fields(self):
        result = run_variant(tmm(), config(), "base", num_threads=2)
        data = result.to_dict()
        data["bogus"] = 1
        with pytest.raises(KeyError):
            ExperimentResult.from_dict(data)


class TestCrashCheckJob:
    def make_job(self, **kw):
        from repro.analysis.runner import CrashCheckJob

        kw.setdefault("workload", TiledMatMul(n=8, bsize=4, kk_tiles=1))
        kw.setdefault("config", config())
        kw.setdefault("variant", "ep")
        kw.setdefault("crash_plans", ({"at_flush": 2}, {"at_op": 100}))
        kw.setdefault("max_exhaustive_events", 8)
        kw.setdefault("samples", 4)
        return CrashCheckJob(**kw)

    def test_run_returns_report(self):
        report = self.make_job().run()
        assert report.variant == "ep"
        assert len(report.points) == 2
        assert report.ok

    def test_cache_key_distinct_from_experiment_jobs(self):
        job = self.make_job()
        exp = Job(TiledMatMul(n=8, bsize=4, kk_tiles=1), config(), "ep")
        assert job.cache_key() != exp.cache_key()

    def test_cache_key_sensitive_to_plans_and_bounds(self):
        keys = {
            self.make_job().cache_key(),
            self.make_job(crash_plans=({"at_flush": 3},)).cache_key(),
            self.make_job(max_exhaustive_events=9).cache_key(),
            self.make_job(samples=5).cache_key(),
            self.make_job(seed=1).cache_key(),
            self.make_job(variant="lp").cache_key(),
        }
        assert len(keys) == 6

    def test_run_jobs_with_decode_roundtrips_cache(self, tmp_path):
        from repro.verify import CrashCheckReport

        cache = ResultCache(str(tmp_path))
        decode = CrashCheckReport.from_dict
        (first,) = run_jobs([self.make_job()], cache=cache, decode=decode)
        assert cache.stats.stores == 1
        (second,) = run_jobs([self.make_job()], cache=cache, decode=decode)
        assert cache.stats.hits == 1
        assert second.to_dict() == first.to_dict()

    def test_decode_mismatch_treated_as_corruption(self, tmp_path):
        # An ExperimentResult record must never decode as a crashcheck
        # report (or vice versa): the decoder rejects it, the engine
        # re-runs.
        from repro.verify import CrashCheckReport

        cache = ResultCache(str(tmp_path))
        (result,) = run_jobs(jobs_for(("lp",)), cache=cache)
        key = jobs_for(("lp",))[0].cache_key()
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(key, decode=CrashCheckReport.from_dict) is None
        assert fresh.stats.corrupt == 1

    @pytest.mark.parametrize(
        "field", ["images_diverged", "writes_before_crash", "recovery_ops"]
    )
    def test_report_missing_a_field_treated_as_corruption(
        self, tmp_path, field
    ):
        # Reports decode strictly: a stored point that lacks a field is
        # deleted and re-run, never served with a default in its place.
        from repro.verify import CrashCheckReport

        decode = CrashCheckReport.from_dict
        cache = ResultCache(str(tmp_path))
        (good,) = run_jobs([self.make_job()], cache=cache, decode=decode)
        key = self.make_job().cache_key()
        path = cache._path(key)
        with open(path, "r+") as fh:
            record = json.load(fh)
            del record["result"]["points"][0][field]
            fh.seek(0)
            json.dump(record, fh)
            fh.truncate()
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(key, decode=decode) is None
        assert fresh.stats.corrupt == 1
        assert not os.path.exists(path)
        (rerun,) = run_jobs([self.make_job()], cache=fresh, decode=decode)
        assert fresh.stats.stores == 1
        assert rerun.ok and len(rerun.points) == len(good.points)
