"""Cache-key isolation across the scheme-layer refactor.

The on-disk result cache survives refactors only if the key schema is
stable: same field set, same workload specs, same serialization.  These
tests re-derive ``Job.cache_key`` by hand from its documented payload
— any accidental field addition, removal or rename breaks them — and
pin that the new scheme axis lands in the key the same way variants
always did (every scheme gets its own key; nothing else leaks in).
"""

import hashlib
import json

import pytest

from repro.analysis.runner import (
    CACHE_FORMAT_VERSION,
    Job,
    code_version,
    workload_from_spec,
    workload_spec,
)
from repro.errors import ConfigError
from repro.sim.config import tiny_machine
from repro.workloads import get_workload


def manual_key(job):
    """``Job.cache_key`` recomputed from its documented schema."""
    payload = {
        "workload": workload_spec(job.workload),
        "config": job.config.cache_key(),
        "variant": job.variant,
        "num_threads": job.num_threads,
        "engine": job.engine,
        "cleaner_period": job.cleaner_period,
        "drain": job.drain,
        "code": code_version(),
        "format": CACHE_FORMAT_VERSION,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class TestKeySchemaStability:
    def test_kernel_job_key_matches_documented_schema(self):
        wl = get_workload("tmm")(n=8, bsize=4, kk_tiles=1)
        job = Job(wl, tiny_machine(), "lp", num_threads=2)
        assert job.cache_key() == manual_key(job)

    def test_storage_job_key_matches_documented_schema(self):
        wl = get_workload("hashmap")(capacity=8, ops=6, keys=3)
        for variant in ("base", "lp", "ep", "wal", "write_behind"):
            job = Job(wl, tiny_machine(), variant, num_threads=2)
            assert job.cache_key() == manual_key(job)

    def test_observability_fields_stay_conditional(self):
        # Sampling and provenance tagging are single-run features: a
        # job cannot carry them, so no cached result holds a series.
        wl = get_workload("log")(records=4, width=2)
        for field in ({"obs_interval": 500.0}, {"provenance": True}):
            with pytest.raises(TypeError):
                Job(wl, tiny_machine(), "lp", num_threads=2, **field)


class TestWorkloadSpecs:
    def test_tmm_spec_golden(self):
        # Kernel specs must be untouched by the scheme layer: a spec
        # change re-keys (and so invalidates) every cached kernel run.
        wl = get_workload("tmm")(n=8, bsize=4, kk_tiles=1)
        assert workload_spec(wl) == {
            "__class__": "TiledMatMul",
            "__name__": "tmm",
            "bsize": 4,
            "checksum_org": "table",
            "eager_checksum": False,
            "granularity": "ii",
            "kk_tiles": 1,
            "n": 8,
            "repair": "scratch",
            "seed": 7,
            "tiles": 2,
        }

    def test_storage_specs_are_scalar_and_round_trip(self):
        for name, params in (
            ("log", {"records": 4, "width": 2, "seed": 3, "wb_batch": 2}),
            (
                "hashmap",
                {"capacity": 8, "ops": 6, "keys": 3, "seed": 5, "wb_batch": 2},
            ),
        ):
            wl = get_workload(name)(**params)
            spec = workload_spec(wl)
            rebuilt = workload_from_spec(spec)
            assert workload_spec(rebuilt) == spec

    def test_non_scalar_attrs_are_refused(self):
        wl = get_workload("log")(records=4, width=2)
        wl.extra = [1, 2, 3]
        with pytest.raises(ConfigError):
            workload_spec(wl)


class TestSchemeAxisKeysApart:
    def test_every_scheme_gets_its_own_key(self):
        wl = get_workload("hashmap")(capacity=8, ops=6, keys=3)
        keys = {
            variant: Job(wl, tiny_machine(), variant, num_threads=2).cache_key()
            for variant in ("base", "lp", "ep", "wal", "write_behind")
        }
        assert len(set(keys.values())) == len(keys)

    def test_wb_batch_is_part_of_the_identity(self):
        a = get_workload("hashmap")(capacity=8, ops=6, keys=3, wb_batch=2)
        b = get_workload("hashmap")(capacity=8, ops=6, keys=3, wb_batch=3)
        key_a = Job(a, tiny_machine(), "write_behind", 2).cache_key()
        key_b = Job(b, tiny_machine(), "write_behind", 2).cache_key()
        assert key_a != key_b

    def test_workloads_never_collide(self):
        log = get_workload("log")(records=4, width=2)
        hashmap = get_workload("hashmap")(capacity=8, ops=6, keys=3)
        assert (
            Job(log, tiny_machine(), "lp", 2).cache_key()
            != Job(hashmap, tiny_machine(), "lp", 2).cache_key()
        )
