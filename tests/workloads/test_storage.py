"""The persistent-storage workload family: append-only log and
open-addressed hashmap, region-declared so every scheme (and its
recovery) comes from the scheme layer.

Crash coverage mirrors ``tests/verify/test_checker.py``: sound schemes
must recover exact output on every reachable image, and the broken
``wb_nojournal`` scheme must be flagged with a counterexample.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.schemes import get_scheme
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.verify import EnumerationPlan, check_variant
from repro.workloads import get_workload
from repro.workloads.storage import AppendLog, PersistentHashmap

PLAN = EnumerationPlan(max_exhaustive_events=12, samples=16, seed=0)

#: Crash points spanning early, mid and late execution, plus persist
#: boundaries (the reorderable-event clusters flush points expose).
CRASH_PLANS = [CrashPlan(at_op=o) for o in (10, 40, 90, 160)] + [
    CrashPlan(at_flush=n) for n in range(1, 9)
]

SMALL = {
    "log": {"records": 6, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}


def small(name):
    return get_workload(name)(**SMALL[name])


class TestSpecValidation:
    def test_log_rejects_bad_sizes(self):
        with pytest.raises(WorkloadError):
            AppendLog(records=0)
        with pytest.raises(WorkloadError):
            AppendLog(width=0)
        with pytest.raises(WorkloadError):
            AppendLog(wb_batch=0)

    def test_hashmap_rejects_bad_sizes(self):
        with pytest.raises(WorkloadError):
            PersistentHashmap(capacity=1)
        with pytest.raises(WorkloadError):
            PersistentHashmap(keys=0)
        with pytest.raises(WorkloadError):
            PersistentHashmap(capacity=8, keys=8)
        with pytest.raises(WorkloadError):
            PersistentHashmap(ops=0)
        with pytest.raises(WorkloadError):
            PersistentHashmap(wb_batch=0)

    def test_storage_workloads_are_stream_unsafe(self):
        # Value-dependent bodies (the hashmap probe loop) make
        # pre-decoded replay unsound; the family opts out as a class.
        assert AppendLog.stream_safe is False
        assert PersistentHashmap.stream_safe is False

    def test_deterministic_per_spec(self):
        a = PersistentHashmap(capacity=8, ops=6, keys=3).puts(0)
        b = PersistentHashmap(capacity=8, ops=6, keys=3).puts(0)
        assert a == b
        assert AppendLog(seed=7).record_values(1) == AppendLog(
            seed=7
        ).record_values(1)

    def test_threads_draw_distinct_streams(self):
        wl = small("log")
        assert wl.record_values(0) != wl.record_values(1)


class TestModelAgreement:
    def test_hashmap_probe_slots_match_model(self):
        # The plan's declared slots come from the python model; the
        # simulated probe loop must land in the same slots (the body
        # raises otherwise), and the final table must verify.
        wl = small("hashmap")
        machine = Machine(tiny_machine())
        bound = wl.bind(machine, num_threads=2)
        machine.run(bound.threads("base"))
        assert bound.verify()

    def test_log_head_counts_records(self):
        wl = small("log")
        machine = Machine(tiny_machine())
        bound = wl.bind(machine, num_threads=2)
        machine.run(bound.threads("base"))
        out = bound.output()
        per_thread = wl.records * wl.width + 1
        for tid in range(2):
            assert out[(tid + 1) * per_thread - 1] == wl.records

    def test_reference_matches_output_shape(self):
        for name in sorted(SMALL):
            wl = small(name)
            machine = Machine(tiny_machine())
            bound = wl.bind(machine, num_threads=2)
            machine.run(bound.threads("lp"))
            assert bound.reference().shape == bound.output().shape


class TestCrashRecovery:
    @pytest.mark.parametrize("name", sorted(SMALL))
    @pytest.mark.parametrize("variant", ["lp", "ep", "wal", "write_behind"])
    def test_single_crash_recovers_via_own_procedure(self, name, variant):
        wl = small(name)
        machine = Machine(tiny_machine())
        bound = wl.bind(machine, num_threads=2)
        result, post = run_with_crash(
            machine, bound.threads(variant), CrashPlan(at_op=60)
        )
        assert result.crashed
        rebound = wl.bind(post, num_threads=2)
        post.run(rebound.recovery_threads(variant))
        assert rebound.verify()
        # Recovery is eager (paper III-E): the exact output must be in
        # the *persistent* image, not just architectural state.
        post.drain()
        assert np.array_equal(rebound.output(persistent=True), rebound.reference())

    @pytest.mark.parametrize("name", sorted(SMALL))
    @pytest.mark.parametrize("variant", ["lp", "ep", "wal", "write_behind"])
    def test_sound_schemes_pass_on_every_reachable_image(self, name, variant):
        report = check_variant(
            small(name), tiny_machine(), variant, CRASH_PLANS, PLAN
        )
        assert report.ok, report.counterexamples
        assert any(p.crashed for p in report.points)

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_wb_nojournal_is_flagged(self, name):
        report = check_variant(
            small(name), tiny_machine(), "wb_nojournal", CRASH_PLANS, PLAN
        )
        assert not report.ok
        cex = report.counterexamples[0]
        assert cex.minimized_eids

    def test_broken_scheme_metadata_matches_workload_declaration(self):
        for name in sorted(SMALL):
            cls = get_workload(name)
            for variant in cls.variants:
                assert not get_scheme(variant).broken
            for variant in cls.broken_variants:
                assert get_scheme(variant).broken
