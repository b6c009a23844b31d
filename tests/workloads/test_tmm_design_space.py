"""Tests for TMM's secondary design space: region granularity
(section III-C/IV), the incremental Repair optimization (section IV),
and the embedded checksum organization (Figure 7a)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.cleaner import PeriodicCleaner
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads.tmm import REPAIR_MODES, TiledMatMul

N, B = 24, 8


def machine(cores=3):
    return Machine(
        MachineConfig(
            num_cores=cores,
            l1=CacheConfig(1024, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 4, hit_cycles=11.0),
        )
    )


class TestSpecValidation:
    def test_unknown_granularity(self):
        with pytest.raises(WorkloadError):
            TiledMatMul(n=N, bsize=B, granularity="kkii")

    def test_unknown_repair(self):
        with pytest.raises(WorkloadError):
            TiledMatMul(n=N, bsize=B, repair="magic")

    def test_unknown_org(self):
        with pytest.raises(WorkloadError):
            TiledMatMul(n=N, bsize=B, checksum_org="blockchain")

    def test_embedded_requires_ii(self):
        with pytest.raises(WorkloadError):
            TiledMatMul(n=N, bsize=B, granularity="kk", checksum_org="embedded")


class TestGranularities:
    @pytest.mark.parametrize("gran", ["jj", "ii", "kk"])
    def test_lp_exact(self, gran):
        wl = TiledMatMul(n=N, bsize=B, granularity=gran)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        assert bound.verify()

    @pytest.mark.parametrize("gran", ["jj", "ii", "kk"])
    @pytest.mark.parametrize("at_op", [700, 8000, 22000])
    def test_recovery_exact(self, gran, at_op):
        wl = TiledMatMul(n=N, bsize=B, granularity=gran)
        m = machine()
        bound = wl.bind(m, num_threads=2)
        res, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
        if not res.crashed:
            pytest.skip("finished first")
        rb = wl.bind(post, num_threads=2, create=False)
        post.run(rb.recovery_threads("lp"))
        assert rb.verify()

    def test_jj_commits_more_checksums_than_ii(self):
        counts = {}
        for gran in ("jj", "ii", "kk"):
            wl = TiledMatMul(n=N, bsize=B, granularity=gran)
            m = machine()
            bound = wl.bind(m, num_threads=1)
            m.run(bound.threads("lp"))
            m.drain()
            counts[gran] = len(bound.lp.table.committed_keys())
        assert counts["jj"] > counts["ii"] > counts["kk"]

    def test_table_dims_match_granularity(self):
        t = N // B
        for gran, slots in (("jj", t * t * t), ("ii", t * t * 2), ("kk", t * 2)):
            wl = TiledMatMul(n=N, bsize=B, granularity=gran)
            bound = wl.bind(machine(), num_threads=2)
            assert bound.lp.table.num_slots == slots


class TestDrainedRecovery:
    """Recovering a drained, complete run finds every frontier region
    consistent, so it repairs nothing and persists nothing.  The kk
    granularity used to re-commit each thread's pass checksum (a flush
    and a fence) all the same."""

    @pytest.mark.parametrize(
        "gran,org",
        [("jj", "table"), ("ii", "table"), ("kk", "table"), ("ii", "embedded")],
    )
    @pytest.mark.parametrize("repair", REPAIR_MODES)
    def test_repairs_and_flushes_nothing(self, gran, org, repair):
        wl = TiledMatMul(
            n=16, bsize=4, kk_tiles=3, granularity=gran,
            checksum_org=org, repair=repair,
        )
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        m.drain()
        post = m.after_crash()
        rb = wl.bind(post, num_threads=2, create=False)
        marks = []
        post.on_mark = lambda mark, cid, clock: marks.append(mark.label)
        res = post.run(rb.recovery_threads("lp"))
        assert rb.verify()
        assert not [label for label in marks if ":repair:" in label]
        assert res.flush_ops == 0


class TestIncrementalRepair:
    def run_crash(self, repair, at_op=20000, cleaner=400.0):
        """Cleaner keeps early regions durable so incremental repair has
        a matching earlier kk to build on."""
        wl = TiledMatMul(n=N, bsize=B, repair=repair)
        m = machine()
        m.cleaner = PeriodicCleaner(cleaner)
        bound = wl.bind(m, num_threads=2)
        res, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
        assert res.crashed
        rb = wl.bind(post, num_threads=2, create=False)
        rres = post.run(rb.recovery_threads("lp"))
        return rb, rres

    def test_incremental_recovers_exactly(self):
        rb, _ = self.run_crash("incremental")
        assert rb.verify()

    def test_incremental_not_more_work_than_scratch(self):
        _, scratch = self.run_crash("scratch")
        _, incr = self.run_crash("incremental")
        # scanning costs loads too, so require "not substantially more"
        assert incr.ops_executed <= scratch.ops_executed * 1.1

    def test_incremental_survives_double_crash(self):
        wl = TiledMatMul(n=N, bsize=B, repair="incremental")
        m = machine()
        m.cleaner = PeriodicCleaner(400.0)
        bound = wl.bind(m, num_threads=2)
        _, post1 = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=20000))
        rb1 = wl.bind(post1, num_threads=2, create=False)
        r2 = post1.run(rb1.recovery_threads("lp"), crash_at_op=5000)
        assert r2.crashed
        post2 = post1.after_crash()
        rb2 = wl.bind(post2, num_threads=2, create=False)
        post2.run(rb2.recovery_threads("lp"))
        assert rb2.verify()


class TestEmbeddedOrganization:
    def test_embedded_exact(self):
        wl = TiledMatMul(n=N, bsize=B, checksum_org="embedded")
        m = machine()
        bound = wl.bind(m, num_threads=2)
        m.run(bound.threads("lp"))
        assert bound.verify()

    def test_embedded_recovery(self):
        wl = TiledMatMul(n=N, bsize=B, checksum_org="embedded")
        m = machine()
        bound = wl.bind(m, num_threads=2)
        res, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=9000))
        assert res.crashed
        rb = wl.bind(post, num_threads=2, create=False)
        post.run(rb.recovery_threads("lp"))
        assert rb.verify()

    def test_output_excludes_checksum_columns(self):
        wl = TiledMatMul(n=N, bsize=B, checksum_org="embedded")
        bound = wl.bind(machine(), num_threads=1)
        assert bound.output().shape == (N, N)
        assert bound.c.cols == N + N // B

    def test_space_overhead_comparison(self):
        """Figure 7's trade-off: the paper's complaint about embedding
        is space scaling with N (rows), not region count."""
        emb = TiledMatMul(n=N, bsize=B, checksum_org="embedded")
        tab = TiledMatMul(n=N, bsize=B, checksum_org="table")
        b_emb = emb.bind(machine(), num_threads=2)
        b_tab = tab.bind(machine(), num_threads=2)
        assert b_emb.checksum_space_bytes == N * (N // B) * 8
        assert b_tab.checksum_space_bytes == (N // B) ** 2 * 2 * 8

    def test_checksum_columns_start_invalid(self):
        from repro.core.hashtable import INVALID_CHECKSUM

        wl = TiledMatMul(n=N, bsize=B, checksum_org="embedded")
        bound = wl.bind(machine(), num_threads=1)
        full = bound.c.to_numpy(persistent=True)
        assert np.all(full[:, N:] == INVALID_CHECKSUM)
