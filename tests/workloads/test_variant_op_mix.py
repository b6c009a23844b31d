"""Op-level assertions about what each variant actually issues.

These pin the *mechanism* behind the paper's cost comparisons (Table I):
LP adds computes and plain stores only; EP adds clflushopt + sfence;
WAL adds logging stores on top.
"""

from collections import Counter

import pytest

from repro.obs import TraceRecorder, probed
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.isa import Fence, Flush, FlushWB, Store
from repro.sim.machine import Machine
from repro.workloads import get_workload

SPECS = {
    "tmm": dict(n=16, bsize=8),
    "cholesky": dict(n=8, col_block=4),
    "conv2d": dict(n=12, ksize=3, row_block=2),
    "gauss": dict(n=8, row_block=4),
    "fft": dict(n=32),
}


def op_mix(name, variant, threads=1):
    """Retired-op counts by ISA type, recorded on the probe bus."""
    wl = get_workload(name)(**SPECS[name])
    m = Machine(
        MachineConfig(
            num_cores=max(threads, 2),
            l1=CacheConfig(1024, 2, hit_cycles=2.0),
            l2=CacheConfig(8192, 4, hit_cycles=11.0),
        )
    )
    bound = wl.bind(m, num_threads=threads)
    recorder = TraceRecorder()
    with probed(m, [recorder]):
        m.run(bound.threads(variant))
    assert bound.verify()
    return Counter(type(ev.op) for ev in recorder.ops)


class TestTableOne:
    """Table I: cache-line flushes and durable barriers are 'Needed'
    for Eager and '-' for Lazy."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_lp_issues_no_flushes_or_fences(self, name):
        ops = op_mix(name, "lp")
        assert ops[Flush] == 0
        assert ops[FlushWB] == 0
        assert ops[Fence] == 0

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_ep_issues_flushes_and_fences(self, name):
        ops = op_mix(name, "ep")
        assert ops[Flush] + ops[FlushWB] > 0
        assert ops[Fence] > 0


class TestTmmAccounting:
    def test_ep_flush_count_formula(self):
        """One clflushopt per c row-stride line plus one per tile
        marker: bsize-elem strides at 8 elems/line = 1 line each."""
        n, b = SPECS["tmm"]["n"], SPECS["tmm"]["bsize"]
        tiles = n // b
        ops = op_mix("tmm", "ep")
        strides = tiles * tiles * tiles * b  # per (kk,ii,jj): b rows
        markers = tiles * tiles * tiles  # one per tile transaction
        assert ops[Flush] == strides + markers

    def test_ep_fence_count_formula(self):
        n, b = SPECS["tmm"]["n"], SPECS["tmm"]["bsize"]
        tiles = n // b
        ops = op_mix("tmm", "ep")
        # two fences per tile transaction (data fence + marker fence)
        assert ops[Fence] == 2 * tiles * tiles * tiles

    def test_wal_store_amplification(self):
        """WAL stores ~3x the data stores: log addr + log value + data
        (plus status/count bookkeeping)."""
        base_stores = op_mix("tmm", "base")[Store]
        wal_stores = op_mix("tmm", "wal")[Store]
        assert wal_stores > 2.8 * base_stores

    def test_lp_store_overhead_is_one_checksum_per_region(self):
        n, b = SPECS["tmm"]["n"], SPECS["tmm"]["bsize"]
        tiles = n // b
        base_stores = op_mix("tmm", "base")[Store]
        lp_stores = op_mix("tmm", "lp")[Store]
        assert lp_stores == base_stores + tiles * tiles  # one per region
