"""The composed scheme layer: forward protocols, declared-write
enforcement, and the write-behind coalescing win.

These tests drive the region-declared workloads (the storage family
and the ported conv2d and cholesky kernels) through every scheme each
one runs on one machine and assert the layer's contracts: the run
verifies, lying bodies are rejected, and write-behind's per-batch
flushes beat Eager Persistency's per-region flushes on update-heavy
traffic.
"""

import pytest

from repro.analysis.experiments import run_variant
from repro.errors import WorkloadError
from repro.schemes import RegionDecl, composable_scheme_names
from repro.sim.config import tiny_machine
from repro.sim.machine import Machine
from repro.workloads import get_workload

SMALL = {
    "log": {"records": 4, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
    "conv2d": {"n": 8, "row_block": 2},
    "cholesky": {"n": 8, "col_block": 4},
}


def runs_on(name, variant):
    cls = get_workload(name)
    return variant in cls.variants + cls.broken_variants


#: Every composable scheme each workload runs.  cholesky has no
#: ``wal``: other threads read a region's diagonal store before the
#: region ends, and WAL defers it.
GRID = [
    (variant, name)
    for variant in composable_scheme_names()
    for name in sorted(SMALL)
    if runs_on(name, variant)
]


def run_forward(name, variant):
    wl = get_workload(name)(**SMALL[name])
    machine = Machine(tiny_machine())
    bound = wl.bind(machine, num_threads=2)
    machine.run(bound.threads(variant))
    return bound


@pytest.mark.parametrize("variant, name", GRID)
class TestForwardProtocols:
    def test_every_scheme_produces_exact_output(self, name, variant):
        assert run_forward(name, variant).verify()

    def test_wal_defers_architecturally(self, name, variant):
        # Under every scheme the *architectural* state agrees at the
        # end; what differs is the persist traffic, checked elsewhere.
        bound = run_forward(name, variant)
        assert bound.verify(persistent=False)


class TestDeclaredWriteEnforcement:
    def test_body_must_match_declared_writes(self):
        wl = get_workload("log")(**SMALL["log"])
        machine = Machine(tiny_machine())
        bound = wl.bind(machine, num_threads=1)
        decl = bound.plans[0][0]
        # Tamper with the declaration after binding: the body now
        # performs writes that disagree with it, and the scheme layer
        # must refuse to seal the region.
        bound.plans[0][0] = RegionDecl(
            seq=decl.seq,
            label=decl.label,
            writes=decl.writes[:-1] + ((decl.writes[-1][0], 99.0),),
        )
        with pytest.raises(WorkloadError):
            machine.run(bound.threads("ep"))

    def test_probe_disagreement_is_detected(self):
        wl = get_workload("hashmap")(**SMALL["hashmap"])
        machine = Machine(tiny_machine())
        bound = wl.bind(machine, num_threads=1)
        key, value, slot = bound.put_sequences[0][0]
        bound.put_sequences[0][0] = (key, value, (slot + 1) % wl.capacity)
        with pytest.raises(WorkloadError):
            machine.run(bound.threads("lp"))

    def test_plan_validation_rejects_shared_addresses(self):
        from repro.schemes import validate_plans

        decl_a = RegionDecl(seq=0, label="a", writes=((100, 1.0),))
        decl_b = RegionDecl(seq=0, label="b", writes=((100, 2.0),))
        with pytest.raises(WorkloadError):
            validate_plans("shared", [[decl_a], [decl_b]])

    def test_plan_validation_rejects_sparse_seq(self):
        from repro.schemes import validate_plans

        decl = RegionDecl(seq=3, label="late", writes=((100, 1.0),))
        with pytest.raises(WorkloadError):
            validate_plans("sparse", [[decl]])

    def test_plan_validation_rejects_empty_write_set(self):
        from repro.schemes import validate_plans

        decl = RegionDecl(seq=0, label="empty", writes=())
        with pytest.raises(WorkloadError):
            validate_plans("empty", [[decl]])


class TestWriteBehindCoalescing:
    def test_batching_beats_eager_on_update_heavy_traffic(self):
        # Few keys + many ops = regions rewriting the same slots, the
        # write-behind cache's coalescing case: one flush per distinct
        # line per batch instead of per region.  This is the committed
        # write-amplification claim (benchmarks/bench_storage_write_amp).
        wl = get_workload("hashmap")(capacity=16, ops=64, keys=4, wb_batch=8)
        config = tiny_machine()
        ep = run_variant(wl, config, "ep", num_threads=2)
        wb = run_variant(wl, config, "write_behind", num_threads=2)
        assert ep.verified and wb.verified
        assert wb.total_writes < ep.total_writes

    def test_append_only_log_gets_no_coalescing_win(self):
        # Append-only traffic never rewrites a line inside a batch, so
        # write-behind pays its journal for nothing — the family's
        # log-vs-in-place contrast.
        wl = get_workload("log")(records=16, width=4, wb_batch=4)
        config = tiny_machine()
        ep = run_variant(wl, config, "ep", num_threads=2)
        wb = run_variant(wl, config, "write_behind", num_threads=2)
        assert ep.verified and wb.verified
        assert wb.total_writes >= ep.total_writes
