"""Exact reconciliation: a recorded op stream replayed on the probe bus.

A recorded stream (:func:`repro.sim.opstream.record_stream`) is a
faithful transcript only if feeding its decoded per-core ops back to
:meth:`Machine.run <repro.sim.machine.Machine.run>` reproduces the run
down to what observers see, not just its final state.  The contract is
*bit* reconciliation: for every registry workload x variant, under
both timing-model configs, observers attached to a probed replay of
the decoded stream must be indistinguishable from the same observers
attached to a probed replay machine driving the workload's coroutines
through the general scheduling loop — same ``series()``, same
``to_dict()``, same internal stacks, same Chrome-trace document.  No
sampling slop, no "close enough".

A Hypothesis property extends the pin beyond the registry: for
arbitrary op soups, the interval-series totals sampled from the
replayed stream must equal the :class:`MachineStats` per-core counters
the recording run kept itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    IntervalSampler,
    StallFlame,
    TraceRecorder,
    WriteHeatmap,
    probed,
    to_chrome_trace,
)
from repro.sim.config import MachineConfig, tiny_machine
from repro.sim.isa import Compute, Fence, Flush, FlushWB, Load, Store
from repro.sim.machine import Machine
from repro.sim.opstream import record_stream
from repro.workloads import available_workloads, get_workload

from tests.verify.test_stream_equivalence import replay_threads

#: Crashcheck-sized problems: small enough that the full grid of
#: (workload, variant, timing) cases stays fast.
SMALL_PARAMS = {
    "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
    "fft": {"n": 16},
    "gauss": {"n": 8, "row_block": 4},
    "cholesky": {"n": 8, "col_block": 4},
    "conv2d": {"n": 8, "row_block": 2},
    "log": {"records": 4, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}

INTERVAL = 500.0

#: Both timing-model *configs*: replay machines force functional
#: timing either way, but the replayed stream must reconcile regardless
#: of what the config asked for.
CASES = [
    (name, variant, timing)
    for name in available_workloads()
    for variant in get_workload(name).variants
    for timing in ("detailed", "functional")
]


def _bound_replay(name, variant, timing):
    config = tiny_machine()
    if timing != config.timing:
        config = config.with_timing(timing)
    machine = Machine(config, _replay=True)
    wl = get_workload(name)(**SMALL_PARAMS.get(name, {}))
    bound = wl.bind(machine, num_threads=2, engine="modular")
    # Provenance on: Phase frames must survive the stream round trip
    # into the replayed flame and recorder, not just the counters.
    bound.provenance = True
    return machine, bound


def _observe(machine, threads, root):
    observers = {
        "sampler": IntervalSampler(INTERVAL),
        "heatmap": WriteHeatmap(),
        "flame": StallFlame(root=root),
        "recorder": TraceRecorder(),
    }
    with probed(machine, list(observers.values())):
        machine.run(threads)
    return observers


@pytest.fixture(scope="module")
def reconciled_runs():
    """For every case: the observers of the probed generator-driven
    run plus those of a probed replay of the recorded stream, both
    built from the same point."""
    runs = {}
    for name, variant, timing in CASES:
        root = f"{name}/{variant}"
        machine, bound = _bound_replay(name, variant, timing)
        reference = _observe(machine, bound.threads(variant), root)

        m_rec, b_rec = _bound_replay(name, variant, timing)
        stream, _ = record_stream(m_rec, b_rec.threads(variant))
        m_replay, _ = _bound_replay(name, variant, timing)
        replayed = _observe(m_replay, replay_threads(stream), root)
        runs[(name, variant, timing)] = (reference, replayed)
    return runs


@pytest.mark.parametrize("name,variant,timing", CASES)
class TestStreamReconciliation:
    def test_sampler_series_identical(
        self, reconciled_runs, name, variant, timing
    ):
        ref, replayed = reconciled_runs[(name, variant, timing)]
        assert replayed["sampler"].series() == ref["sampler"].series()
        assert replayed["sampler"].totals() == ref["sampler"].totals()
        assert replayed["sampler"].csv() == ref["sampler"].csv()

    def test_heatmap_identical(
        self, reconciled_runs, name, variant, timing
    ):
        ref, replayed = reconciled_runs[(name, variant, timing)]
        assert replayed["heatmap"].to_dict() == ref["heatmap"].to_dict()
        assert (
            replayed["heatmap"].region_summary()
            == ref["heatmap"].region_summary()
        )
        assert replayed["heatmap"].csv() == ref["heatmap"].csv()

    def test_flame_identical(
        self, reconciled_runs, name, variant, timing
    ):
        ref, replayed = reconciled_runs[(name, variant, timing)]
        assert replayed["flame"].to_dict() == ref["flame"].to_dict()
        assert replayed["flame"].collapsed() == ref["flame"].collapsed()
        # Internal provenance stacks too — the stream carries the
        # Phase push/pop ops, not just their effect on the totals.
        assert replayed["flame"]._stacks == ref["flame"]._stacks

    def test_recorder_and_chrome_trace_identical(
        self, reconciled_runs, name, variant, timing
    ):
        ref, replayed = reconciled_runs[(name, variant, timing)]
        assert replayed["recorder"].ops == ref["recorder"].ops
        assert to_chrome_trace(replayed["recorder"]) == to_chrome_trace(
            ref["recorder"]
        )

    def test_replay_reference_is_eventless_beyond_ops(
        self, reconciled_runs, name, variant, timing
    ):
        # The probed replay run publishes nothing but op retirements,
        # so the ops a stream records are everything its observers
        # can see.
        ref, _ = reconciled_runs[(name, variant, timing)]
        assert ref["recorder"].stalls == []
        assert ref["recorder"].hazards == []
        assert ref["recorder"].writebacks == []
        assert ref["recorder"].nvmm_reads == []


# ----------------------------------------------------------------------
# property pin (Hypothesis): replayed totals == MachineStats counters
# ----------------------------------------------------------------------

NUM_ELEMS = 16

#: Only ops with CoreStats counters: RegionMark/Phase retire without
#: touching any per-core counter, so they'd make the reconciled
#: population ragged (they ARE covered by the registry grid above).
op_strategy = st.tuples(
    st.sampled_from(["load", "store", "compute", "flush", "flushwb",
                     "fence"]),
    st.integers(min_value=0, max_value=NUM_ELEMS - 1),
    st.integers(min_value=1, max_value=100),
)
scripts = st.lists(
    st.lists(op_strategy, min_size=1, max_size=20),
    min_size=1,
    max_size=3,
)


def _script_ops(region, script):
    for kind, idx, value in script:
        addr = region.addr(idx)
        if kind == "load":
            yield Load(addr)
        elif kind == "store":
            yield Store(addr, float(value))
        elif kind == "compute":
            yield Compute(value, "work")
        elif kind == "flush":
            yield Flush(addr)
        elif kind == "flushwb":
            yield FlushWB(addr)
        else:
            yield Fence()


@given(scripts)
@settings(max_examples=40, deadline=None)
def test_derived_interval_totals_equal_machine_counters(script_set):
    """For arbitrary op soups, summing the interval series sampled
    from a replay of the recorded stream must reproduce the per-core
    counters the recording run kept in :class:`MachineStats`."""

    def fresh():
        machine = Machine(
            MachineConfig(num_cores=len(script_set)), _replay=True
        )
        return machine, machine.alloc("a", NUM_ELEMS)

    machine, region = fresh()
    stream, result = record_stream(
        machine, [_script_ops(region, s) for s in script_set]
    )
    replay, _ = fresh()
    sampler = IntervalSampler(100.0)
    with probed(replay, [sampler]):
        replay.run(replay_threads(stream))
    totals = sampler.totals()

    stats = result.stats
    assert totals.get("fences", 0) == sum(
        c.fences for c in stats.per_core
    )
    for cid, core in enumerate(stats.per_core):
        ops = (
            core.loads + core.stores + core.computes + core.fences
            + core.flushes
        )
        assert totals.get(f"ops.core{cid}", 0) == ops, f"core {cid}"
    assert sum(
        v for k, v in totals.items() if k.startswith("ops.core")
    ) == result.ops_executed
