"""Provenance tagging: free when on, invisible when off.

The stall flamegraph needs workloads to emit :class:`Phase` frame ops,
but nobody paying for ordinary runs may notice: with ``provenance``
left False (the default) the op stream, the results, and the cache
keys must be *byte-identical* to a build that never heard of
provenance.  With it on, only Phase ops are added — every metric the
simulator reports stays exactly the same, because Phase is free on
every engine.
"""

import pytest

from repro.analysis.experiments import run_variant
from repro.sim.config import tiny_machine
from repro.sim.isa import Phase
from repro.sim.machine import Machine
from repro.workloads import available_workloads, get_workload

SMALL_PARAMS = {
    "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
    "fft": {"n": 16},
    "gauss": {"n": 8, "row_block": 4},
    "cholesky": {"n": 8, "col_block": 4},
    "conv2d": {"n": 8, "row_block": 2},
    "log": {"records": 4, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}


def recorded_streams(name, variant, provenance):
    """Per-core op streams of one functional run, via the probe bus."""
    from repro.obs import TraceRecorder, probed

    wl = get_workload(name)(**SMALL_PARAMS[name])
    config = tiny_machine()
    if config.timing != "functional":
        config = config.with_timing("functional")
    machine = Machine(config)
    bound = wl.bind(machine, num_threads=2, engine="modular")
    bound.provenance = provenance
    recorder = TraceRecorder()
    with probed(machine, [recorder]):
        machine.run(bound.threads(variant))
    per_core = {}
    for ev in recorder.ops:
        per_core.setdefault(ev.core_id, []).append(ev.op)
    return [per_core[core_id] for core_id in sorted(per_core)]


@pytest.mark.parametrize("name", available_workloads())
class TestTaggedStreams:
    def test_no_phase_ops_by_default(self, name):
        for variant in get_workload(name).variants:
            for ops in recorded_streams(name, variant, False):
                assert not any(type(op) is Phase for op in ops)

    def test_tagged_stream_differs_only_by_phase_ops(self, name):
        for variant in get_workload(name).variants:
            plain = recorded_streams(name, variant, False)
            tagged = recorded_streams(name, variant, True)
            stripped = [
                [op for op in ops if type(op) is not Phase]
                for ops in tagged
            ]
            assert stripped == plain

    def test_tagged_stream_contains_phase_frames(self, name):
        # Every workload carries tag() call-sites, so the lp variant
        # must actually produce frames when opted in.
        labels = [
            op.label
            for ops in recorded_streams(name, "lp", True)
            for op in ops
            if type(op) is Phase and op.label is not None
        ]
        assert labels, "no provenance frames emitted"

    def test_phase_pushes_and_pops_balance(self, name):
        for variant in get_workload(name).variants:
            for ops in recorded_streams(name, variant, True):
                depth = 0
                for op in ops:
                    if type(op) is not Phase:
                        continue
                    depth += 1 if op.label is not None else -1
                    assert depth >= 0
                assert depth == 0


@pytest.mark.parametrize("engine", ["modular", "parity"])
@pytest.mark.parametrize("timing", ["detailed", "functional"])
def test_tagging_changes_no_metric(engine, timing):
    wl = get_workload("tmm")(**SMALL_PARAMS["tmm"])
    config = tiny_machine()
    if timing != config.timing:
        config = config.with_timing(timing)
    plain = run_variant(wl, config, "lp", num_threads=2, engine=engine)
    tagged = run_variant(
        wl, config, "lp", num_threads=2, engine=engine, provenance=True
    )
    assert tagged.exec_cycles == plain.exec_cycles
    assert tagged.nvmm_writes == plain.nvmm_writes
    assert tagged.total_writes == plain.total_writes
    assert tagged.stalls == plain.stalls
    assert tagged.hazards == plain.hazards


def test_phase_is_free_on_the_replay_loop():
    # The crash-state checker's replay fast loop must treat Phase like
    # RegionMark: executed, but costing no cycle and keeping the turn.
    wl = get_workload("tmm")(**SMALL_PARAMS["tmm"])
    clocks, ops = [], []
    for provenance in (False, True):
        machine = Machine(tiny_machine())
        wl.bind(machine, num_threads=2)
        replay = machine.after_crash_with_image(
            dict(machine.mem.arch), replay=True
        )
        rebound = wl.bind(replay, num_threads=2)
        rebound.provenance = provenance
        result = replay.run(rebound.threads("base"))
        clocks.append(tuple(c.clock for c in replay.cores))
        ops.append(result.ops_executed)
    assert clocks[0] == clocks[1]
    assert ops[1] > ops[0]
