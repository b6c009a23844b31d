"""Pin the heap scheduler's inlined L1-hit load to ``Core.execute``.

Under detailed timing, :meth:`Machine.run <repro.sim.machine.Machine.run>`
retires an L1-hit load inline instead of calling ``Core.execute``,
unless an op or memory-event probe tap is installed: those taps must
see every op.  A run with a no-op op observer attached is therefore
the reference, with every op going through ``Core.execute``.  For
every registry workload x variant (broken variants included) on a
small-L2 machine — so the runs also evict, upgrade and
back-invalidate — both runs must agree exactly on:

* ``stats.summary()``, every per-core stats field and clock, and the
  ledger's stall-cycle and hazard-event maps,
* architectural and persistent memory after a drain, and NVMM writes
  by cause,
* for one ``crash_at_flush`` run per workload, the crash-state space's
  signature.
"""

import pytest

from repro.obs.taps import probed
from repro.sim.config import tiny_machine
from repro.sim.core import Core
from repro.sim.machine import Machine
from repro.workloads.registry import available_workloads, get_workload

SPECS = {
    "tmm": dict(n=16, bsize=8),
    "cholesky": dict(n=16, col_block=8),
    "conv2d": dict(n=10, ksize=3, row_block=4),
    "gauss": dict(n=16, row_block=8, pivots=4),
    "fft": dict(n=64),
    "log": dict(records=16, width=4),
    "hashmap": dict(capacity=32, ops=24, keys=8),
}
NUM_THREADS = 4
#: 1 KB 2-way L1s under a 2 KB inclusive L2: the working sets above
#: overflow both, so L1 LRU victims (which the inlined hits' LRU
#: updates choose), L2 evictions and back-invalidations all occur
#: between the inlined hits.
CONFIG = tiny_machine(num_cores=NUM_THREADS + 1).with_l2_size(2 * 1024)

POINTS = [
    (name, variant)
    for name in available_workloads()
    for variant in (
        get_workload(name).variants + get_workload(name).broken_variants
    )
]


class _OpSink:
    """No-op observer; its op subscription taps ``Core.execute``."""

    def on_op(self, ev):
        pass


class _MemEventSink:
    """No-op observer; taps ``CoreTiming.on_event`` only."""

    def on_mem_event(self, ev):
        pass


def test_every_registry_workload_is_covered():
    assert sorted(SPECS) == available_workloads()


def _run(name, variant, *, observers=None, track=False, **triggers):
    machine = Machine(CONFIG)
    bound = get_workload(name)(**SPECS[name]).bind(
        machine, num_threads=NUM_THREADS
    )
    if track:
        machine.track_persists()
    if observers is None:
        result = machine.run(bound.threads(variant), **triggers)
    else:
        with probed(machine, observers):
            result = machine.run(bound.threads(variant), **triggers)
    return machine, result


def _assert_identical(fast, ref, r_fast, r_ref):
    assert r_fast.stats.summary() == r_ref.stats.summary()
    assert r_fast.ops_executed == r_ref.ops_executed
    for cid, core in enumerate(ref.cores):
        assert fast.cores[cid].clock == core.clock, f"core {cid} clock"
        assert vars(fast.stats.per_core[cid]) == vars(
            ref.stats.per_core[cid]
        ), f"core {cid} stats"
    assert fast.stats.ledger.stall_cycles == ref.stats.ledger.stall_cycles
    assert fast.stats.ledger.stall_events == ref.stats.ledger.stall_events


@pytest.mark.parametrize("name,variant", POINTS)
def test_inlined_hits_match_core_execute(name, variant):
    fast, r_fast = _run(name, variant)
    ref, r_ref = _run(name, variant, observers=[_OpSink()])
    _assert_identical(fast, ref, r_fast, r_ref)

    assert fast.drain() == ref.drain()
    assert fast.stats.writes_by_cause == ref.stats.writes_by_cause
    assert fast.mem.arch == ref.mem.arch
    assert fast.mem.persistent == ref.mem.persistent


@pytest.mark.parametrize("name", sorted(SPECS))
def test_crash_state_space_matches(name):
    _, full = _run(name, "ep")
    assert full.flush_ops > 0
    at_flush = max(1, full.flush_ops // 2)
    fast, r_fast = _run(name, "ep", track=True, crash_at_flush=at_flush)
    ref, r_ref = _run(
        name,
        "ep",
        observers=[_OpSink()],
        track=True,
        crash_at_flush=at_flush,
    )
    assert r_fast.crashed and r_ref.crashed
    _assert_identical(fast, ref, r_fast, r_ref)
    assert (
        fast.crash_state_space().signature()
        == ref.crash_state_space().signature()
    )


def test_only_op_and_mem_event_taps_disable_inlining(monkeypatch):
    """The untapped run really takes the inlined branch (otherwise the
    pins above would compare Core.execute with itself), an empty probe
    bus installs no tap and keeps it, and either tap that observes an
    L1 hit sends every op through Core.execute."""
    calls = {"n": 0}
    execute = Core.execute

    def counting(self, op):
        calls["n"] += 1
        return execute(self, op)

    monkeypatch.setattr(Core, "execute", counting)

    def execute_calls(observers):
        calls["n"] = 0
        _run("tmm", "lp", observers=observers)
        return calls["n"]

    every_op = execute_calls([_OpSink()])
    assert execute_calls([_MemEventSink()]) == every_op
    untapped = execute_calls(None)
    assert execute_calls([]) == untapped
    assert untapped < every_op
