"""Simulator throughput: the timing-model pipeline's speed claims.

Two numbers justify the semantics/timing split:

* **Forward throughput** — simulated ops/second of the same workload
  under ``DetailedTiming`` (paper-faithful latencies),
  ``FastFunctional`` (+1-cycle costs, no structural hazards) on the
  full cache hierarchy, and on a cache-free **replay machine** (the
  semantics-only configuration crash checking uses).  Swapping the
  core timing model alone roughly breaks even — the hierarchy
  simulation dominates, and round-robin interleaving can even worsen
  simulated locality — which is exactly why the fast path drops the
  hierarchy too.
* **Crashcheck campaign wall-clock** — the end-to-end cost of a
  crash-state checking campaign.  The pre-pipeline checker verified
  every enumerated image with a full-machine recovery run (caches,
  coherence, persist tracking); the pipeline default verifies on
  cache-free replay machines under functional timing, which answers
  the same architectural question exactly.  The campaign must drop
  >= 3x wall-clock (the PR's acceptance bar); smoke sizes assert a
  relaxed floor because tiny campaigns amortize less fixed cost.  The
  full-machine leg sends every op through ``Core.execute``
  (:func:`bench_common.through_core_execute`), as the pre-pipeline
  checker did, so the bar keeps measuring replay recovery against
  that checker rather than against the heap scheduler's inlined
  L1-hit load.  Its recovery machines record no persist order (only
  crash-point runs request that), so the leg runs a little faster
  than the pre-pipeline checker's recovery did.

``test_throughput_ratchet`` additionally holds absolute rates above
committed floors (``benchmarks/baselines/throughput_floor.json``), one
per leg of the detailed-timing heap scheduler: ``detailed``, the
read-dominant kernel path behind every paper figure, and ``persist``,
the flush-heavy path of the storage workloads (every store's line is
journaled, flushed and fenced, so RFO misses, MC writes and full
queues dominate).  Each is ratcheted the same way
``repro regress --update-baselines`` ratchets perf baselines (set
``REPRO_UPDATE_FLOOR=1`` to raise it to the measured rate; it never
lowers itself).  ``REPRO_FLOOR_SCALE`` multiplies the floor, which is
how CI proves the leg actually trips.

Timings here are real wall-clock, so the on-disk result cache is
deliberately bypassed: both campaign legs run ``check_variant``
directly.
"""

import json
import os
import time
from contextlib import nullcontext
from functools import partial

import pytest

from repro.analysis.crashlab import crash_plans_for
from repro.analysis.reporting import format_table
from repro.sim.config import tiny_machine
from repro.sim.machine import Machine
from repro.verify import EnumerationPlan, check_variant
from repro.workloads.storage import AppendLog
from repro.workloads.tmm import TiledMatMul

from bench_common import (
    NUM_THREADS,
    SMOKE,
    machine_config,
    make_workload,
    record,
    through_core_execute,
)

#: Forward modes: two timing models on the full machine and the
#: cache-free replay machine (always functional timing).
FORWARD_MODES = ("detailed", "functional", "replay")
FORWARD_WORKLOADS = ("tmm", "fft")

#: Committed absolute floor for the ratchet job (see
#: ``test_throughput_ratchet``).
FLOOR_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "throughput_floor.json"
)

#: A ratchet update writes ``measured * RATCHET_MARGIN`` so normal
#: machine-to-machine and CI-runner variance stays above the floor.
#: Shared CI runners measure several times slower than a quiet dev
#: machine, so the margin is deliberately generous: the floor trips
#: only on a slowdown of 8x or more, not on single-digit percentages.
RATCHET_MARGIN = 0.125

#: Crashcheck campaign shape (kept modest: two full campaign legs run
#: back-to-back, uncached).  Smoke halves everything again.
CAMPAIGN = (
    dict(workload=dict(n=8, bsize=4, kk_tiles=1), op_points=2,
         max_flush_points=4, samples=16)
    if SMOKE
    else dict(workload=dict(n=12, bsize=4), op_points=6,
              max_flush_points=10, samples=48)
)
SPEEDUP_FLOOR = 1.3 if SMOKE else 3.0
CAMPAIGN_RUNS = 2


def _run_throughput(workload, make_machine, num_threads, runs=1, variant="lp"):
    """Ops/sec of one ``variant`` run on machines from ``make_machine``
    (best of ``runs``, each on a fresh machine; timer noise only adds)."""
    best = float("inf")
    for _ in range(runs):
        machine = make_machine()
        bound = workload.bind(machine, num_threads=num_threads)
        t0 = time.perf_counter()
        result = machine.run(bound.threads(variant))
        best = min(best, time.perf_counter() - t0)
        assert bound.verify()
    return result.ops_executed, best


def forward_throughput():
    """Ops/second of one LP run per workload under each forward mode
    (best of 3: a shared host's interference only ever slows a run)."""
    out = {}
    for name in FORWARD_WORKLOADS:
        for mode in FORWARD_MODES:
            workload = make_workload(name)
            if mode == "replay":
                make_machine = partial(Machine, machine_config(), _replay=True)
            else:
                make_machine = partial(
                    Machine, machine_config().with_timing(mode)
                )
            out[(name, mode)] = _run_throughput(
                workload, make_machine, NUM_THREADS, runs=3
            )
    return out


def campaign_times():
    """One crashcheck campaign, timed with full-machine recovery
    (the pre-pipeline behaviour: every op through ``Core.execute``) and
    with replay recovery (default).  The legs alternate
    ``CAMPAIGN_RUNS`` times and each keeps its fastest run, so one
    burst of host interference cannot decide the ratio."""
    workload = TiledMatMul(**CAMPAIGN["workload"])
    config = tiny_machine()
    plan = EnumerationPlan(
        max_exhaustive_events=12, samples=CAMPAIGN["samples"], seed=0
    )
    plans = crash_plans_for(
        workload, config, "ep",
        op_points=CAMPAIGN["op_points"],
        max_flush_points=CAMPAIGN["max_flush_points"],
    )
    best = {False: float("inf"), True: float("inf")}
    images = {}
    for _ in range(CAMPAIGN_RUNS):
        for replay in (False, True):
            path = nullcontext() if replay else through_core_execute()
            t0 = time.perf_counter()
            with path:
                report = check_variant(
                    workload, config, "ep", plans, plan, replay=replay
                )
            best[replay] = min(best[replay], time.perf_counter() - t0)
            assert report.ok
            images[replay] = report.images_checked
    return {replay: (images[replay], best[replay]) for replay in best}


def run_bench():
    return forward_throughput(), campaign_times()


def test_sim_throughput(benchmark):
    forward, campaign = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    rows = []
    data = {"forward": {}, "campaign": {}}
    for name in FORWARD_WORKLOADS:
        rates = {}
        for mode in FORWARD_MODES:
            ops, elapsed = forward[(name, mode)]
            rates[mode] = ops / elapsed
            data["forward"][f"{name}/{mode}"] = {
                "ops": ops, "seconds": round(elapsed, 3),
                "ops_per_sec": round(rates[mode]),
            }
        rows.append(
            [
                name,
                f"{rates['detailed'] / 1e3:.0f}k",
                f"{rates['functional'] / 1e3:.0f}k",
                f"{rates['replay'] / 1e3:.0f}k",
            ]
        )
    forward_table = format_table(
        ["workload", "detailed ops/s", "functional ops/s",
         "replay ops/s"],
        rows,
        title="Forward simulation throughput (lp, wall-clock)",
    )

    (images_full, t_full) = campaign[False]
    (images_fast, t_fast) = campaign[True]
    assert images_full == images_fast, "recovery mode must not change the space"
    speedup = t_full / t_fast
    campaign_table = format_table(
        ["recovery", "images", "seconds", "speedup"],
        [
            ["full machine (pre-pipeline)", images_full, f"{t_full:.2f}", ""],
            ["replay (default)", images_fast, f"{t_fast:.2f}",
             f"{speedup:.2f}x"],
        ],
        title="Crashcheck campaign wall-clock (tmm/ep, uncached)",
    )
    data["campaign"] = {
        "images": images_full,
        "full_machine_seconds": round(t_full, 2),
        "replay_seconds": round(t_fast, 2),
        "speedup": round(speedup, 2),
        "floor": SPEEDUP_FLOOR,
    }

    record("sim_throughput", forward_table + "\n\n" + campaign_table, data)
    assert speedup >= SPEEDUP_FLOOR, (
        f"crashcheck replay speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor"
    )


# ----------------------------------------------------------------------
# absolute throughput ratchet (the CI `throughput-ratchet` job)
# ----------------------------------------------------------------------

#: Fixed tiny presets, leg -> (workload, variant): always these sizes,
#: regardless of REPRO_SMOKE, so each committed floor means the same
#: thing on every run of the job.
RATCHET_LEGS = {
    "detailed": (lambda: TiledMatMul(n=24, bsize=8), "lp"),
    "persist": (lambda: AppendLog(records=128, width=8), "write_behind"),
}
RATCHET_THREADS = 2


def ratchet_measurement(leg):
    """Ops/sec of the heap scheduler under detailed timing on ``leg``'s
    fixed tiny preset (best of 5)."""
    make_workload, variant = RATCHET_LEGS[leg]
    return _run_throughput(
        make_workload(), partial(Machine, tiny_machine()), RATCHET_THREADS,
        runs=5, variant=variant,
    )


@pytest.mark.parametrize("leg", list(RATCHET_LEGS))
def test_throughput_ratchet(leg):
    """The detailed-timing forward paths may only ever get faster.

    Fails when measured ops/sec of ``leg`` on the fixed preset drops
    below its committed floor.  ``REPRO_FLOOR_SCALE=<x>`` multiplies
    the floor (CI uses a large scale to prove the leg trips);
    ``REPRO_UPDATE_FLOOR=1`` ratchets the leg's committed floor up to
    ``measured * RATCHET_MARGIN`` when that is higher — it never goes
    down, mirroring ``repro regress --update-baselines``.
    """
    with open(FLOOR_PATH) as fh:
        floors = json.load(fh)
    baseline = floors[leg]
    events, elapsed = ratchet_measurement(leg)
    rate = events / elapsed

    if os.environ.get("REPRO_UPDATE_FLOOR", "") == "1":
        candidate = int(rate * RATCHET_MARGIN)
        if candidate > baseline["floor_events_per_sec"]:
            baseline["floor_events_per_sec"] = candidate
            baseline["measured_events_per_sec"] = int(rate)
            baseline["events"] = events
            with open(FLOOR_PATH, "w") as fh:
                json.dump(floors, fh, indent=2)
                fh.write("\n")

    floor = baseline["floor_events_per_sec"] * float(
        os.environ.get("REPRO_FLOOR_SCALE", "1")
    )
    assert rate >= floor, (
        f"{leg} throughput {rate:,.0f} ops/sec fell below the "
        f"committed floor {floor:,.0f} ({events} ops in {elapsed:.4f}s); "
        "a real regression must be fixed, a deliberate slowdown must "
        "re-ratchet with REPRO_UPDATE_FLOOR=1"
    )
