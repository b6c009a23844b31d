"""Ablation (section III-E.1 motivation): recovery cost vs the
periodic-cleaner interval.

The paper argues the cleaner bounds recovery time: the longer data may
stay volatile, the more regions a crash can invalidate.  This bench
crashes an LP TMM run at a fixed point under different cleaner
periods, runs recovery, verifies exactness, and reports the recovery
work — the quantitative other half of Figure 11's write-overhead
trade-off.
"""

from repro.analysis.reporting import format_table
from repro.sim.cleaner import PeriodicCleaner
from repro.sim.config import scaled_machine, tiny_machine
from repro.sim.crash import CrashPlan, run_to_crash_space
from repro.sim.machine import Machine
from repro.verify.checker import check_crash_point
from repro.verify.graph import count_ideals
from repro.workloads.tmm import TiledMatMul

from bench_common import record

PERIODS = [2_000.0, 20_000.0, None]
CRASH_POINT = 120_000  # ops; mid-run for the n=64 full TMM below


def run_recovery_ablation():
    # The schedule's one image, recovered on a full machine: the table
    # reports modelled recovery cycles.
    out = {}
    for period in PERIODS:
        out[period] = check_crash_point(
            TiledMatMul(n=64, bsize=8),
            scaled_machine(num_cores=5),
            "lp",
            CrashPlan(at_op=CRASH_POINT),
            plan=None,
            num_threads=4,
            cleaner_period=period,
            replay=False,
        )
    return out


def test_recovery_time_vs_cleaner(benchmark):
    results = benchmark.pedantic(run_recovery_ablation, rounds=1, iterations=1)
    rows = []
    for period in PERIODS:
        point = results[period]
        rows.append(
            [
                "none" if period is None else f"{period:.0f} cyc",
                point.writes_before_crash,
                point.recovery_ops,
                round(point.recovery_cycles, 0),
                point.ok,
            ]
        )
    record(
        "recovery_time",
        format_table(
            [
                "cleaner period",
                "writes pre-crash",
                "recovery ops",
                "recovery cycles",
                "recovered",
            ],
            rows,
            title="Ablation: cleaner period vs recovery cost (LP TMM)",
        ),
    )
    assert all(p.ok for p in results.values())
    # a frequent cleaner must not recover slower than no cleaner
    assert results[PERIODS[0]].recovery_ops <= results[None].recovery_ops


# -- crash-state uncertainty vs cleaner period -------------------------------

SPACE_PERIODS = [200.0, 1_000.0, None]
SPACE_CRASH_OP = 500  # mid-run for the tiny TMM below


def run_space_ablation():
    """The other quantity the cleaner bounds: how *many* NVMM images a
    crash can expose.  Every cleanup pass moves dirty lines into the
    durable floor, shrinking the reorderable event set — and with it
    the reachable-image count the crashcheck enumerator must cover
    (see docs/crash_testing.md)."""
    out = {}
    for period in SPACE_PERIODS:
        machine = Machine(tiny_machine())
        if period is not None:
            machine.cleaner = PeriodicCleaner(period)
        workload = TiledMatMul(n=8, bsize=4, kk_tiles=1)
        bound = workload.bind(machine, num_threads=2, engine="modular")
        _, space = run_to_crash_space(
            machine, bound.threads("lp"), CrashPlan(at_op=SPACE_CRASH_OP)
        )
        nodes = [ev.eid for ev in space.events]
        images = count_ideals(nodes, space.edges) if len(nodes) <= 20 else None
        out[period] = (space.num_events, len(space.edges), images)
    return out


def test_crash_state_space_vs_cleaner(benchmark):
    results = benchmark.pedantic(run_space_ablation, rounds=1, iterations=1)
    rows = [
        [
            "none" if period is None else f"{period:.0f} cyc",
            events,
            edges,
            "> 2^20" if images is None else images,
        ]
        for period, (events, edges, images) in results.items()
    ]
    record(
        "crash_state_space",
        format_table(
            ["cleaner period", "reorderable events", "edges", "reachable images"],
            rows,
            title="Ablation: cleaner period vs crash-state uncertainty (LP TMM)",
        ),
    )
    # cleaning can only shrink the uncertain event set
    fastest, _, slowest = SPACE_PERIODS
    assert results[fastest][0] <= results[slowest][0]
