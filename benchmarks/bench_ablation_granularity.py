"""Ablation (sections III-C and IV): LP region granularity.

The paper chooses the ii iteration as TMM's region and argues the
trade-off qualitatively: smaller regions (jj) aggregate more checksum
commits; larger regions (kk) lose more work per crash.  This bench
quantifies both sides: failure-free overhead per granularity, and
recovery work after the same mid-run crash.
"""

from repro.analysis.reporting import format_table
from repro.sim.crash import CrashPlan
from repro.verify.checker import check_crash_point
from repro.workloads.tmm import TiledMatMul

from bench_common import NUM_THREADS, bench_run, machine_config, record

GRANULARITIES = ["jj", "ii", "kk"]
CRASH_POINT = 120_000


def run_granularity_ablation():
    cfg = machine_config()
    base = bench_run(
        TiledMatMul(n=96, bsize=8, kk_tiles=2), cfg, "base",
        num_threads=NUM_THREADS,
    )
    out = {}
    for gran in GRANULARITIES:
        timing = bench_run(
            TiledMatMul(n=96, bsize=8, kk_tiles=2, granularity=gran),
            cfg,
            "lp",
            num_threads=NUM_THREADS,
        )
        point = check_crash_point(
            TiledMatMul(n=64, bsize=8, granularity=gran),
            machine_config(num_cores=5),
            "lp",
            CrashPlan(at_op=CRASH_POINT),
            plan=None,
            num_threads=4,
            cleaner_period=5_000.0,
        )
        out[gran] = (timing, point)
    return base, out


def test_ablation_granularity(benchmark):
    base, results = benchmark.pedantic(
        run_granularity_ablation, rounds=1, iterations=1
    )
    rows = []
    for gran in GRANULARITIES:
        timing, point = results[gran]
        rows.append(
            [
                gran,
                round(timing.exec_cycles / base.exec_cycles, 4),
                point.recovery_ops,
                point.ok,
            ]
        )
    record(
        "ablation_granularity",
        format_table(
            ["granularity", "LP exec (vs base)", "recovery ops", "recovered"],
            rows,
            title="Ablation: LP region granularity (sections III-C, IV)",
        ),
    )
    for gran in GRANULARITIES:
        timing, point = results[gran]
        assert point.ok
        assert timing.exec_cycles / base.exec_cycles < 1.10
    # larger regions must not redo less work than smaller ones after
    # the same crash (kk loses at least what ii loses)
    assert (
        results["kk"][1].recovery_ops
        >= results["ii"][1].recovery_ops * 0.9
    )
