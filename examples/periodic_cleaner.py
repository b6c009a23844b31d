#!/usr/bin/env python
"""Bounding recovery time with the periodic hardware cleaner
(paper section III-E.1 and Figure 11).

Without help, a dirty block can stay volatile arbitrarily long, so a
crash can invalidate arbitrarily old LP regions.  The paper's hardware
support writes all dirty blocks back every T cycles.  This example
crashes the same LP run under several cleaner periods and reports the
two sides of the trade-off: extra NVMM writes vs recovery work.

Run:  python examples/periodic_cleaner.py
"""

from repro.analysis.experiments import run_variant
from repro.analysis.reporting import format_table
from repro.sim.config import scaled_machine
from repro.sim.crash import CrashPlan
from repro.verify import check_crash_point
from repro.workloads.tmm import TiledMatMul

PERIODS = [1_000.0, 10_000.0, 50_000.0, None]


def main() -> None:
    cfg = scaled_machine(num_cores=5)

    def tmm():
        return TiledMatMul(n=48, bsize=8)

    # drain=True: count the eventual writeback of lines still dirty at
    # the end of this short run, so ratios aren't dominated by the
    # window boundary (the n=48 working set fits the scaled caches)
    baseline = run_variant(tmm(), cfg, "base", num_threads=4, drain=True)
    rows = []
    for period in PERIODS:
        run = run_variant(tmm(), cfg, "lp", num_threads=4,
                          cleaner_period=period, drain=True)
        # plan=None: check the one image the crash left behind
        point = check_crash_point(
            tmm(), cfg, "lp", CrashPlan(at_op=250_000), plan=None,
            num_threads=4, cleaner_period=period,
        )
        rows.append(
            [
                "none" if period is None else f"{period:.0f}",
                round(run.total_writes / baseline.total_writes, 3),
                point.recovery_ops,
                point.ok,
            ]
        )
    print(
        format_table(
            [
                "cleaner period (cycles)",
                "writes vs base",
                "recovery ops after crash",
                "recovered",
            ],
            rows,
            title="Periodic cleaner: write overhead vs recovery work",
        )
    )
    print(
        "\nShorter periods cost writes but cap how much work a crash\n"
        "can destroy — the Figure 11 trade-off."
    )


if __name__ == "__main__":
    main()
