#!/usr/bin/env python
"""Designing LP regions: idempotence and granularity (sections III-C,
III-E, IV).

Two questions decide how to apply Lazy Persistency to a kernel:

1. *Are the regions idempotent?*  If yes, recovery is trivially
   "re-run what mismatches".  This example runs the section III-E
   idempotence analysis over all five kernels and shows it predicting
   each one's recovery strategy.
2. *How big should regions be?*  Smaller regions commit more checksums
   (overhead); bigger regions lose more work per crash.  This example
   sweeps TMM's three natural granularities and measures both sides.

Run:  python examples/region_design.py
"""

from repro.analysis.experiments import run_variant
from repro.analysis.reporting import format_table
from repro.core.idempotence import classify_workload
from repro.sim.config import scaled_machine
from repro.sim.crash import CrashPlan
from repro.sim.machine import Machine
from repro.verify import check_crash_point
from repro.workloads import get_workload
from repro.workloads.tmm import TiledMatMul

SPECS = {
    "conv2d": dict(n=12, ksize=3, row_block=2),
    "fft": dict(n=32),
    "cholesky": dict(n=8, col_block=4),
    "tmm": dict(n=16, bsize=8),
    "gauss": dict(n=8, row_block=4),
}


def main() -> None:
    # -- 1. idempotence analysis ---------------------------------------
    rows = []
    for name, kwargs in SPECS.items():
        wl = get_workload(name)(**kwargs)
        report = classify_workload(
            wl, Machine(scaled_machine(num_cores=2)), num_threads=1
        )
        s = report.summary()
        rows.append(
            [
                name,
                s["regions"],
                s["violating"],
                "re-run regions" if report.all_idempotent else "frontier/replay",
            ]
        )
    print(
        format_table(
            ["kernel", "regions", "violating", "recovery strategy"],
            rows,
            title="Section III-E: idempotence analysis predicts recovery",
        )
    )

    # -- 2. granularity trade-off --------------------------------------
    cfg = scaled_machine(num_cores=5)
    base = run_variant(
        TiledMatMul(n=48, bsize=8), cfg, "base", num_threads=4
    )
    rows = []
    for gran in ("jj", "ii", "kk"):
        timing = run_variant(
            TiledMatMul(n=48, bsize=8, granularity=gran),
            cfg, "lp", num_threads=4,
        )
        # plan=None: check the one image the crash left behind
        point = check_crash_point(
            TiledMatMul(n=48, bsize=8, granularity=gran),
            cfg,
            "lp",
            CrashPlan(at_op=150_000),
            plan=None,
            num_threads=4,
            cleaner_period=4_000.0,
        )
        rows.append(
            [
                gran,
                round(timing.exec_cycles / base.exec_cycles, 4),
                point.recovery_ops,
                point.ok,
            ]
        )
    print()
    print(
        format_table(
            ["granularity", "LP exec (vs base)", "recovery ops", "exact"],
            rows,
            title="Sections III-C/IV: region granularity trade-off",
        )
    )
    print(
        "\nThe paper picks the middle (ii) granularity: checksum cost\n"
        "within noise of base, with bounded per-crash recomputation."
    )


if __name__ == "__main__":
    main()
