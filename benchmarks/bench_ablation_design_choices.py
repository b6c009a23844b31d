"""Ablation: the paper's remaining LP design choices.

* **Checksum persistency** (section III-D): committing checksums with
  Eager Persistency (flush+fence each commit) vs the paper's lazy
  choice.  Eager removes Figure 6's "R3" false negative but pays a
  measurable flush/fence cost per region.
* **Checksum organization** (Figure 7): embedded-in-matrix columns vs
  the standalone collision-free table, comparing execution overhead
  and metadata footprint.
* **Repair strategy** (section IV): from-scratch vs incremental repair
  (recompute only the delta above the last matching kk), comparing
  recovery work after the same crash.
"""

from repro.analysis.reporting import format_table
from repro.sim.crash import CrashPlan
from repro.sim.machine import Machine
from repro.verify.checker import check_crash_point
from repro.workloads.tmm import TiledMatMul

from bench_common import NUM_THREADS, bench_run, machine_config, record


def run_design_ablation():
    cfg = machine_config()
    base = bench_run(
        TiledMatMul(n=96, bsize=8, kk_tiles=2), cfg, "base",
        num_threads=NUM_THREADS,
    )
    variants = {
        "lazy checksum (paper)": TiledMatMul(n=96, bsize=8, kk_tiles=2),
        "eager checksum": TiledMatMul(
            n=96, bsize=8, kk_tiles=2, eager_checksum=True
        ),
        "embedded org (Fig 7a)": TiledMatMul(
            n=96, bsize=8, kk_tiles=2, checksum_org="embedded"
        ),
    }
    timings = {
        name: bench_run(wl, cfg, "lp", num_threads=NUM_THREADS)
        for name, wl in variants.items()
    }
    # footprints
    spaces = {}
    for name, wl_spec in (
        ("standalone table (Fig 7b)", TiledMatMul(n=96, bsize=8)),
        ("embedded org (Fig 7a)", TiledMatMul(n=96, bsize=8, checksum_org="embedded")),
    ):
        bound = wl_spec.bind(Machine(cfg), num_threads=NUM_THREADS)
        spaces[name] = bound.checksum_space_bytes

    # repair strategies under a crash with durable history (cleaner)
    repair = {}
    for mode in ("scratch", "incremental"):
        repair[mode] = check_crash_point(
            TiledMatMul(n=64, bsize=8, repair=mode),
            machine_config(num_cores=5),
            "lp",
            CrashPlan(at_op=150_000),
            plan=None,
            num_threads=4,
            cleaner_period=5_000.0,
        )
    return base, timings, spaces, repair


def test_ablation_design_choices(benchmark):
    base, timings, spaces, repair = benchmark.pedantic(
        run_design_ablation, rounds=1, iterations=1
    )
    rows = [
        [name, round(t.exec_cycles / base.exec_cycles, 4),
         t.writes_by_cause.get("flush", 0)]
        for name, t in timings.items()
    ]
    space_rows = [
        [name, size, f"{size / (3 * 96 * 96 * 8):.1%}"]
        for name, size in spaces.items()
    ]
    repair_rows = [
        [mode, p.recovery_ops, p.ok]
        for mode, p in repair.items()
    ]
    text = "\n\n".join(
        [
            format_table(
                ["LP flavour", "exec (vs base)", "checksum flushes"],
                rows,
                title="Ablation: checksum persistency & organization",
            ),
            format_table(
                ["organization", "metadata bytes", "vs matrices"],
                space_rows,
                title="Figure 7: checksum metadata footprint",
            ),
            format_table(
                ["repair strategy", "recovery ops", "recovered"],
                repair_rows,
                title="Section IV: repair strategy after the same crash",
            ),
        ]
    )
    record("ablation_design_choices", text)

    lazy = timings["lazy checksum (paper)"]
    eager = timings["eager checksum"]
    assert eager.writes_by_cause.get("flush", 0) > 0
    assert lazy.writes_by_cause.get("flush", 0) == 0
    assert eager.exec_cycles >= lazy.exec_cycles * 0.999
    assert repair["incremental"].ok
    assert repair["scratch"].ok
    assert (
        repair["incremental"].recovery_ops
        <= repair["scratch"].recovery_ops * 1.1
    )
