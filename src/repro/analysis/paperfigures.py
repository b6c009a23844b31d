"""One-command paper reproduction: ``python -m repro reproduce``.

Runs compact versions of the paper's headline experiments and emits a
single markdown report.  The full-scale, per-figure harness lives in
``benchmarks/`` (one bench per table/figure, with shape assertions);
this module is the user-facing facade for a quick end-to-end check.

Scales:

* ``smoke`` — TMM-only, about a second.  Used by the test suite.
* ``quick`` — all five kernels at reduced size, a few seconds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.experiments import ExperimentResult
from repro.analysis.runner import Job, run_jobs
from repro.analysis.reporting import format_table, geomean
from repro.core.accuracy import run_error_injection
from repro.core.checksum import available_engines, get_engine
from repro.errors import ConfigError
from repro.sim.config import MachineConfig, scaled_machine
from repro.sim.crash import CrashPlan
from repro.workloads import get_workload

_SCALES: Dict[str, dict] = {
    "smoke": dict(
        threads=2,
        workloads={"tmm": dict(n=24, bsize=8)},
        accuracy_trials=500,
        crash_points=[2_000],
    ),
    "quick": dict(
        threads=4,
        workloads={
            "tmm": dict(n=48, bsize=8, kk_tiles=3),
            "cholesky": dict(n=32, col_block=8),
            "conv2d": dict(n=34, ksize=3, row_block=8),
            "gauss": dict(n=32, row_block=8, pivots=6),
            "fft": dict(n=512),
        },
        accuracy_trials=5_000,
        crash_points=[5_000, 40_000],
    ),
}


def _config(threads: int) -> MachineConfig:
    return scaled_machine(num_cores=threads + 1)


#: Variants of the per-kernel table (paper Figures 12/13).
_KERNEL_VARIANTS = ("base", "lp", "ep")

#: One forward point's result, keyed (workload, variant).
_Grid = Dict[Tuple[str, str], ExperimentResult]


def _forward_grid(scale: dict, n_jobs: int = 1) -> _Grid:
    """Run every forward point of the scheme and kernel tables.

    The two tables share tmm's base, lp and ep points.  The whole grid
    goes to the engine as one batch, and the engine simulates each
    distinct point once.
    """
    cfg = _config(scale["threads"])
    points = [("tmm", v) for v in get_workload("tmm").variants] + [
        (name, v) for name in scale["workloads"] for v in _KERNEL_VARIANTS
    ]
    jobs = [
        Job(
            get_workload(name)(**scale["workloads"][name]),
            cfg,
            variant,
            num_threads=scale["threads"],
            drain=True,
        )
        for name, variant in points
    ]
    return dict(zip(points, run_jobs(jobs, n_jobs=n_jobs)))


def _scheme_section(grid: _Grid) -> str:
    """Figure 10 flavour: all TMM schemes, normalized."""
    base = grid["tmm", "base"]
    rows = []
    for name in get_workload("tmm").variants:
        r = grid["tmm", name]
        rows.append(
            [
                name,
                round(r.exec_cycles / base.exec_cycles, 3),
                round(r.total_writes / base.total_writes, 3)
                if base.total_writes
                else "-",
            ]
        )
    return format_table(
        ["scheme", "exec (vs base)", "writes (vs base)"],
        rows,
        title="TMM schemes (paper Figure 10: LP ~1.00, EP 1.12/1.36, WAL 5.97/3.83)",
    )


def _kernels_section(scale: dict, grid: _Grid) -> str:
    """Figures 12/13 flavour: LP vs EP across kernels."""
    rows = []
    lp_ratios: List[float] = []
    ep_ratios: List[float] = []
    for name in scale["workloads"]:
        base = grid[name, "base"]
        lp = grid[name, "lp"].exec_cycles / base.exec_cycles
        ep = grid[name, "ep"].exec_cycles / base.exec_cycles
        lp_ratios.append(lp)
        ep_ratios.append(ep)
        rows.append([name, round(lp, 3), round(ep, 3)])
    rows.append(
        ["gmean", round(geomean(lp_ratios), 3), round(geomean(ep_ratios), 3)]
    )
    return format_table(
        ["kernel", "LP exec", "EP exec"],
        rows,
        title="Per-kernel execution time (paper Figure 12: LP avg 1.011, EP avg 1.09)",
    )


def _recovery_section(scale: dict) -> str:
    """Crash + recovery exactness across injected failure points."""
    # Imported here: the verify package stays out of start-up.
    from repro.verify.checker import check_variant

    cfg = _config(scale["threads"])
    name, params = next(iter(scale["workloads"].items()))
    report = check_variant(
        get_workload(name)(**params),
        cfg,
        "lp",
        [CrashPlan(at_op=op) for op in scale["crash_points"]],
        plan=None,
        num_threads=scale["threads"],
    )
    rows = [
        [p.crash["at_op"], p.crashed, p.recovery_ops, p.ok]
        for p in report.points
    ]
    return format_table(
        ["crash at op", "crashed", "recovery ops", "exact"],
        rows,
        title=f"Crash recovery ({name}): output must be bit-exact",
    )


def _accuracy_section(scale: dict) -> str:
    """Section III-D flavour: error-injection accuracy."""
    rows = []
    for engine in available_engines():
        res = run_error_injection(
            get_engine(engine),
            region_size=64,
            trials=scale["accuracy_trials"],
            error_model="stale",
            seed=9,
        )
        rows.append([engine, res.trials, res.missed])
    return format_table(
        ["engine", "injected errors", "missed"],
        rows,
        title="Checksum accuracy (paper section III-D: P(miss) < 2e-9)",
    )


def reproduce(scale: str = "quick", n_jobs: int = 1) -> str:
    """Run the compact reproduction and return the report text.

    ``n_jobs`` fans the forward points of the scheme and kernel tables,
    one batch, out over that many processes (see
    :mod:`repro.analysis.runner`); the crash and accuracy sections are
    sequential campaigns and always run serially.
    """
    try:
        params = _SCALES[scale]
    except KeyError:
        raise ConfigError(
            f"unknown scale {scale!r}; choose from {sorted(_SCALES)}"
        ) from None
    grid = _forward_grid(params, n_jobs=n_jobs)
    sections = [
        f"# Lazy Persistency reproduction report (scale: {scale})",
        _scheme_section(grid),
        _kernels_section(params, grid),
        _recovery_section(params),
        _accuracy_section(params),
        (
            "Full-scale harness: `pytest benchmarks/ --benchmark-only` "
            "(one bench per paper table/figure; see EXPERIMENTS.md)."
        ),
    ]
    return "\n\n".join(sections)
