"""Experiment harness: run workload variants, sweep parameters, and
format results the way the paper's tables and figures report them."""

from repro.analysis.experiments import ExperimentResult, compare_variants, run_variant
from repro.analysis.reporting import format_table, geomean, normalize
from repro.analysis.sweep import (
    sweep_checksum,
    sweep_cleaner_period,
    sweep_l2_size,
    sweep_nvmm_latency,
    sweep_threads,
)

__all__ = [
    "ExperimentResult",
    "compare_variants",
    "run_variant",
    "format_table",
    "geomean",
    "normalize",
    "sweep_checksum",
    "sweep_cleaner_period",
    "sweep_l2_size",
    "sweep_nvmm_latency",
    "sweep_threads",
]
