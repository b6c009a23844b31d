"""Parameter sweeps for the sensitivity studies (Figures 11, 14, 15).

Each sweep varies exactly the knob its figure varies — NVMM latency,
thread count, L2 capacity, checksum engine, cleaner period — holding
everything else fixed, and returns per-point
:class:`~repro.analysis.experiments.ExperimentResult` objects.

All sweeps fan their points out through the parallel experiment
engine (:mod:`repro.analysis.runner`): pass ``n_jobs=N`` to simulate
independent points on N processes and ``cache=ResultCache()`` to
memoize each point on disk.  The defaults (``n_jobs=1``, no cache)
reproduce the original serial behaviour exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import ExperimentResult
from repro.analysis.runner import Job, ResultCache, run_jobs
from repro.sim.config import MachineConfig
from repro.workloads.base import Workload


def cores_for_workers(num_workers: int, config: MachineConfig) -> int:
    """Core count for ``num_workers`` worker threads + 1 master thread.

    The paper's setup always reserves one core for the master (8
    workers on a 9-core machine); a sweep never shrinks the configured
    machine below its own core count.
    """
    return max(num_workers + 1, config.num_cores)


def sweep_nvmm_latency(
    workload: Workload,
    config: MachineConfig,
    latencies: Sequence[Tuple[float, float]],
    variants: Sequence[str] = ("base", "lp", "ep"),
    num_threads: int = 8,
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[Tuple[float, float], Dict[str, ExperimentResult]]:
    """Figure 14(a): (read, write) latency points, in cycles."""
    latencies = [tuple(point) for point in latencies]
    jobs = [
        Job(
            workload,
            config.with_nvmm_latency(read_cycles, write_cycles),
            v,
            num_threads=num_threads,
        )
        for read_cycles, write_cycles in latencies
        for v in variants
    ]
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache)
    return _regroup(latencies, variants, results)


def sweep_threads(
    workload: Workload,
    config: MachineConfig,
    thread_counts: Sequence[int],
    variants: Sequence[str] = ("base", "lp"),
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[int, Dict[str, ExperimentResult]]:
    """Figure 14(b): scalability from 1 to 16 threads."""
    jobs = [
        Job(
            workload,
            config.with_cores(cores_for_workers(p, config)),
            v,
            num_threads=p,
        )
        for p in thread_counts
        for v in variants
    ]
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache)
    return _regroup(thread_counts, variants, results)


def sweep_l2_size(
    workload: Workload,
    config: MachineConfig,
    sizes_bytes: Sequence[int],
    variants: Sequence[str] = ("base", "lp"),
    num_threads: int = 8,
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[int, Dict[str, ExperimentResult]]:
    """Figure 15(a): L2 capacity sweep."""
    jobs = [
        Job(
            workload,
            config.with_l2_size(size),
            v,
            num_threads=num_threads,
        )
        for size in sizes_bytes
        for v in variants
    ]
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache)
    return _regroup(sizes_bytes, variants, results)


def sweep_checksum(
    workload: Workload,
    config: MachineConfig,
    engines: Sequence[str],
    num_threads: int = 8,
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[str, ExperimentResult]:
    """Figure 15(b): LP under each error-detection code."""
    jobs = [
        Job(
            workload,
            config,
            "lp",
            num_threads=num_threads,
            engine=e,
        )
        for e in engines
    ]
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache)
    return dict(zip(engines, results))


def sweep_cleaner_period(
    workload: Workload,
    config: MachineConfig,
    periods: Sequence[Optional[float]],
    variant: str = "lp",
    num_threads: int = 8,
    n_jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> Dict[Optional[float], ExperimentResult]:
    """Figure 11: periodic-flush interval sweep (None = no cleaner)."""
    jobs = [
        Job(
            workload,
            config,
            variant,
            num_threads=num_threads,
            cleaner_period=p,
        )
        for p in periods
    ]
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache)
    return dict(zip(periods, results))


def _regroup(points, variants, results: List[ExperimentResult]):
    """Flat engine output -> {point: {variant: result}} (point-major)."""
    out = {}
    it = iter(results)
    for point in points:
        out[point] = {v: next(it) for v in variants}
    return out
