"""Single-run experiment driver.

``run_variant`` is the one entry point every bench and example uses:
build a machine, bind a workload, run one Table IV variant, verify the
output, and return an :class:`ExperimentResult` with the metrics the
paper reports (execution cycles, NVMM writes, L2 miss rate, hazard
counters, max volatility duration).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Sequence

from repro.errors import WorkloadError
from repro.sim.cleaner import PeriodicCleaner
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.base import Workload


@dataclass
class ExperimentResult:
    """Metrics from one (workload, variant, config) run."""

    workload: str
    variant: str
    num_threads: int
    exec_cycles: float
    nvmm_writes: int
    nvmm_reads: int
    l2_miss_rate: float
    max_volatility_cycles: float
    hazards: Dict[str, int]
    writes_by_cause: Dict[str, int] = field(default_factory=dict)
    #: ``run_variant`` raises on a wrong result, so a result it returns
    #: is always verified.
    verified: bool = True
    ops_executed: int = 0
    cleaner_writes: int = 0
    #: Writes from draining still-resident dirty lines at window end
    #: (0 unless ``run_variant(..., drain=True)``).
    drain_writes: int = 0
    #: Stall cycles by cause, as attributed by the timing pipeline's
    #: :class:`~repro.sim.events.LatencyLedger` (empty under the
    #: functional model, which never stalls).
    stalls: Dict[str, float] = field(default_factory=dict)
    #: Interval time series from the probe bus (the JSON-safe dict of
    #: :meth:`repro.obs.intervals.IntervalSampler.series`); ``None``
    #: unless ``run_variant(..., obs_interval=N)`` sampled the run.
    #: Sampling is a single-run feature: a ``Job`` cannot sample, so
    #: the result cache never holds a series.
    intervals: Optional[Dict[str, object]] = None

    @property
    def total_writes(self) -> int:
        """In-window writes plus the end-of-window drain.

        At this reproduction's scale the dirty lines still resident
        when the window closes are a large fraction of a short run's
        traffic; counting their eventual writeback removes that
        window-boundary artifact (the paper's multi-second runs
        amortize it to nothing).  Write-amplification figures use this.
        """
        return self.nvmm_writes + self.drain_writes

    def summary_dict(self) -> Dict[str, object]:
        """Flat metric dict for reporting (CLI, logs)."""
        out: Dict[str, object] = {
            "exec_cycles": round(self.exec_cycles, 1),
            "nvmm_writes": self.nvmm_writes,
            "drain_writes": self.drain_writes,
            "nvmm_reads": self.nvmm_reads,
            "l2_miss_rate": round(self.l2_miss_rate, 4),
            "max_volatility_cycles": round(self.max_volatility_cycles, 1),
            "ops_executed": self.ops_executed,
            "verified": self.verified,
        }
        for name, count in sorted(self.hazards.items()):
            out[f"hazard_{name}"] = count
        return out

    def to_dict(self) -> Dict[str, object]:
        """Full, lossless field dump (the on-disk cache record body)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        Strict on shape: unknown or missing fields raise (``TypeError``
        / ``KeyError``), which the result cache treats as a corrupted
        entry and falls back to re-running the experiment.
        """
        names = {f.name for f in fields(cls)}
        extra = set(data) - names
        if extra:
            raise KeyError(f"unknown ExperimentResult fields: {sorted(extra)}")
        return cls(**data)

    def normalized_to(self, base: "ExperimentResult") -> Dict[str, float]:
        """Execution-time and write ratios vs a baseline run (how every
        number in Figures 10-15 is reported)."""
        return {
            "exec_time": self.exec_cycles / base.exec_cycles,
            "num_writes": (
                self.nvmm_writes / base.nvmm_writes
                if base.nvmm_writes
                else float("inf")
            ),
        }


def run_variant(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    num_threads: int = 8,
    engine: str = "modular",
    cleaner_period: Optional[float] = None,
    drain: bool = False,
    obs_interval: Optional[float] = None,
    observers: Optional[Sequence[object]] = None,
    provenance: bool = False,
) -> ExperimentResult:
    """Run one variant start-to-finish and collect its metrics.

    ``obs_interval`` samples the run into an ``obs_interval``-cycle
    time series (the result's ``intervals`` field); ``observers`` taps
    arbitrary probe observers (e.g. a ``TraceRecorder``) into the run.
    Either one attaches the probe bus around the measured window only
    — the drain pass stays untraced so writeback event counts match
    the in-window ``nvmm_writes``.  Plain runs (both ``None``) never
    touch ``repro.obs``.  ``provenance`` opts the bound workload into
    emitting free :class:`~repro.sim.isa.Phase` frame ops, which stall
    profilers (:class:`repro.obs.profile.StallFlame`) fold into
    per-phase attribution; untagged runs are byte-identical to
    pre-provenance ones.
    """
    workload.check_variant(variant)
    if num_threads > config.num_cores:
        raise WorkloadError(
            f"{num_threads} threads need at least {num_threads} cores, "
            f"config has {config.num_cores}"
        )
    machine = Machine(config)
    if cleaner_period is not None:
        machine.cleaner = PeriodicCleaner(cleaner_period)
    bound = workload.bind(machine, num_threads=num_threads, engine=engine)
    if provenance:
        bound.provenance = True

    sampler = None
    if obs_interval is not None or observers:
        # Imported lazily: plain runs must not pay for (or depend on)
        # the observability package.
        from repro.obs import IntervalSampler, ProbeBus, attach_probes

        obs_list = list(observers or [])
        if obs_interval is not None:
            sampler = IntervalSampler(obs_interval)
            obs_list.append(sampler)
        attach_probes(machine, ProbeBus(obs_list))
    try:
        result = machine.run(bound.threads(variant))
    finally:
        if obs_interval is not None or observers:
            from repro.obs import detach_probes

            detach_probes(machine)
    exec_cycles = result.exec_cycles
    in_window_writes = result.stats.nvmm_writes
    drain_writes = machine.drain() if drain else 0

    if not bound.verify():
        raise WorkloadError(
            f"{workload.name}/{variant} produced a wrong result; "
            f"max error {bound.verification_error()}"
        )
    return ExperimentResult(
        workload=workload.name,
        variant=variant,
        num_threads=num_threads,
        exec_cycles=exec_cycles,
        nvmm_writes=in_window_writes,
        drain_writes=drain_writes,
        nvmm_reads=result.stats.nvmm_reads,
        l2_miss_rate=result.stats.l2_miss_rate,
        max_volatility_cycles=result.stats.max_volatility_cycles,
        hazards=result.stats.hazard_totals(),
        writes_by_cause=dict(result.stats.writes_by_cause),
        ops_executed=result.ops_executed,
        cleaner_writes=result.stats.writes_by_cause.get("cleaner", 0),
        stalls=result.stats.stall_summary(),
        intervals=sampler.series() if sampler is not None else None,
    )


def compare_variants(
    workload: Workload,
    config: MachineConfig,
    variants,
    num_threads: int = 8,
    engine: str = "modular",
    drain: bool = False,
    n_jobs: int = 1,
    cache=None,
) -> Dict[str, ExperimentResult]:
    """Run several variants of one workload under identical conditions.

    ``n_jobs``/``cache`` fan the variants out through the parallel
    experiment engine (:mod:`repro.analysis.runner`); the defaults run
    serially with no on-disk cache, exactly like ``run_variant`` in a
    loop.
    """
    # Imported here: runner depends on this module.
    from repro.analysis.runner import Job, run_jobs

    jobs = [
        Job(
            workload,
            config,
            v,
            num_threads=num_threads,
            engine=engine,
            drain=drain,
        )
        for v in variants
    ]
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache)
    return dict(zip(variants, results))
