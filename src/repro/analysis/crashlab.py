"""Crash-state checking campaigns: pick the crash points worth checking
and fan a crash-state check per variant through the experiment engine
(see :mod:`repro.verify`).

The paper evaluates performance (failures are rare); these campaigns
are the reproduction's way of *demonstrating* the correctness half:
at every crash point, recovery must reconstruct the exact failure-free
output on every reachable NVMM image.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.config import MachineConfig
from repro.sim.crash import CrashPlan
from repro.sim.machine import Machine
from repro.workloads.base import Workload


def crash_plans_for(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    op_points: int = 8,
    max_flush_points: Optional[int] = 32,
    num_threads: int = 2,
    engine: str = "modular",
) -> List[CrashPlan]:
    """Crash triggers worth checking for one variant.

    One profiling run (to completion, no crash) sizes the grid; the
    plans are then an even ``at_op`` spread over the whole run plus
    ``at_flush`` persist boundaries — right after each flush issues,
    before any fence orders it, where the reachable-image set is
    widest and missing-fence bugs live.  ``max_flush_points`` evenly
    subsamples the boundaries when the run flushes more often than
    that (None keeps them all).
    """
    machine = Machine(config)
    bound = workload.bind(machine, num_threads=num_threads, engine=engine)
    profile = machine.run(bound.threads(variant))

    plans: List[CrashPlan] = []
    if op_points > 0 and profile.ops_executed > 1:
        step = max(1, profile.ops_executed // (op_points + 1))
        ops = range(step, profile.ops_executed, step)
        plans.extend(CrashPlan(at_op=o) for o in list(ops)[:op_points])

    n_flushes = profile.flush_ops
    if n_flushes:
        if max_flush_points is None or n_flushes <= max_flush_points:
            boundaries: Sequence[int] = range(1, n_flushes + 1)
        else:
            boundaries = sorted(
                {
                    max(1, round(i * n_flushes / max_flush_points))
                    for i in range(1, max_flush_points + 1)
                }
            )
        plans.extend(CrashPlan(at_flush=n) for n in boundaries)
    return plans


def run_crashcheck_campaign(
    workload: Workload,
    config: MachineConfig,
    variants: Sequence[str],
    op_points: int = 8,
    max_flush_points: Optional[int] = 32,
    max_exhaustive_events: int = 12,
    samples: int = 64,
    seed: int = 0,
    num_threads: int = 2,
    engine: str = "modular",
    cleaner_period: Optional[float] = None,
    n_jobs: int = 1,
    cache=None,
    timing: Optional[str] = None,
    replay: bool = True,
    journal_path: Optional[str] = None,
    progress: bool = False,
):
    """Crash-state checking across variants, through the experiment engine.

    Builds one :class:`~repro.analysis.runner.CrashCheckJob` per
    variant (each spanning that variant's whole crash-point grid) and
    fans them through :func:`~repro.analysis.runner.run_jobs`, so
    campaigns parallelise and memoize exactly like experiment sweeps.
    Returns ``{variant: CrashCheckReport}`` in input order.

    ``timing`` overrides the config's timing model for the whole
    campaign (profiling runs, crash-point runs and cache keys stay
    consistent); the detailed default keeps crash-state spaces
    identical to pre-pipeline campaigns, while ``"functional"``
    explores the wider round-robin interleaving.  ``replay`` selects
    per-image recovery on replay machines — exact for the recovery
    verdict and the campaign's hot path; ``False`` restores
    full-machine recovery runs (benchmarking / belt-and-suspenders).

    ``journal_path``/``progress`` stream per-crash-point
    ``campaign_point`` events from the workers (a shared append-only
    JSONL file / stderr ticks); both are deliberately *not* part of
    the job cache key, so journaled campaigns hit the same cache
    entries as silent ones.  A variant the cache serves runs in no
    worker, so its stored points are journaled here once ``run_jobs``
    returns: warm or cold, the journal holds every variant's points.
    """
    from repro.analysis.runner import CrashCheckJob, run_jobs
    from repro.verify import CrashCheckReport, plan_to_dict
    from repro.verify.checker import journal_point

    if timing is not None:
        config = config.with_timing(timing)
    jobs = []
    for variant in variants:
        plans = crash_plans_for(
            workload,
            config,
            variant,
            op_points=op_points,
            max_flush_points=max_flush_points,
            num_threads=num_threads,
            engine=engine,
        )
        jobs.append(
            CrashCheckJob(
                workload=workload,
                config=config,
                variant=variant,
                crash_plans=tuple(plan_to_dict(p) for p in plans),
                max_exhaustive_events=max_exhaustive_events,
                samples=samples,
                seed=seed,
                num_threads=num_threads,
                engine=engine,
                cleaner_period=cleaner_period,
                replay=replay,
                journal_path=journal_path,
                progress=progress,
            )
        )
    served: List[CrashCheckReport] = []

    def decode(doc):
        # The cache decodes only the reports it serves.
        report = CrashCheckReport.from_dict(doc)
        served.append(report)
        return report

    reports = run_jobs(jobs, n_jobs=n_jobs, cache=cache, decode=decode)
    if served and (journal_path is not None or progress):
        from repro.obs.journal import TelemetryJournal

        journal = TelemetryJournal(path=journal_path, progress=progress)
        for report in served:
            label = f"{report.workload}/{report.variant}"
            for point in report.points:
                journal_point(journal, label, point)
    return dict(zip(variants, reports))
