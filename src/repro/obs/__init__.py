"""Observability for the simulator: probe bus, metrics, traces, reports.

The paper's claims are all timing/write-count claims, and diagnosing
*why* one persistency scheme beats another needs visibility into the
persist pipeline over time — when fence stalls cluster, how the MC
write queue fills, what the cleaner is doing.  This package adds that
visibility without touching the simulator's hot path:

* :mod:`repro.obs.events` / :mod:`repro.obs.bus` — the **probe bus**:
  typed probe events and a fan-out bus observers subscribe to.
* :mod:`repro.obs.taps` — ``attach_probes``/``detach_probes``/
  ``probed``: install per-instance taps on a built
  :class:`~repro.sim.machine.Machine`.  Nothing in ``repro.sim``
  branches on observability; an untapped machine runs byte-identical
  code (zero overhead when disabled).
* :mod:`repro.obs.intervals` — :class:`IntervalSampler`: rolls probe
  events into a per-N-cycles time series (stall cycles by cause, NVMM
  writes by cause, per-core IPC, MC queue depth, ...), dumpable as
  JSON/CSV and surfaced on
  :class:`~repro.analysis.experiments.ExperimentResult`.
* :mod:`repro.obs.recorder` / :mod:`repro.obs.perfetto` —
  :class:`TraceRecorder` and a Chrome-trace/Perfetto exporter whose
  output loads directly in ``ui.perfetto.dev``.
* :mod:`repro.obs.report` — :class:`RunReport`: a run manifest
  (config hash, code version, seed, timing model, wall clock) plus
  headline metrics, consumed by ``repro report``.
* :mod:`repro.obs.profile` — attribution profiling:
  :class:`WriteHeatmap` (per-line/per-region NVMM write counts, wear
  and coalescing, ``repro heatmap``) and :class:`StallFlame`
  (provenance x cause stall rollups in collapsed-stack format,
  ``repro flame``).
* :mod:`repro.obs.baseline` — the regression sentinel: committed
  baselines with noise bands under ``benchmarks/baselines/``, gated
  by ``repro regress`` in CI.
* :mod:`repro.obs.dashboard` — ``render_dashboard``: run reports,
  harness telemetry, and verification coverage as one self-contained
  HTML page (``repro dashboard``, ``repro watch``).
* :mod:`repro.obs.coverage` — :class:`CoverageStats`: how much of the
  crash-state space a crashcheck/litmus campaign actually checked
  (per-epoch exhaustive/sampled split, recovered vs diverged images,
  shrink effort, images/sec), built from the verify layer's reports.
* :mod:`repro.obs.journal` — :class:`TelemetryJournal`: the append-only
  JSONL event stream ``run_jobs``, crashcheck, and litmus write
  incrementally, with torn-line-tolerant tailing, and
  ``journal_summary``, the fold every telemetry view renders from.

See ``docs/observability.md`` for the probe-bus contract, the trace
schema, and the coverage/journal vocabularies.
"""

from repro.obs.baseline import (
    Baseline,
    BaselineStore,
    RegressionReport,
    compare_case,
    measure_case,
)
from repro.obs.bus import ProbeBus, ProbeObserver
from repro.obs.coverage import (
    CoverageStats,
    EpochCoverage,
    coverage_of_crashcheck,
    coverage_of_litmus,
)
from repro.obs.events import (
    CleanerPass,
    HazardHit,
    MemEvent,
    NvmmRead,
    OpExecuted,
    ProbeEvent,
    StallCharged,
    WritebackAccepted,
)
from repro.obs.dashboard import render_dashboard
from repro.obs.intervals import IntervalSampler
from repro.obs.journal import (
    TelemetryJournal,
    journal_summary,
    read_journal,
    tail_journal,
    watch_once,
)
from repro.obs.perfetto import to_chrome_trace, write_chrome_trace
from repro.obs.profile import (
    StallFlame,
    WriteHeatmap,
    render_flame,
    render_heatmap,
)
from repro.obs.recorder import TraceRecorder
from repro.obs.report import RunReport, render_reports
from repro.obs.taps import attach_probes, detach_probes, probed

__all__ = [
    "ProbeBus",
    "ProbeObserver",
    "ProbeEvent",
    "OpExecuted",
    "MemEvent",
    "StallCharged",
    "HazardHit",
    "WritebackAccepted",
    "NvmmRead",
    "CleanerPass",
    "IntervalSampler",
    "TraceRecorder",
    "to_chrome_trace",
    "write_chrome_trace",
    "RunReport",
    "render_reports",
    "WriteHeatmap",
    "StallFlame",
    "render_heatmap",
    "render_flame",
    "Baseline",
    "BaselineStore",
    "RegressionReport",
    "measure_case",
    "compare_case",
    "attach_probes",
    "detach_probes",
    "probed",
    "render_dashboard",
    "CoverageStats",
    "EpochCoverage",
    "coverage_of_crashcheck",
    "coverage_of_litmus",
    "TelemetryJournal",
    "journal_summary",
    "read_journal",
    "tail_journal",
    "watch_once",
]
