"""The regression sentinel: committed perf baselines with noise bands.

The repo's perf story so far was eyeballed — benches print tables, CI
asserts a couple of coarse floors.  This module makes the trajectory
self-detecting: ``benchmarks/baselines/`` holds one JSON per baseline
case (workload x variant at a fixed size/thread count), each recording
the mean of the gated metrics over several scheduler seeds plus a
noise band estimated from the cross-seed spread.  ``repro regress``
re-runs every case with the same code-defined machine configs and
exits non-zero when a gated metric lands above its band — an
out-of-band execution-time slowdown or write-amp growth fails CI
instead of slipping through a table nobody reads.

Design notes:

* The per-seed machine configs come from :func:`baseline_config` — in
  code, not in the baseline file — so a deliberate machine-model change
  shows up as a regression to acknowledge (via ``--update-baselines``),
  never as silently incomparable numbers.  The config hash and code
  digest in the file are informational.
* The simulator is deterministic per seed, so the cross-seed spread
  (scheduler jitter is enabled) is the *real* variation a re-run can
  see; the band is that spread times a margin, floored at
  :data:`MIN_BAND` so a zero-spread case still tolerates trivia.
* Baselines ratchet: ``--update-baselines`` rewrites the files from a
  fresh measurement, and the diff is reviewed like any other code
  change.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.config import MachineConfig, scaled_machine

#: Bumped when the baseline file layout changes incompatibly.
BASELINE_SCHEMA_VERSION = 1

#: Metrics the sentinel gates (drawn from ExperimentResult).
GATED_METRICS = ("exec_cycles", "total_writes")

#: Minimum relative noise band, even for zero cross-seed spread.
MIN_BAND = 0.02

#: Band = max(MIN_BAND, BAND_MARGIN * relative cross-seed spread).
BAND_MARGIN = 1.5

#: Scheduler seeds each case is measured under.
BASELINE_SEEDS = (1, 2, 3)

#: Scheduling jitter for baseline runs: nonzero so the seeds actually
#: produce distinct interleavings and the band reflects real variance.
BASELINE_JITTER = 0.5


def baseline_config(seed: int, timing: str = "detailed") -> MachineConfig:
    """The machine config baseline cases run under, per seed.

    Code-defined on purpose (see module docstring): 2 worker threads
    on a 3-core scaled machine with scheduling jitter enabled.
    """
    config = scaled_machine(num_cores=3)
    return replace(
        config,
        schedule_seed=seed,
        schedule_jitter=BASELINE_JITTER,
        timing=timing,
    )


def mistimed(config: MachineConfig, factor: float) -> MachineConfig:
    """A config with core-issue latencies scaled by ``factor``.

    The injected-slowdown path: ``repro regress --mistime 1.1``
    proves the sentinel trips on a synthetic ~10% execution-time
    regression without touching any committed code.
    """
    if factor <= 0:
        raise ConfigError(f"mistime factor must be positive, got {factor}")
    core = config.core
    return replace(
        config,
        core=replace(
            core,
            compute_cpi=core.compute_cpi * factor,
            l1_hit_issue_cycles=core.l1_hit_issue_cycles * factor,
            store_drain_cycles=core.store_drain_cycles * factor,
            flush_issue_cycles=core.flush_issue_cycles * factor,
        ),
    )


@dataclass(frozen=True)
class BaselineCase:
    """One gated point: a workload x variant at fixed size/threads."""

    case_id: str
    workload: str
    params: Tuple[Tuple[str, int], ...]
    variant: str
    num_threads: int = 2

    def build_workload(self):
        from repro.workloads import get_workload

        return get_workload(self.workload)(**dict(self.params))


def _suite() -> Tuple[BaselineCase, ...]:
    sizes: Dict[str, Tuple[Tuple[str, int], ...]] = {
        "tmm": (("n", 24), ("bsize", 8), ("kk_tiles", 2)),
        "fft": (("n", 128),),
        "gauss": (("n", 24), ("row_block", 4)),
        "cholesky": (("n", 24), ("col_block", 4)),
        "conv2d": (("n", 16), ("row_block", 2)),
        "log": (("records", 32), ("width", 4), ("wb_batch", 8)),
        "hashmap": (
            ("capacity", 16),
            ("ops", 64),
            ("keys", 4),
            ("wb_batch", 8),
        ),
    }
    cases = []
    for workload, params in sizes.items():
        for variant in ("base", "lp", "ep"):
            cases.append(
                BaselineCase(
                    case_id=f"{workload}-{variant}",
                    workload=workload,
                    params=params,
                    variant=variant,
                )
            )
    return tuple(cases)


#: The committed suite: every workload x (base, lp, ep) at small-but-
#: not-smoke sizes, 2 worker threads.
DEFAULT_SUITE: Tuple[BaselineCase, ...] = _suite()


@dataclass
class Baseline:
    """One committed baseline record (one JSON file)."""

    case_id: str
    #: The measured workload, as a :func:`repro.analysis.runner.
    #: workload_spec` dict — authoritative for re-runs.
    spec: Dict[str, object]
    variant: str
    num_threads: int
    seeds: List[int]
    timing: str
    #: metric -> {"mean": .., "band": .., "per_seed": [..]}.
    metrics: Dict[str, Dict[str, object]]
    #: Informational: the config/code the measurement ran under.
    config_hash: str = ""
    code: str = ""
    schema: int = BASELINE_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Baseline":
        data = dict(data)
        schema = data.get("schema")
        if schema != BASELINE_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported baseline schema {schema!r} (this code "
                f"reads schema {BASELINE_SCHEMA_VERSION})"
            )
        names = {f.name for f in fields(cls)}
        extra = set(data) - names
        if extra:
            raise ConfigError(
                f"unknown baseline fields: {sorted(extra)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"malformed baseline: {exc}") from None


class BaselineStore:
    """Directory of baseline JSONs (``benchmarks/baselines/`` in CI)."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, case_id: str) -> str:
        return os.path.join(self.root, f"{case_id}.json")

    def case_ids(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        out = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, name), "r") as fh:
                    data = json.load(fh)
            except (OSError, ValueError):
                # Unreadable files still surface as errors at load().
                out.append(name[: -len(".json")])
                continue
            if isinstance(data, dict) and "schema" not in data:
                # Not a baseline record: the directory also holds other
                # committed gate artifacts (e.g. throughput_floor.json,
                # the detailed-timing throughput ratchet floor).
                continue
            out.append(name[: -len(".json")])
        return out

    def load(self, case_id: str) -> Baseline:
        path = self.path(case_id)
        try:
            with open(path, "r") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot read baseline {path!r}: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise ConfigError(f"baseline {path!r} is not a JSON object")
        return Baseline.from_dict(data)

    def save(self, baseline: Baseline) -> str:
        os.makedirs(self.root, exist_ok=True)
        path = self.path(baseline.case_id)
        with open(path, "w") as fh:
            json.dump(baseline.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


# ----------------------------------------------------------------------
# measurement and comparison
# ----------------------------------------------------------------------


def _metric_values(results) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {m: [] for m in GATED_METRICS}
    for result in results:
        out["exec_cycles"].append(float(result.exec_cycles))
        out["total_writes"].append(float(result.total_writes))
    return out


def _case_jobs(
    workload,
    variant: str,
    num_threads: int,
    seeds,
    timing: str,
    mistime: Optional[float] = None,
):
    from repro.analysis.runner import Job

    jobs = []
    for seed in seeds:
        config = baseline_config(seed, timing=timing)
        if mistime is not None:
            config = mistimed(config, mistime)
        jobs.append(
            Job(
                workload,
                config,
                variant,
                num_threads=num_threads,
                drain=True,
            )
        )
    return jobs


def measure_case(
    case: BaselineCase,
    timing: str = "detailed",
    n_jobs: int = 1,
    cache=None,
) -> Baseline:
    """Measure one case across the baseline seeds into a Baseline."""
    from repro.analysis.runner import code_version, run_jobs, workload_spec
    from repro.obs.report import config_hash

    workload = case.build_workload()
    jobs = _case_jobs(
        workload, case.variant, case.num_threads, BASELINE_SEEDS, timing
    )
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache)
    metrics: Dict[str, Dict[str, object]] = {}
    for name, values in _metric_values(results).items():
        mean = sum(values) / len(values)
        spread = (max(values) - min(values)) / mean if mean else 0.0
        metrics[name] = {
            "mean": mean,
            "band": max(MIN_BAND, BAND_MARGIN * spread),
            "per_seed": values,
        }
    return Baseline(
        case_id=case.case_id,
        spec=workload_spec(workload),
        variant=case.variant,
        num_threads=case.num_threads,
        seeds=list(BASELINE_SEEDS),
        timing=timing,
        metrics=metrics,
        config_hash=config_hash(baseline_config(BASELINE_SEEDS[0], timing)),
        code=code_version(),
    )


@dataclass
class Verdict:
    """One gated metric's fresh-vs-baseline outcome."""

    case_id: str
    metric: str
    baseline_mean: float
    band: float
    fresh_mean: float
    regressed: bool

    @property
    def ratio(self) -> float:
        if self.baseline_mean == 0:
            return float("inf") if self.fresh_mean else 1.0
        return self.fresh_mean / self.baseline_mean


def compare_case(
    baseline: Baseline,
    n_jobs: int = 1,
    cache=None,
    mistime: Optional[float] = None,
) -> List[Verdict]:
    """Re-run one baseline case and judge each gated metric.

    The workload is rebuilt from the stored spec; the machine configs
    are rebuilt from code (:func:`baseline_config`), so the comparison
    measures *code* drift, exactly what a CI gate should.  ``mistime``
    scales core latencies on the fresh side only — the injected-
    slowdown proof that the gate actually trips.
    """
    from repro.analysis.runner import run_jobs, workload_from_spec

    workload = workload_from_spec(baseline.spec)
    jobs = _case_jobs(
        workload,
        baseline.variant,
        baseline.num_threads,
        baseline.seeds,
        baseline.timing,
        mistime=mistime,
    )
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache)
    verdicts = []
    for name, values in _metric_values(results).items():
        recorded = baseline.metrics.get(name)
        if recorded is None:
            continue
        mean = float(recorded["mean"])  # type: ignore[arg-type]
        band = float(recorded["band"])  # type: ignore[arg-type]
        fresh = sum(values) / len(values)
        verdicts.append(
            Verdict(
                case_id=baseline.case_id,
                metric=name,
                baseline_mean=mean,
                band=band,
                fresh_mean=fresh,
                regressed=fresh > mean * (1.0 + band),
            )
        )
    return verdicts


@dataclass
class RegressionReport:
    """All verdicts of one ``repro regress`` invocation."""

    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def regressions(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        from repro.analysis.reporting import format_table

        rows = []
        for v in self.verdicts:
            rows.append(
                [
                    v.case_id,
                    v.metric,
                    f"{v.baseline_mean:.1f}",
                    f"{v.fresh_mean:.1f}",
                    f"x{v.ratio:.3f}",
                    f"±{v.band * 100:.1f}%",
                    "REGRESSED" if v.regressed else "ok",
                ]
            )
        table = format_table(
            ["case", "metric", "baseline", "fresh", "ratio", "band",
             "verdict"],
            rows,
            title="Regression sentinel",
        )
        tail = (
            f"\n{len(self.regressions)} of {len(self.verdicts)} gated "
            "metrics out of band"
            if self.regressions
            else "\nall gated metrics within their noise bands"
        )
        return table + tail
