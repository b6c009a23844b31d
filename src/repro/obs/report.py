"""Run manifests: what ran, under what code, and what came out.

A :class:`RunReport` is the durable record of one experiment: the full
identity of the run (workload + parameters, variant, thread count,
timing model, a hash of the machine config, the simulator code
version, the scheduling seed) next to its headline metrics and
wall-clock.  ``repro run --report-out`` writes one per run;
``repro report a.json b.json ...`` renders any set of them as a
text or markdown comparison table (with columns normalized against
the first report), replacing ad-hoc per-command printing.

Reports are plain JSON on disk — one object, sorted keys — so they
diff cleanly in version control and load anywhere.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import IO, TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.analysis.reporting import format_markdown_table, format_table
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.experiments import ExperimentResult
    from repro.sim.config import MachineConfig

#: Bumped when the report layout changes incompatibly.
REPORT_SCHEMA_VERSION = 3

#: Metrics the comparison table normalizes against the first report.
_NORMALIZED_METRICS = ("exec_cycles", "nvmm_writes")


def config_hash(config: "MachineConfig") -> str:
    """Short content hash of a machine config (cache-key derived)."""
    return hashlib.sha256(config.cache_key().encode()).hexdigest()[:16]


@dataclass
class RunReport:
    """Manifest + headline metrics of one experiment run."""

    workload: str
    variant: str
    num_threads: int
    engine: str
    timing: str
    config_hash: str
    code_version: str
    seed: int
    wall_clock_s: float
    metrics: Dict[str, float]
    workload_params: Dict[str, object] = field(default_factory=dict)
    #: Interval time series of the run (``ExperimentResult.intervals``)
    #: when the run was sampled; rendered as sparklines by
    #: ``repro dashboard``.
    intervals: Optional[Dict[str, object]] = None
    schema: int = REPORT_SCHEMA_VERSION

    @classmethod
    def from_result(
        cls,
        result: "ExperimentResult",
        config: "MachineConfig",
        *,
        engine: str = "modular",
        wall_clock_s: float = 0.0,
        workload_params: Optional[Dict[str, object]] = None,
    ) -> "RunReport":
        """Build the report for one ``run_variant`` outcome."""
        from repro.analysis.runner import code_version

        metrics: Dict[str, float] = {}
        for key, value in result.summary_dict().items():
            metrics[key] = float(value)
        metrics["total_writes"] = float(result.total_writes)
        for cause, count in sorted(result.writes_by_cause.items()):
            metrics[f"writes_by_cause/{cause}"] = float(count)
        for cause, cycles in sorted(result.stalls.items()):
            metrics[f"stall_cycles/{cause}"] = float(cycles)
        return cls(
            workload=result.workload,
            variant=result.variant,
            num_threads=result.num_threads,
            engine=engine,
            timing=config.timing,
            config_hash=config_hash(config),
            code_version=code_version(),
            seed=config.schedule_seed,
            wall_clock_s=round(wall_clock_s, 4),
            metrics=metrics,
            workload_params=dict(workload_params or {}),
            intervals=result.intervals,
        )

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunReport":
        data = dict(data)
        schema = data.get("schema", None)
        if schema != REPORT_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported RunReport schema {schema!r} "
                f"(this code reads schema {REPORT_SCHEMA_VERSION})"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"malformed RunReport: {exc}") from None

    def save(self, out: Union[str, IO[str]]) -> None:
        """Write the report as sorted-key JSON."""
        if isinstance(out, str):
            with open(out, "w") as fh:
                json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            json.dump(self.to_dict(), out, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "RunReport":
        """Read a report written by :meth:`save`."""
        try:
            with open(path, "r") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read RunReport {path!r}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"RunReport {path!r} is not a JSON object")
        return cls.from_dict(data)

    def label(self) -> str:
        """Column label in comparison tables."""
        return f"{self.workload}/{self.variant}"


def render_reports(
    reports: Sequence[RunReport], fmt: str = "text"
) -> str:
    """One comparison table across ``reports`` (text or markdown).

    Rows are the union of all metrics (manifest rows first); with two
    or more reports, ``exec_cycles`` and ``nvmm_writes`` gain a
    ``(xN.NN)`` annotation normalized against the *first* report.
    """
    if not reports:
        raise ConfigError("no reports to render")
    if fmt not in ("text", "md"):
        raise ConfigError(f"unknown report format {fmt!r}; use text or md")

    base = reports[0]
    metric_names: List[str] = []
    for report in reports:
        for name in report.metrics:
            if name not in metric_names:
                metric_names.append(name)

    manifest_rows = [
        ["workload"] + [r.workload for r in reports],
        ["variant"] + [r.variant for r in reports],
        ["threads"] + [r.num_threads for r in reports],
        ["timing"] + [r.timing for r in reports],
        ["engine"] + [r.engine for r in reports],
        ["seed"] + [r.seed for r in reports],
        ["config hash"] + [r.config_hash for r in reports],
        ["code version"] + [r.code_version[:12] for r in reports],
        ["wall clock (s)"] + [r.wall_clock_s for r in reports],
    ]

    metric_rows: List[List[object]] = []
    for name in sorted(metric_names):
        row: List[object] = [name]
        for report in reports:
            value = report.metrics.get(name)
            if value is None:
                row.append("-")
                continue
            cell = _fmt_metric(value)
            if (
                len(reports) > 1
                and name in _NORMALIZED_METRICS
                and base.metrics.get(name)
            ):
                cell += f" (x{value / base.metrics[name]:.3f})"
            row.append(cell)
        metric_rows.append(row)

    headers = ["metric"] + [r.label() for r in reports]
    rows = manifest_rows + metric_rows
    render = format_markdown_table if fmt == "md" else format_table
    return render(headers, rows, title="Run comparison")


def _fmt_metric(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.4g}"
