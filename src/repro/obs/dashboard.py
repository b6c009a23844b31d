"""Static HTML dashboard over run manifests and journal folds.

``render_dashboard`` folds any set of :class:`~repro.obs.report.
RunReport` manifests — plus the telemetry and coverage documents
:func:`~repro.obs.journal.journal_summary` folds from a journal — into
one self-contained HTML page: headline tiles, a metric comparison
table, per-run interval sparklines (SVG, from each report's
``intervals`` series), a per-job timeline of the harness's spans
(queue/run wall clock, cache hits vs full runs), and a verification-
coverage panel (per-epoch bar strips + a scheme×workload grid over
:class:`~repro.obs.coverage.CoverageStats` documents).  No external
assets, no scripts, no wall-clock timestamps — the page is a single
byte-deterministic file that renders anywhere, including as a CI
artifact.

``repro dashboard REPORT.json ... JOURNAL.jsonl ... -o dash.html`` is
the CLI face; ``repro watch JOURNAL`` re-renders it live from a
journal that is still being written.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.report import RunReport

#: Interval columns worth a sparkline, in display order; per-core op
#: columns are added dynamically.
_SPARK_COLUMNS = (
    "fences",
    "stalls.fence_mfence",
    "writes.eviction",
    "writes.flush",
    "nvmm_reads",
    "queue_delay_cycles",
)

#: Headline metrics for the tile row of each report.
_TILE_METRICS = (
    ("exec_cycles", "exec cycles"),
    ("nvmm_writes", "NVMM writes"),
    ("nvmm_reads", "NVMM reads"),
    ("ops_executed", "ops"),
)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 1.5rem auto; max-width: 72rem; color: #1c2733;
       background: #f7f9fb; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
h3 { font-size: 0.95rem; margin: 0.8rem 0 0.3rem; }
.tiles { display: flex; flex-wrap: wrap; gap: 0.6rem; }
.tile { background: #fff; border: 1px solid #dde4ea; border-radius: 6px;
        padding: 0.5rem 0.9rem; min-width: 7rem; }
.tile .v { font-size: 1.15rem; font-weight: 600; }
.tile .k { font-size: 0.72rem; color: #5b6b7a; text-transform: uppercase; }
table { border-collapse: collapse; background: #fff; font-size: 0.85rem; }
th, td { border: 1px solid #dde4ea; padding: 0.25rem 0.6rem;
         text-align: right; }
th:first-child, td:first-child { text-align: left; }
.card { background: #fff; border: 1px solid #dde4ea; border-radius: 6px;
        padding: 0.8rem 1rem; margin: 0.8rem 0; }
.spark { display: inline-block; margin: 0 0.9rem 0.4rem 0; }
.spark .lbl { font-size: 0.7rem; color: #5b6b7a; display: block; }
.span-run { fill: #4c88c8; } .span-hit { fill: #74b06f; }
.axis { font-size: 0.65rem; fill: #5b6b7a; }
.muted { color: #5b6b7a; font-size: 0.8rem; }
.epoch-ex { fill: #4c88c8; } .epoch-sm { fill: #d9923b; }
.cov-bad { color: #b03030; font-weight: 600; }
.legend { font-size: 0.75rem; color: #5b6b7a; }
.legend .sw { display: inline-block; width: 0.7rem; height: 0.7rem;
              border-radius: 2px; vertical-align: -0.05rem; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _fmt(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.2f}"


def _sparkline(
    label: str, values: Sequence[float], width: int = 180, height: int = 36
) -> str:
    """One inline SVG polyline over ``values`` (empty-safe)."""
    n = len(values)
    peak = max(values) if values else 0.0
    if n < 2 or peak <= 0:
        points = f"0,{height - 2} {width},{height - 2}"
    else:
        step = width / (n - 1)
        points = " ".join(
            f"{i * step:.1f},{(height - 2) * (1 - v / peak) + 1:.1f}"
            for i, v in enumerate(values)
        )
    return (
        f'<span class="spark"><span class="lbl">{_esc(label)}'
        f" (peak {_fmt(peak)})</span>"
        f'<svg width="{width}" height="{height}">'
        f'<polyline points="{points}" fill="none" stroke="#4c88c8" '
        f'stroke-width="1.5"/></svg></span>'
    )


def _spark_columns(columns: Dict[str, List[float]]) -> List[str]:
    """Which interval columns to draw: per-core ops, then the fixed set."""
    names = sorted(n for n in columns if n.startswith("ops.core"))
    names += [n for n in _SPARK_COLUMNS if n in columns]
    return names


def _timeline(telemetry: Dict[str, object]) -> str:
    """Per-job gantt over the harness spans (SVG rows on one clock)."""
    spans = telemetry.get("spans")
    if not isinstance(spans, list) or not spans:
        return '<p class="muted">no spans recorded</p>'
    horizon = max(float(s.get("end_s", 0.0)) for s in spans) or 1.0
    row_h, width = 18, 640
    label_w = 160
    parts = [
        f'<svg width="{label_w + width + 70}" '
        f'height="{row_h * len(spans) + 20}">'
    ]
    for i, span in enumerate(spans):
        y = i * row_h
        x0 = label_w + width * float(span.get("start_s", 0.0)) / horizon
        x1 = label_w + width * float(span.get("end_s", 0.0)) / horizon
        status = str(span.get("status", "run"))
        parts.append(
            f'<text class="axis" x="0" y="{y + 12}">'
            f"{_esc(span.get('label', '?'))} [{_esc(status)}]</text>"
            f'<rect class="span-{_esc(status)}" x="{x0:.1f}" y="{y + 4}" '
            f'width="{max(x1 - x0, 1.5):.1f}" height="{row_h - 8}"/>'
            f'<text class="axis" x="{x1 + 4:.1f}" y="{y + 12}">'
            f"{float(span.get('wall_s', 0.0)):.3f}s</text>"
        )
    parts.append(
        f'<text class="axis" x="{label_w}" '
        f'y="{row_h * len(spans) + 14}">0s</text>'
        f'<text class="axis" x="{label_w + width - 30}" '
        f'y="{row_h * len(spans) + 14}">{horizon:.3f}s</text></svg>'
    )
    return "".join(parts)


def _telemetry_tiles(telemetry: Dict[str, object]) -> List[Tuple[str, str]]:
    summary = telemetry.get("summary")
    if not isinstance(summary, dict):
        return []
    tiles = [
        ("jobs", _esc(summary.get("jobs", 0))),
        ("cache hits", _esc(summary.get("hits", 0))),
        ("full runs", _esc(summary.get("runs", 0))),
        ("workers", _esc(summary.get("workers", 1))),
        ("wall clock", f"{float(summary.get('wall_clock_s', 0.0)):.3f}s"),
        (
            "utilization",
            f"{100.0 * float(summary.get('utilization', 0.0)):.0f}%",
        ),
    ]
    cache = summary.get("cache")
    if isinstance(cache, dict):
        tiles.append(
            ("cache hit rate",
             f"{100.0 * float(cache.get('hit_rate', 0.0)):.0f}%")
        )
    return tiles


def _epoch_strip(doc: Dict[str, object]) -> str:
    """Per-epoch bar strip: one bar per event-count bucket, height by
    images checked, colored by the enumerator's frontier decision
    (blue exhaustive, amber sampled), with the epoch's enumeration
    bound as the right-hand figure."""
    epochs = doc.get("epochs")
    if not isinstance(epochs, list) or not epochs:
        return '<p class="muted">no crashed points yet</p>'
    peak = max(int(e.get("images_checked", 0)) for e in epochs) or 1
    bar_w, gap, height = 26, 6, 64
    width = len(epochs) * (bar_w + gap) + gap
    parts = [f'<svg width="{width}" height="{height + 28}">']
    for i, epoch in enumerate(epochs):
        images = int(epoch.get("images_checked", 0))
        x = gap + i * (bar_w + gap)
        h = max(int(height * images / peak), 2)
        cls = "epoch-ex" if epoch.get("exhaustive") else "epoch-sm"
        parts.append(
            f'<rect class="{cls}" x="{x}" y="{height - h + 2}" '
            f'width="{bar_w}" height="{h}"/>'
            f'<text class="axis" x="{x}" y="{height + 13}">'
            f"{_esc(epoch.get('num_events', '?'))}ev</text>"
            f'<text class="axis" x="{x}" y="{height + 24}">'
            f"{images}</text>"
        )
    parts.append("</svg>")
    parts.append(
        '<p class="legend"><span class="sw epoch-ex"></span> exhaustive '
        '&nbsp; <span class="sw epoch-sm"></span> sampled — bars are '
        "images checked per event-count epoch</p>"
    )
    return "".join(parts)


def _coverage_grid(docs: Sequence[Dict[str, object]]) -> str:
    """Scheme×workload grid of images checked (✗ marks divergence).

    Crashcheck labels are ``workload/variant``; litmus labels (model
    names) have no slash and get a column named after their kind.
    """
    cells: Dict[Tuple[str, str], Dict[str, object]] = {}
    for doc in docs:
        label = str(doc.get("label", "?"))
        if "/" in label:
            row, col = label.split("/", 1)
        else:
            row, col = label, str(doc["kind"])
        cells[(row, col)] = doc
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    head = "".join(f"<th>{_esc(c)}</th>" for c in cols)
    body = []
    for row in rows:
        tds = []
        for col in cols:
            doc = cells.get((row, col))
            if doc is None:
                tds.append("<td>-</td>")
                continue
            images = int(doc.get("images_checked", 0))
            bad = int(doc.get("counterexamples", 0)) or int(
                doc.get("images_diverged", 0)
            )
            mark = (
                f' <span class="cov-bad">&#x2717;{bad}</span>' if bad else ""
            )
            tds.append(f"<td>{images:,}{mark}</td>")
        body.append(f"<tr><td>{_esc(row)}</td>{''.join(tds)}</tr>")
    return (
        f"<table><tr><th>workload</th>{head}</tr>" + "".join(body) + "</table>"
    )


def _coverage_tiles(
    docs: Sequence[Dict[str, object]]
) -> List[Tuple[str, str]]:
    checked = sum(int(d.get("images_checked", 0)) for d in docs)
    recovered = sum(int(d.get("images_recovered", 0)) for d in docs)
    diverged = sum(int(d.get("images_diverged", 0)) for d in docs)
    cexs = sum(int(d.get("counterexamples", 0)) for d in docs)
    exhaustive = sum(int(d.get("exhaustive_images", 0)) for d in docs)
    wall = sum(float(d.get("wall_s", 0.0)) for d in docs)
    tiles = [
        ("campaigns", _esc(len(docs))),
        ("images checked", f"{checked:,}"),
        ("recovered", f"{recovered:,}"),
        ("diverged", f"{diverged:,}"),
        ("counterexamples", f"{cexs:,}"),
        (
            "exhaustive",
            f"{100.0 * exhaustive / checked:.1f}%" if checked else "-",
        ),
    ]
    if wall > 0:
        tiles.append(("images/sec", f"{checked / wall:,.0f}"))
    return tiles


def _coverage_section(docs: Sequence[Dict[str, object]]) -> str:
    parts = ["<h2>Verification coverage</h2>", '<div class="tiles">']
    for label, value in _coverage_tiles(docs):
        parts.append(
            f'<div class="tile"><div class="v">{value}</div>'
            f'<div class="k">{_esc(label)}</div></div>'
        )
    parts.append("</div>")
    parts.append("<h3>scheme &times; workload grid</h3>")
    parts.append(_coverage_grid(docs))
    for doc in docs:
        checked = int(doc.get("images_checked", 0))
        bound = int(doc.get("enumeration_bound", 0))
        parts.append(
            f"<div class='card'><h3>{_esc(doc.get('label', '?'))} "
            f"<span class='muted'>({_esc(doc.get('kind', '?'))}, "
            f"{checked:,} images / bound {bound:,})</span></h3>"
        )
        parts.append(_epoch_strip(doc))
        parts.append("</div>")
    return "".join(parts)


def _report_card(report: RunReport) -> str:
    parts = [f"<div class='card'><h3>{_esc(report.label())}</h3>"]
    parts.append('<div class="tiles">')
    for key, label in _TILE_METRICS:
        value = report.metrics.get(key)
        if value is not None:
            parts.append(
                f'<div class="tile"><div class="v">{_fmt(value)}</div>'
                f'<div class="k">{_esc(label)}</div></div>'
            )
    parts.append(
        f'<div class="tile"><div class="v">{_esc(report.timing)}</div>'
        f'<div class="k">timing</div></div></div>'
    )
    if report.intervals is not None:
        columns = report.intervals.get("columns")
        if isinstance(columns, dict):
            interval = report.intervals.get("interval")
            parts.append(
                f'<p class="muted">interval series '
                f"({_esc(interval)} cycles/bucket)</p>"
            )
            for name in _spark_columns(columns):
                parts.append(_sparkline(name, columns[name]))
    parts.append("</div>")
    return "".join(parts)


def render_dashboard(
    reports: Sequence[RunReport],
    telemetry: Optional[Dict[str, object]] = None,
    coverage: Optional[Sequence[Dict[str, object]]] = None,
) -> str:
    """The dashboard page (a complete HTML document) as a string.

    ``telemetry`` is a :meth:`~repro.obs.journal.RunTelemetry.to_dict`
    document (a journal fold's ``"telemetry"``).  ``coverage`` is a
    sequence of :meth:`~repro.obs.coverage.CoverageStats.to_dict`
    documents, rendered as a verification-coverage panel (per-epoch
    bar strips plus a scheme×workload grid).

    The output is byte-deterministic for identical inputs: the page
    embeds no wall-clock timestamps or environment state of its own,
    so re-rendering the same documents yields the same bytes (CI
    artifacts diff cleanly; pinned by a golden test).
    """
    if not reports and telemetry is None and not coverage:
        raise ConfigError(
            "nothing to render: no reports, no telemetry, no coverage"
        )

    body: List[str] = ["<h1>repro run dashboard</h1>"]
    if reports:
        body.append(
            f'<p class="muted">{len(reports)} run report(s), '
            f"code {_esc(reports[0].code_version[:12])}</p>"
        )

    if telemetry is not None:
        body.append("<h2>Harness telemetry</h2>")
        tiles = _telemetry_tiles(telemetry)
        if tiles:
            body.append('<div class="tiles">')
            for label, value in tiles:
                body.append(
                    f'<div class="tile"><div class="v">{value}</div>'
                    f'<div class="k">{label}</div></div>'
                )
            body.append("</div>")
        body.append("<h3>job timeline</h3>")
        body.append(_timeline(telemetry))

    if coverage:
        body.append(_coverage_section(coverage))

    if reports:
        body.append("<h2>Runs</h2>")
        for report in reports:
            body.append(_report_card(report))
        if len(reports) > 1:
            body.append("<h2>Metric comparison</h2>")
            body.append(_comparison_table(reports))

    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>repro dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        + "".join(body)
        + "</body></html>"
    )


def _comparison_table(reports: Sequence[RunReport]) -> str:
    names: List[str] = []
    for report in reports:
        for name in report.metrics:
            if name not in names:
                names.append(name)
    head = "".join(f"<th>{_esc(r.label())}</th>" for r in reports)
    rows = []
    for name in sorted(names):
        cells = []
        for report in reports:
            value = report.metrics.get(name)
            cells.append(
                f"<td>{_fmt(value) if value is not None else '-'}</td>"
            )
        rows.append(f"<tr><td>{_esc(name)}</td>{''.join(cells)}</tr>")
    return (
        f"<table><tr><th>metric</th>{head}</tr>" + "".join(rows) + "</table>"
    )
