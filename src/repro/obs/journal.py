"""Streaming telemetry journal (``repro.obs.journal``).

The journal is the one artefact for harness and coverage telemetry: an
append-only JSONL file that ``run_jobs``, crashcheck campaigns, and the
litmus harness write incrementally — one self-contained JSON object per
line, flushed per event.  Every telemetry view is a fold of it: the
sweep's ``[harness: ...]`` line, ``repro watch`` (which tails a journal
while the run is still going) and ``repro dashboard``.

Design constraints, in order:

* **Crash-tolerant writes.**  Every emit opens the file in append
  mode, writes exactly one ``\\n``-terminated line, and closes it.  On
  POSIX an ``O_APPEND`` write of one short line is atomic enough that
  concurrent pool workers never interleave mid-line; at worst a dying
  writer leaves one torn final line.
* **Torn-tolerant reads.**  :func:`tail_journal` consumes only
  complete (newline-terminated) lines and silently skips lines that do
  not parse, so a reader racing a writer sees a consistent prefix and
  picks the remainder up on the next poll.
* **No clocks of its own.**  Events carry whatever timing their
  emitters measured (span offsets, per-point wall seconds); the
  journal adds only a per-writer sequence number.  Rendering a journal
  twice therefore yields byte-identical dashboards.

Event vocabulary (the ``kind`` field):

``job_span``
    One :func:`~repro.analysis.runner.run_jobs` job finished (cache
    hits included) — the span dict plus the batch's worker count.
``batch``
    One ``run_jobs`` batch finished: that batch's job/hit/run counts,
    worker count and wall clock, plus a cache snapshot.
``campaign_point``
    The checker finished one crash point: event/image counts, the
    frontier decision, divergence and wall clock.
``counterexample``
    The checker shrank and recorded a counterexample.
``litmus_program``
    The litmus harness cross-checked one program under one model.

:func:`journal_summary` folds any event list into the documents the
dashboard renders (a :class:`RunTelemetry` document plus per-campaign
coverage docs), mid-stream or complete.
"""

from __future__ import annotations

import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.obs.coverage import CoverageStats

#: Bumped when the journal line layout changes.
JOURNAL_FORMAT_VERSION = 1


class TelemetryJournal:
    """Append-only JSONL event sink, with optional stderr progress ticks.

    ``path=None`` keeps the journal purely in memory (``events``), which
    is how ``--progress`` works without a journal file.  An instance is
    cheap; writers across processes may each hold one for the same path
    (sequence numbers are per-writer, ordering is the file's).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        progress: bool = False,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.path = path
        self.progress = progress
        self.stream = stream
        self.events: List[Dict[str, Any]] = []
        self._seq = 0
        #: ``time.time()`` at the start of the first ``run_jobs`` batch
        #: written to this journal; job span offsets count from it.
        self.epoch: Optional[float] = None

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the event dict."""
        event: Dict[str, Any] = {
            "v": JOURNAL_FORMAT_VERSION,
            "seq": self._seq,
            "kind": kind,
        }
        event.update(fields)
        self._seq += 1
        self.events.append(event)
        if self.path is not None:
            line = json.dumps(event, sort_keys=True, separators=(",", ":"))
            with open(self.path, "a") as fh:
                fh.write(line + "\n")
        if self.progress:
            tick = describe_event(event)
            if tick:
                print(tick, file=self.stream or sys.stderr, flush=True)
        return event


def describe_event(event: Dict[str, Any]) -> Optional[str]:
    """One human progress line for an event, or None for silent kinds."""
    kind = event.get("kind")
    if kind == "campaign_point":
        mode = "exhaustive" if event.get("exhaustive") else "sampled"
        diverged = int(event.get("images_diverged", 0) or 0)
        bad = f", {diverged} DIVERGED" if diverged else ""
        return (
            f"[coverage] {event.get('label')} crash@{event.get('crash')}: "
            f"{event.get('images_checked')} images "
            f"(events={event.get('num_events')}, {mode}"
            f"{bad}) in {float(event.get('wall_s', 0.0)):.2f}s"
        )
    if kind == "counterexample":
        return f"[counterexample] {event.get('description')}"
    if kind == "litmus_program":
        state = "DIVERGED" if event.get("divergent") else "ok"
        return (
            f"[litmus] {event.get('model')} {event.get('program')}: "
            f"{event.get('images')} images "
            f"(events={event.get('num_events')}) {state}"
        )
    if kind == "job_span":
        return (
            f"[job] {event.get('label')} {event.get('status')} "
            f"{float(event.get('wall_s', 0.0)):.2f}s"
        )
    if kind == "batch":
        return (
            f"[batch] {event.get('jobs')} jobs, "
            f"{event.get('hits')} cache hits, "
            f"{float(event.get('wall_clock_s', 0.0)):.2f}s"
        )
    return None


# ----------------------------------------------------------------------
# torn-tolerant readers
# ----------------------------------------------------------------------


def tail_journal(
    path: str, offset: int = 0
) -> Tuple[List[Dict[str, Any]], int]:
    """Events appended since byte ``offset``, plus the new offset.

    Consumes only complete lines: a final line without its trailing
    newline (a writer mid-append, or a crash mid-write) is left for the
    next call — the returned offset never advances past it.  Complete
    lines that fail to parse (a torn write that *did* get its newline,
    or garbage) are skipped, not fatal.  A missing file reads as empty.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            buf = fh.read()
    except FileNotFoundError:
        return [], offset
    events: List[Dict[str, Any]] = []
    consumed = 0
    for raw in io.BytesIO(buf):
        if not raw.endswith(b"\n"):
            break  # torn tail: leave it for the next poll
        consumed += len(raw)
        try:
            event = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(event, dict):
            events.append(event)
    return events, offset + consumed


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Every parseable event in the journal (torn tail skipped)."""
    events, _ = tail_journal(path, 0)
    return events


# ----------------------------------------------------------------------
# folding a journal into dashboard documents
# ----------------------------------------------------------------------


@dataclass
class RunTelemetry:
    """Harness telemetry folded from a journal's ``run_jobs`` events.

    Records what the *harness* did — not what the simulator measured:
    one span per job (queue-to-finish wall clock, cache hit or full
    run), the largest worker count, the summed batch wall clock, and
    the latest snapshot of the cache's hit/miss counters.  Built by
    :func:`journal_summary`; rendered by ``repro dashboard``.

    Spans are plain dicts (JSON-safe)::

        {"label": "tmm/lp", "status": "run" | "hit",
         "start_s": 0.0, "end_s": 1.7, "wall_s": 1.7}

    ``start_s``/``end_s`` are offsets from the journal's first batch,
    on the shared wall clock, so pool workers' spans line up on one
    timeline.
    """

    workers: int = 1
    wall_clock_s: float = 0.0
    spans: List[Dict[str, Any]] = field(default_factory=list)
    cache: Optional[Dict[str, Any]] = None

    def busy_s(self) -> float:
        """Total span wall clock (summed over workers)."""
        return sum(float(span.get("wall_s", 0.0)) for span in self.spans)

    def utilization(self) -> float:
        """Busy fraction of the worker pool over the batch wall clock."""
        capacity = self.workers * self.wall_clock_s
        return self.busy_s() / capacity if capacity > 0 else 0.0

    def counts(self) -> Dict[str, int]:
        out = {"jobs": len(self.spans), "hits": 0, "runs": 0}
        for span in self.spans:
            if span.get("status") == "hit":
                out["hits"] += 1
            else:
                out["runs"] += 1
        return out

    def summary(self) -> Dict[str, Any]:
        """Flat headline dict (CLI output, dashboard tiles)."""
        out: Dict[str, Any] = dict(self.counts())
        out["workers"] = self.workers
        out["wall_clock_s"] = round(self.wall_clock_s, 4)
        out["busy_s"] = round(self.busy_s(), 4)
        out["utilization"] = round(self.utilization(), 4)
        if self.cache is not None:
            out["cache"] = dict(self.cache)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe document (the dashboard's ``telemetry=``)."""
        return {
            "workers": self.workers,
            "wall_clock_s": round(self.wall_clock_s, 6),
            "spans": [dict(span) for span in self.spans],
            "cache": dict(self.cache) if self.cache is not None else None,
            "summary": self.summary(),
        }


def journal_summary(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold journal events into the documents the dashboard renders.

    Returns ``{"telemetry": doc | None, "coverage": [docs],
    "counterexamples": [str], "events": n}``.  Works on any prefix of a
    journal, so a mid-campaign ``repro watch`` render shows exactly the
    coverage accumulated so far; the accumulator is
    :meth:`CoverageStats.add_point`, the same one the report-side
    builders use, so the final fold reconciles with the campaign's own
    coverage document.  ``batch`` events are per batch, so wall clocks
    add up across batches.
    """
    spans: List[Dict[str, Any]] = []
    workers = 1
    wall_clock_s = 0.0
    cache: Optional[Dict[str, Any]] = None
    campaigns: Dict[str, CoverageStats] = {}
    counterexamples: List[str] = []

    for event in events:
        kind = event.get("kind")
        if kind == "job_span":
            spans.append(
                {
                    key: event[key]
                    for key in ("label", "status", "start_s", "end_s", "wall_s")
                    if key in event
                }
            )
            workers = max(workers, int(event.get("workers", 1) or 1))
        elif kind == "batch":
            workers = max(workers, int(event.get("workers", 1) or 1))
            wall_clock_s += float(event.get("wall_clock_s", 0.0) or 0.0)
            if event.get("cache") is not None:
                cache = dict(event["cache"])
        elif kind == "campaign_point":
            label = str(event.get("label", "?"))
            stats = campaigns.setdefault(label, CoverageStats(label=label))
            stats.add_point(
                num_events=int(event.get("num_events", 0) or 0),
                images_checked=int(event.get("images_checked", 0) or 0),
                images_diverged=int(event.get("images_diverged", 0) or 0),
                bound=int(event.get("bound", 0) or 0),
                exhaustive=bool(event.get("exhaustive", True)),
                crashed=bool(event.get("crashed", True)),
                wall_s=float(event.get("wall_s", 0.0) or 0.0),
                counterexamples=int(event.get("counterexamples", 0) or 0),
                shrink_steps=int(event.get("shrink_steps", 0) or 0),
            )
        elif kind == "litmus_program":
            label = str(event.get("model", "?"))
            stats = campaigns.setdefault(
                label, CoverageStats(label=label, kind="litmus")
            )
            divergent = bool(event.get("divergent", False))
            images = int(event.get("images", 0) or 0)
            stats.add_point(
                num_events=int(event.get("num_events", 0) or 0),
                images_checked=images,
                images_diverged=images if divergent else 0,
                bound=images,
                exhaustive=True,
                crashed=True,
                counterexamples=1 if divergent else 0,
            )
        elif kind == "counterexample":
            counterexamples.append(str(event.get("description", "")))

    telemetry: Optional[Dict[str, Any]] = None
    if spans or wall_clock_s or cache is not None:
        collected = RunTelemetry(
            workers=workers,
            wall_clock_s=wall_clock_s,
            spans=spans,
            cache=cache,
        )
        telemetry = collected.to_dict()

    return {
        "telemetry": telemetry,
        "coverage": [
            campaigns[label].to_dict() for label in sorted(campaigns)
        ],
        "counterexamples": counterexamples,
        "events": len(events),
    }


def watch_once(journal_path: str, out_path: str) -> int:
    """One ``repro watch`` poll: re-read the journal, re-render, rewrite.

    Renders the full journal state (not just the delta) so the output
    HTML is always a consistent snapshot, and writes it atomically
    (temp file + rename) so a browser refreshing mid-write never sees a
    torn page.  Returns the number of events rendered.  A journal with
    no renderable events yet yields a placeholder page rather than an
    error — a watcher typically starts before the writer.
    """
    from repro.obs.dashboard import render_dashboard

    events = read_journal(journal_path)
    summary = journal_summary(events)
    if summary["telemetry"] is None and not summary["coverage"]:
        page = (
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            "<title>repro watch</title></head><body>"
            "<p>waiting for journal events "
            f"({len(events)} so far)&hellip;</p></body></html>"
        )
    else:
        page = render_dashboard(
            [],
            telemetry=summary["telemetry"],
            coverage=summary["coverage"],
        )
    tmp = out_path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(page)
    os.replace(tmp, out_path)
    return len(events)
