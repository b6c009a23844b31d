"""The benchmark's workloads: inputs made from a seed, one repeat each.

Every workload builds its inputs once (:func:`prepare`) and returns a
*unit*: a zero-argument callable that does one repeat of the work and
returns an :class:`Outcome`.  A unit never raises on a wrong result.
It counts each operation it attempted and each one that failed, so one
bad point cannot hide the rest of a run.

``seed`` is added to every workload's own input seed (the constructor
default), and crashcheck also uses it as the enumeration seed.  Seed 0
uses the defaults.  ``reproduce_quick`` runs ``repro reproduce --scale
quick`` unchanged and ignores the seed.

Repeat times below are for one 2.1 GHz Xeon vCPU.  Each grid is cut
down so that a repeat takes seconds, not tens of seconds, and a 20 s
run holds several repeats.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: Simulated threads (8 workers, plus the master core) for forward runs.
THREADS = 8

#: The Fig 12/13 grid at half the figure benches' linear size.  The
#: kernels keep their tile sizes, so the machine keeps the figure L1 and
#: shrinks only the L2, by the 4x the working sets shrank.  The write
#: sets still overflow it, so base runs still evict naturally, as they
#: do at full size.  One grid takes ~3.5 s; the full-size grid ~20 s.
FIG_GRID: Dict[str, dict] = {
    "tmm": dict(n=48, bsize=8, kk_tiles=2),
    "cholesky": dict(n=48, col_block=8),
    "conv2d": dict(n=34, ksize=3, row_block=8),
    "gauss": dict(n=48, row_block=8, pivots=8),
    "fft": dict(n=512),
}
FIG_SCHEMES = ("base", "lp", "ep")

#: Flush-heavy storage points on the same machine (~3 s per repeat).
STORAGE_GRID: Dict[str, dict] = {
    "log": dict(records=128, width=8),
    "hashmap": dict(capacity=256, ops=192, keys=64),
}
STORAGE_SCHEMES = ("base", "lp", "ep", "wal", "write_behind")

#: ``repro crashcheck``'s default problem sizes, copied so that a change
#: to the CLI's defaults does not silently change the benchmark.
CRASHCHECK_PARAMS: Dict[str, dict] = {
    "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
    "log": {"records": 6, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}
#: The crash grid of one repeat: ``repro crashcheck``'s frontier and
#: sample budget, with fewer crash points (2 op points and 4 flush
#: points instead of 8 and 32) so one repeat takes ~2.3 s, not ~20 s.
CRASHCHECK_CAMPAIGN = dict(
    op_points=2, max_flush_points=4, max_exhaustive_events=12, samples=64
)
CRASHCHECK_THREADS = 2
#: (workload, scheme) cases left out of the crashcheck workload because
#: of a known defect: the region-scheme layer's LP recovery diverges on
#: some images (e.g. ``repro crashcheck --workload log --variants lp``
#: at crash@op=28; 9 of seeds 0-59 hit it on this grid).  A benchmark
#: workload must not fail at any seed; test_accounting.py keeps the
#: defect visible.
KNOWN_DEFECTS = {("log", "lp"), ("hashmap", "lp")}


@dataclass
class Outcome:
    """What one repeat did and whether it was right."""

    attempted: int
    failed: int
    #: Digest of everything the repeat computed; every repeat of a run
    #: must produce the same one.
    digest: str
    failures: List[str] = field(default_factory=list)
    #: Forward-run results (``ExperimentResult``), for model ratios.
    results: list = field(default_factory=list)
    #: Crash-check reports (``CrashCheckReport``), for coverage counts.
    reports: list = field(default_factory=list)


def _digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=str).encode()
    ).hexdigest()


def seeded(name: str, params: dict, seed: int):
    """Workload ``name`` with ``params`` and its default seed + ``seed``."""
    from repro.workloads import get_workload

    cls = get_workload(name)
    default = inspect.signature(cls).parameters["seed"].default
    return cls(**params, seed=default + seed)


def figure_machine():
    from repro.sim.config import scaled_machine

    return scaled_machine(num_cores=THREADS + 1).with_l2_size(12 * 1024)


def forward_unit(
    grid: Dict[str, dict], schemes: Sequence[str], seed: int
) -> Callable[[], Outcome]:
    """One repeat = every (workload, scheme) point, serially and
    uncached, with the end-of-window drain.  A point fails when it
    raises (a wrong result raises ``WorkloadError``) or reports
    ``verified=False``."""
    from repro.analysis import runner

    config = figure_machine()
    jobs = [
        runner.Job(seeded(name, params, seed), config, scheme,
                   num_threads=THREADS, drain=True)
        for name, params in grid.items()
        for scheme in schemes
    ]

    def unit() -> Outcome:
        results, failures = [], []
        for job in jobs:
            label = f"{job.workload.name}/{job.variant}"
            try:
                # Looked up on the module at call time, so that a traced
                # repeat sees the probe's wrapper.
                (result,) = runner.run_jobs([job], n_jobs=1, cache=None)
            except Exception as exc:  # counted as a failed point
                failures.append(f"{label}: {exc!r}")
                continue
            if not result.verified:
                failures.append(f"{label}: verified=False")
            results.append(result)
        return Outcome(
            attempted=len(jobs),
            failed=len(failures),
            digest=_digest([r.to_dict() for r in results]),
            failures=failures,
            results=results,
        )

    return unit


def crashcheck_cases(seed: int) -> List[Tuple[object, str, bool]]:
    """``(workload, scheme, broken)`` for every scheme ``repro
    crashcheck`` checks by default, the sound ones plus the broken ones,
    except :data:`KNOWN_DEFECTS`."""
    from repro.schemes import get_scheme

    cases = []
    for name, params in CRASHCHECK_PARAMS.items():
        workload = seeded(name, params, seed)
        for scheme in workload.variants:
            if get_scheme(scheme).sound and (name, scheme) not in KNOWN_DEFECTS:
                cases.append((workload, scheme, False))
        cases.extend((workload, s, True) for s in workload.broken_variants)
    return cases


def account(report, broken: bool) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, notes)`` of one scheme's crash-check report.

    Each checked image is an operation, and so is each broken scheme.
    For a sound scheme, every diverged image fails, and so does a point
    that ended before its crash trigger with wrong output.  A broken
    scheme fails only when no counterexample flagged it; its diverged
    images are the expected ones.
    """
    label = f"{report.workload}/{report.variant}"
    attempted = report.images_checked + (1 if broken else 0)
    if broken:
        if report.ok:
            return attempted, 1, [f"{label}: broken scheme not flagged"]
        return attempted, 0, []
    failed = report.images_diverged + sum(
        1 for p in report.points if not p.crashed and p.counterexamples
    )
    return attempted, failed, [cex.describe() for cex in report.counterexamples]


def crashcheck_unit(
    cases: Sequence[Tuple[object, str, bool]], seed: int, **campaign
) -> Callable[[], Outcome]:
    """One repeat = one ``run_crashcheck_campaign`` per (workload,
    scheme) case on ``repro crashcheck``'s tiny 3-core machine."""
    import repro.verify  # noqa: F401  (the campaign imports it lazily)
    from repro.analysis.crashlab import run_crashcheck_campaign
    from repro.sim.config import tiny_machine

    config = tiny_machine(num_cores=CRASHCHECK_THREADS + 1)
    campaign = {**CRASHCHECK_CAMPAIGN, **campaign}

    def unit() -> Outcome:
        outcome = Outcome(attempted=0, failed=0, digest="")
        for workload, scheme, broken in cases:
            try:
                report = run_crashcheck_campaign(
                    workload, config, [scheme], seed=seed,
                    num_threads=CRASHCHECK_THREADS, **campaign,
                )[scheme]
            except Exception as exc:  # counted as one failed operation
                outcome.attempted += 1
                outcome.failed += 1
                outcome.failures.append(f"{workload.name}/{scheme}: {exc!r}")
                continue
            outcome.reports.append(report)
            attempted, failed, notes = account(report, broken)
            outcome.attempted += attempted
            outcome.failed += failed
            outcome.failures += notes
        docs = [r.to_dict() for r in outcome.reports]
        for doc in docs:
            for point in doc["points"]:
                del point["wall_s"]
        outcome.digest = _digest(docs)
        return outcome

    return unit


def table_rows(text: str, column: str) -> List[str]:
    """Cells of ``column`` in every ``format_table`` table of ``text``
    that has that column (columns are located by the dash rule)."""
    cells = []
    for block in text.split("\n\n"):
        lines = block.splitlines()
        for i, line in enumerate(lines[:-1]):
            if not re.fullmatch(r"-+( +-+)*", lines[i + 1].rstrip()):
                continue
            starts = [m.start() for m in re.finditer(r"-+", lines[i + 1])]
            spans = list(zip(starts, starts[1:] + [None]))
            headers = [line[a:b].strip() for a, b in spans]
            if column not in headers:
                break
            a, b = spans[headers.index(column)]
            cells += [row[a:b].strip() for row in lines[i + 2:]]
            break
    return cells


def reproduce_unit() -> Outcome:
    """One repeat = ``reproduce("quick")``.  Each crash-recovery row must
    read ``exact = True`` and each checksum-accuracy row ``missed = 0``."""
    from repro.analysis.paperfigures import reproduce

    try:
        text = reproduce("quick")
    except Exception as exc:  # counted as one failed operation
        return Outcome(1, 1, "", [f"reproduce: {exc!r}"])
    exact = table_rows(text, "exact")
    missed = table_rows(text, "missed")
    failures = [f"crash row {i}: exact={c}" for i, c in enumerate(exact) if c != "True"]
    failures += [
        f"accuracy row {i}: missed={c}"
        for i, c in enumerate(missed)
        if not c.isdigit() or int(c) > 0
    ]
    if not exact or not missed:
        failures.append("report lacks its crash or accuracy table")
    return Outcome(
        attempted=max(1, len(exact) + len(missed)),
        failed=len(failures),
        digest=_digest(text),
        failures=failures,
    )


def prepare(workload: str, seed: int) -> Callable[[], Outcome]:
    """Import what ``workload`` runs, build its inputs, return its unit."""
    if workload == "fig_detailed":
        return forward_unit(FIG_GRID, FIG_SCHEMES, seed)
    if workload == "storage_write":
        return forward_unit(STORAGE_GRID, STORAGE_SCHEMES, seed)
    if workload == "crashcheck":
        return crashcheck_unit(crashcheck_cases(seed), seed)
    if workload == "reproduce_quick":
        import repro.analysis.paperfigures  # noqa: F401  (load before timing)

        return reproduce_unit
    raise KeyError(f"unknown workload {workload!r}")
