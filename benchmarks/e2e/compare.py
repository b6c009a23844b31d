"""Judge benchmark results against a reference: ``run.py compare``.

    python3 benchmarks/e2e/run.py compare BASE NEW [NEW ...]

Each argument is a result file written by ``run.py --out``, or a
directory of them.  All runs given by one argument form one side.  The
first side is the reference; every later side is judged against it.

For each workload and each end-to-end metric of ``BENCHMARK.json``,
with the metric's direction and bound, the verdict is:

* ``worse``: the new median is worse than the reference median by more
  than the bound, and the spread does not hide it;
* ``unresolved``: the runs' spread (the interquartile range over the
  median) exceeds the bound, and neither side beats every run of the
  other;
* ``better``: the new side wins at least 9 of 10 seed-matched pairs,
  with at least 10 pairs, and its median improves on the reference by
  more than the reference's own spread;
* ``same``: anything else.

A side with a single run uses that run's repeats as its samples.  The
``digest`` column compares the output digests of seed-matched runs.
The exit status is 1 when any verdict is ``worse`` or any digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple


def load_side(arg: str) -> List[dict]:
    """Per-workload run records of one side (a file or a directory)."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        doc = json.loads(f.read_text())
        records.extend(doc["workloads"].values())
    if not records:
        raise ValueError(f"no result records in {arg}")
    return records


def samples(records: List[dict], metric: str) -> List[float]:
    """Each run's reported value when the side has several runs, else
    the one run's repeats."""
    found = [r["metrics"][metric] for r in records if metric in r["metrics"]]
    if len(found) == 1:
        return list(found[0]["values"])
    return [m["value"] for m in found]


def spread(values: List[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def _better(a: float, b: float, lower: bool) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a < b if lower else a > b


def verdict(
    ref: List[float],
    new: List[float],
    lower: bool,
    bound: float,
    pairs: Optional[List[Tuple[float, float]]] = None,
) -> Tuple[str, float]:
    """``(verdict, change)``; ``change`` is the signed fraction by which
    the new median is worse (>0) or better (<0) than the reference."""
    ref_med, new_med = statistics.median(ref), statistics.median(new)
    change = (new_med - ref_med) / abs(ref_med)
    if not lower:
        change = -change
    new_dominates = all(_better(n, r, lower) for n in new for r in ref)
    ref_dominates = all(_better(r, n, lower) for n in new for r in ref)
    if change > bound and (ref_dominates or max(spread(ref), spread(new)) <= bound):
        return "worse", change
    if max(spread(ref), spread(new)) > bound and not (new_dominates or ref_dominates):
        return "unresolved", change
    if pairs and len(pairs) >= 10:
        wins = sum(_better(n, r, lower) for r, n in pairs)
        if wins >= 0.9 * len(pairs) and -change > spread(ref):
            return "better", change
    return "same", change


def _by_seed(records: List[dict], metric: str) -> Dict[int, float]:
    return {
        r["seed"]: r["metrics"][metric]["value"]
        for r in records
        if metric in r["metrics"]
    }


def compare(ref: List[dict], new: List[dict], spec: dict) -> Tuple[List[list], bool]:
    """Table rows (one per workload) and whether the new side regressed."""
    rows, regressed = [], False
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        ref_w = [r for r in ref if r["workload"] == workload]
        new_w = [r for r in new if r["workload"] == workload]
        if not ref_w or not new_w:
            continue
        row = [workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = samples(ref_w, name), samples(new_w, name)
            if not a or not b:
                row.append("-")
                continue
            ref_seed, new_seed = _by_seed(ref_w, name), _by_seed(new_w, name)
            pairs = [(ref_seed[s], new_seed[s]) for s in ref_seed if s in new_seed]
            word, change = verdict(
                a, b, metric["better"] == "lower", metric["bound"], pairs
            )
            regressed |= word == "worse"
            row.append(f"{word} ({change:+.1%})")
        ref_digest = {r["seed"]: r["digest"] for r in ref_w}
        matched = [
            r["digest"] == ref_digest[r["seed"]]
            for r in new_w
            if r["seed"] in ref_digest
        ]
        digest = "-" if not matched else ("same" if all(matched) else "DIFFERS")
        regressed |= digest == "DIFFERS"
        failed = sum(r["failed"] for r in new_w) - sum(r["failed"] for r in ref_w)
        regressed |= failed > 0
        row += [digest, f"{failed:+d}"]
        rows.append(row)
    return rows, regressed


def main(argv: List[str]) -> int:
    import run

    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = run.load_spec()
    ref = load_side(argv[0])
    metrics = [m["name"] for m in spec["end_to_end"]]
    headers = ["workload"] + metrics + ["digest", "failed"]
    regressed = False
    for arg in argv[1:]:
        rows, worse = compare(ref, load_side(arg), spec)
        regressed |= worse
        widths = [max(len(str(c)) for c in col) for col in zip(headers, *rows)]
        print(f"\n{arg} vs {argv[0]} (change in median: + is worse)")
        for line in [headers] + rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(line, widths)))
    return 1 if regressed else 0
