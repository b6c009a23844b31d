"""End-to-end benchmark of the Lazy Persistency reproduction.

One workload, measured in this process (what ``BENCHMARK.json`` runs)::

    python3 benchmarks/e2e/run.py --workload fig_detailed --seed 0 \\
        --seconds 20 --trace 0

Every workload, each in its own fresh process::

    python3 benchmarks/e2e/run.py [--seed S] [--trace] [--out FILE]

Judge one set of result files against another::

    python3 benchmarks/e2e/run.py compare BASE NEW [NEW ...]

A run builds its inputs from ``--seed``.  It first does one instrumented
warm-up repeat, which counts the modelled work, and then timed repeats
until ``--seconds`` have passed.  Timings come from the untraced
repeats.  With ``--trace 1``, untraced and traced repeats alternate,
and the per-layer metrics come from the traced ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import layers

HERE = Path(__file__).resolve().parent
SPEC_PATH = layers.ROOT / "BENCHMARK.json"

#: Fresh interpreters started per run to time set-up; ``setup_s`` is
#: their median.
SETUP_PROBES = 5

#: Span metrics: the share of traced wall time spent inside each span.
SPANS = (
    "workloads.bind",
    "workloads.verify",
    "sim.machine.run",
    "sim.machine.drain",
    "harness.overhead",
    "verify.plan",
    "verify.run_to_crash",
    "verify.enumerate",
    "verify.rebuild",
    "verify.rebind",
    "verify.recover",
    "verify.check",
    "verify.shrink",
)

#: Modelled-work counters the probe keeps, reported per repeat.
COUNTERS = (
    "harness.jobs",
    "sim.ops",
    "sim.cycles",
    "sim.nvmm.reads",
    "sim.nvmm.writes_eviction",
    "sim.nvmm.writes_flush",
    "sim.nvmm.writes_drain",
    "sim.timing.stall_cycles",
    "sim.timing.hazards",
    "verify.recover_runs",
    "verify.recover_ops",
)

_FORWARD = ("fig_detailed", "storage_write")
_ALL = ("fig_detailed", "storage_write", "crashcheck", "reproduce_quick")

#: Per-layer metric -> (end-to-end metrics it should move, workloads on
#: which it should move them).  Written down before any optimisation,
#: as the choosing-metrics method asks; README.md explains each line.
MOVES: Dict[str, tuple] = {
    "sim.cache.share": (("sim_ops_per_s", "wall_s"), _FORWARD),
    "sim.nvmm.share": (("wall_s",), ("storage_write",)),
    "sim.timing.share": (("wall_s",), _FORWARD),
    "sim.config.share": (("sim_ops_per_s",), _FORWARD),
    "sim.machine.share": (("wall_s",), ("crashcheck", "fig_detailed")),
    "sim.core.share": (("wall_s",), _ALL),
    "workloads.share": (("wall_s",), ("crashcheck",)),
    "core.share": (("wall_s",), ("reproduce_quick", "crashcheck")),
    "schemes.share": (("wall_s",), ("storage_write",)),
    "verify.enumerate.share": (("wall_s",), ("crashcheck",)),
    "verify.checker.share": (("wall_s",), ("crashcheck",)),
    "harness.share": (("wall_s", "setup_s"), ("reproduce_quick",)),
    "other.share": (("setup_s",), _ALL),
    "obs.share": (("wall_s",), _ALL),
    "sim.opstream.share": (("wall_s",), _ALL),
    "sim.crash.share": (("wall_s",), ("reproduce_quick",)),
    **{
        f"{span}_share": (("wall_s", "sim_ops_per_s"), _FORWARD)
        for span in SPANS
        if not span.startswith("verify.")
    },
    **{
        f"{span}_share": (("wall_s",), ("crashcheck",))
        for span in SPANS
        if span.startswith("verify.")
    },
    **{
        f"verify.{count}": (("wall_s",), ("crashcheck",))
        for count in (
            "images",
            "bound",
            "points",
            "diverged",
            "counterexamples",
            "shrink_steps",
            "exhaustive_frac",
            "recover_runs",
            "recover_ops",
        )
    },
    **{
        name: (("sim_ops_per_s",), _FORWARD)
        for name in COUNTERS
        if name.startswith("sim.")
    },
    **{
        f"model.{scheme}_{kind}_ratio": (("sim_ops_per_s",), _FORWARD)
        for scheme in ("lp", "ep")
        for kind in ("exec", "write")
    },
    "harness.jobs": (("wall_s",), ("reproduce_quick",)),
    "trace_overhead_pct": (("wall_s",), _ALL),
    "trace.sampled_frac": (("wall_s",), _ALL),
}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def summary(
    values: List[float], unit: str, pick=statistics.median
) -> Dict[str, object]:
    """A metric as ``pick(values)`` plus the samples behind it."""
    return {
        "value": pick(values),
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def setup_seconds(workload: str, seed: int) -> List[float]:
    """Launch-to-exit seconds of fresh interpreters that import repro and
    build ``workload``'s inputs, then stop.

    No ``timeout``: with one, ``subprocess`` polls for the child's exit
    every 50 ms, which rounds every probe up to that grid.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-only"],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def geomean_ratio(results, scheme: str, field: str) -> float:
    """Geomean over workloads of ``scheme``'s metric over base's."""
    from repro.analysis.reporting import geomean

    by_point = {(r.workload, r.variant): getattr(r, field) for r in results}
    names = sorted({name for name, _ in by_point})
    return geomean(by_point[n, scheme] / by_point[n, "base"] for n in names)


def per_layer(warm, counting, probe, sampler, plain, traced) -> Dict[str, dict]:
    """Every per-layer metric of a traced run."""
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = summary([value], unit)

    traced_s = sum(traced)
    total = sum(sampler.samples.values())
    for layer in layers.LAYERS:
        put(f"{layer}.share", sampler.samples.get(layer, 0) / max(total, 1), "frac")
    put("trace.sampled_frac", total * sampler.interval / traced_s, "frac")
    put("trace_overhead_pct", 100.0 * (min(traced) / min(plain) - 1.0), "%")
    for span in SPANS:
        if span == "harness.overhead":
            seconds = probe.span_seconds("harness.run_jobs") - probe.span_seconds(
                "harness.job"
            )
        else:
            seconds = probe.span_seconds(span)
        put(f"{span}_share", seconds / traced_s, "frac")
    for name in COUNTERS:
        unit = "cycles" if "cycles" in name else "count"
        put(name, counting.counts.get(name, 0), unit)

    reports = warm.reports
    points = [p for r in reports for p in r.points if p.crashed]
    put("verify.images", sum(r.images_checked for r in reports), "count")
    put("verify.bound", sum(p.bound for p in points), "count")
    put("verify.points", sum(len(r.points) for r in reports), "count")
    put("verify.diverged", sum(r.images_diverged for r in reports), "count")
    put("verify.counterexamples", sum(len(r.counterexamples) for r in reports), "count")
    put("verify.shrink_steps", sum(p.shrink_steps for p in points), "count")
    put(
        "verify.exhaustive_frac",
        sum(p.exhaustive for p in points) / len(points) if points else 0.0,
        "frac",
    )

    for scheme in ("lp", "ep"):
        for kind, field in (("exec", "exec_cycles"), ("write", "total_writes")):
            value = geomean_ratio(warm.results, scheme, field) if warm.results else 0.0
            put(f"model.{scheme}_{kind}_ratio", value, "ratio")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; return its full result record."""
    import suite

    setup = setup_seconds(workload, seed)
    start = time.perf_counter()
    unit = suite.prepare(workload, seed)
    counting = layers.Probe()
    with counting:
        warm = unit()
    outcomes = [warm]
    plain: List[float] = []
    traced: List[float] = []
    sampler = layers.StackSampler()
    probe = layers.Probe()
    min_plain = 1 if trace else 3
    while True:
        if trace and len(traced) < len(plain):
            with sampler, probe:
                began = time.perf_counter()
                outcomes.append(unit())
                traced.append(time.perf_counter() - began)
        else:
            began = time.perf_counter()
            outcomes.append(unit())
            plain.append(time.perf_counter() - began)
        if (
            time.perf_counter() - start >= seconds
            and len(plain) >= min_plain
            and (not trace or len(traced) == len(plain))
        ):
            break

    # Interference from other tenants of the host only ever slows a
    # repeat, and it comes in bursts that can cover several repeats, so
    # a run reports its fastest repeat.  Per-run medians spread 10-25%
    # from run to run on a 2-vCPU shared host, per-run minima 3-14%.
    ops = counting.counts["sim.ops"]
    metrics = {
        "wall_s": summary(plain, "s", min),
        "setup_s": summary(setup, "s"),
        "peak_rss_mb": summary(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"
        ),
        "sim_ops_per_s": summary([ops / s for s in plain], "1/s", max),
    }
    if trace:
        metrics.update(per_layer(warm, counting, probe, sampler, plain, traced))
    digests = {o.digest for o in outcomes}
    failures = [f for o in outcomes for f in o.failures]
    if len(digests) > 1:
        failures.append(f"repeats disagree: {len(digests)} distinct output digests")
    spans = [
        {"name": name, "parent": parent, "calls": calls, "seconds": seconds}
        for (name, parent), (calls, seconds) in sorted(
            probe.spans.items(), key=lambda item: -item[1][1]
        )
    ]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": len(digests) == 1 and not any(o.failed for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "failures": sorted(set(failures)),
        "digest": warm.digest,
        "metrics": metrics,
        # The traced repeats' span tree, summed over calls.
        "spans": spans,
    }


def result_line(record: dict, names: List[str]) -> str:
    """The contract's last line: ``names`` only, as value + unit."""
    metrics = record["metrics"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                for name in names
            },
        }
    )


def print_record(record: dict) -> None:
    for failure in record["failures"][:10]:
        print(f"{record['workload']}: FAILED {failure}")
    for name, m in record["metrics"].items():
        detail = ""
        if m["n"] > 1:
            detail = (
                f"  (n={m['n']}; min {m['min']:.6g}, median {m['median']:.6g},"
                f" max {m['max']:.6g})"
            )
        value = f"{m['value']:.6g} {m['unit']}"
        print(f"{record['workload']:<16} {name:<28} {value}{detail}")


def write_out(path: str, records: List[dict], seed: int, trace: bool) -> None:
    doc = {
        "seed": seed,
        "trace": int(trace),
        "workloads": {r["workload"]: r for r in records},
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh process, so that ``setup_s`` and
    ``peak_rss_mb`` belong to that workload alone."""
    records = []
    for entry in spec["workloads"]:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             entry["name"], "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--record"],
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"{entry['name']}: exited {child.returncode}", file=sys.stderr)
            return 1
        records.append(json.loads(lines[-1]))
    if args.out:
        write_out(args.out, records, args.seed, args.trace)
    return 0 if all(r["correct"] for r in records) else 1


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    try:
        layers.use_checkout_src()
        spec = load_spec()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]],
        help="measure one workload in this process (default: every "
        "workload, each in a fresh process)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="alternate untraced and traced repeats and report the "
        "per-layer metrics",
    )
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args, spec)
    if args.setup_only:
        import suite

        suite.prepare(args.workload, args.seed)
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    if args.out:
        write_out(args.out, [record], args.seed, bool(args.trace))
    if args.record:
        print(json.dumps(record))
    else:
        kind = "per_layer" if args.trace else "end_to_end"
        print(result_line(record, [m["name"] for m in spec[kind]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
