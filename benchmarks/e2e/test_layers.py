"""Checks on the benchmark's instruments and on BENCHMARK.json.

Run with ``python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import layers

layers.use_checkout_src()

import run  # noqa: E402  (needs the checkout's src on the path)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_module_maps_to_exactly_one_layer():
    root = layers.SRC / "repro"
    modules = [layers.module_of(str(p), str(root)) for p in root.rglob("*.py")]
    assert len(modules) > 50
    wrong = {m: layers.layers_of(m) for m in modules if len(layers.layers_of(m)) != 1}
    assert wrong == {}


def test_sampler_charges_a_busy_loop_to_its_layer():
    from repro.core.checksum import get_engine

    engine = get_engine("modular")
    values = [float(i) for i in range(100_000)]
    sampler = layers.StackSampler()
    give_up = time.process_time() + 20.0
    with sampler:
        while sum(sampler.samples.values()) < 200 and time.process_time() < give_up:
            engine.of_values(values)
    total = sum(sampler.samples.values())
    assert total >= 200
    assert sampler.samples["core"] >= 0.9 * total, sampler.samples


def test_benchmark_json_follows_the_rules():
    spec = run.load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128

    workloads = [w["name"] for w in spec["workloads"]]
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = workloads + [m["name"] for m in metrics]
    assert len(set(workloads)) == len(workloads)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}

    setup = {m["name"]: m for m in spec["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    # Every per-layer metric names the end-to-end metrics and the
    # workloads it should move.
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert set(run.MOVES) == {m["name"] for m in spec["per_layer"]}
    for name, (moves, where) in run.MOVES.items():
        assert moves and set(moves) <= end_to_end, name
        assert where and set(where) <= set(workloads), name


def test_a_traced_run_reports_every_metric():
    """Every workload prints every metric, so one short traced run of
    the fastest workload checks the names end to end."""
    spec = run.load_spec()
    child = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "crashcheck",
         "--seconds", "0", "--trace", "1", "--record"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
        check=True,
    )
    record = json.loads(child.stdout.splitlines()[-1])
    assert record["correct"] and record["failed"] == 0
    expected = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(record["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert {n: m["unit"] for n, m in record["metrics"].items()} == units
    assert abs(record["metrics"]["trace.sampled_frac"]["value"] - 1.0) <= 0.05
    shares = {n: m["value"] for n, m in record["metrics"].items() if "share" in n}
    assert all(0.0 <= v <= 1.0 for v in shares.values()), shares
