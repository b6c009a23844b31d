"""Probe-bus observability overhead, measured.

The ``repro.obs`` probe bus installs per-instance taps on a built
machine; nothing in ``repro.sim`` branches on observability, so an
untapped machine runs byte-identical code.  This bench pins that claim
with wall-clock numbers:

* **disabled** — ``attach_probes`` with an empty bus.  No channel has
  a subscriber, so no tap is installed and the run must stay within
  ``OVERHEAD_CEILING`` (2%) of the plain run.  This is the asserted
  bound from the observability PR's acceptance criteria.
* **traced** — a full :class:`TraceRecorder` plus
  :class:`IntervalSampler` attached.  Tracing costs real time; the
  overhead ratio is ratcheted (``TRACED_OVERHEAD_CEILING``) so
  regressions in the recorder/bus/sampler hot paths trip the bench,
  and the probe-event throughput is reported.  The traced run's op
  taps must see every op, so it cannot take the heap scheduler's
  inlined L1-hit load; its overhead is measured against a **reference**
  plain run that sends every op through ``Core.execute`` too
  (:func:`bench_common.through_core_execute`), so the ratio prices the
  observability layer alone.

Wall-clock noise is tamed by the shared harness
(:func:`bench_common.interleaved_medians`): per-leg warm-up, legs
sampled interleaved, median of ``REPEATS`` compared, and every
asserted bound carries the absolute noise floor via
:func:`bench_common.overhead_allowance`.  The result cache is
irrelevant here — every leg drives the machine directly.

Besides the usual ``benchmarks/results/`` record, the headline numbers
are written to ``BENCH_obs.json`` at the repo root so the perf
trajectory of the probe bus is machine-readable across PRs (full-size
runs only; smoke runs assert but do not persist).
"""

import json
import os
import time

from repro.analysis.reporting import format_table
from repro.obs import IntervalSampler, ProbeBus, TraceRecorder, probed
from repro.obs.taps import attach_probes, detach_probes

from bench_common import (
    NOISE_FLOOR_SECONDS,
    NUM_THREADS,
    SMOKE,
    interleaved_medians,
    machine_config,
    make_workload,
    overhead_allowance,
    record,
    through_core_execute,
)

#: The asserted disabled-probe bound from the PR acceptance criteria.
OVERHEAD_CEILING = 0.02

#: Ratchet on the fully-traced leg (recorder + sampler attached).
#: History: 90.4% before the recorder/bus/sampler hot paths were
#: flattened (bound-append handlers, single-subscriber bypass, cached
#: column dicts); ~81% full-size / ~62% smoke after.  Headroom for
#: runner noise, but below the pre-optimization figure by design.
#: Measured against the reference (every-op ``Core.execute``) leg.
TRACED_OVERHEAD_CEILING = 0.88

#: Interval width for the traced leg's sampler (cycles).
SAMPLER_INTERVAL = 1000.0

#: Runs per timed sample: smoke-size runs are ~150ms, far too short
#: for a 2% bound, so a smoke sample batches several.
BATCH = 6 if SMOKE else 1

#: Samples per leg; the median is compared (robust to one bad sample).
REPEATS = 5

ROOT_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")


def _one_run(attach=None):
    """One tmm/lp run on a fresh machine; returns elapsed seconds with
    ``attach()``'s observers wired around the run."""
    workload = make_workload("tmm")
    from repro.sim.machine import Machine

    machine = Machine(machine_config())
    bound = workload.bind(machine, num_threads=NUM_THREADS)
    threads = bound.threads("lp")
    if attach is None:
        t0 = time.perf_counter()
        machine.run(threads)
        elapsed = time.perf_counter() - t0
    else:
        observers = attach()
        bus = ProbeBus(observers)
        t0 = time.perf_counter()
        attach_probes(machine, bus)
        try:
            machine.run(threads)
        finally:
            detach_probes(machine)
        elapsed = time.perf_counter() - t0
    assert bound.verify()
    return elapsed


def _sample(attach=None):
    """One timed sample: ``BATCH`` back-to-back runs."""
    return sum(_one_run(attach) for _ in range(BATCH))


def _reference_sample():
    """One timed sample of plain runs on the every-op path."""
    with through_core_execute():
        return _sample()


def run_bench():
    # Legs compared against the asserted ceilings, sampled interleaved
    # by the shared harness; keep the traced leg's last recorder around
    # to count events.
    recorder_box = [TraceRecorder()]

    def traced_once():
        recorder_box[0] = TraceRecorder()
        return [recorder_box[0], IntervalSampler(SAMPLER_INTERVAL)]

    baseline, disabled, reference, traced = interleaved_medians(
        [
            lambda: _sample(),
            lambda: _sample(lambda: []),
            _reference_sample,
            lambda: _sample(traced_once),
        ],
        repeats=REPEATS,
    )
    return baseline, disabled, reference, traced, len(recorder_box[0])


def test_obs_overhead(benchmark):
    baseline, disabled, reference, traced, events = benchmark.pedantic(
        run_bench, rounds=1, iterations=1
    )

    disabled_overhead = disabled / baseline - 1.0
    traced_overhead = traced / reference - 1.0
    # Both throughputs matter: the traced rate is what a tracing user
    # gets; the untraced rate (same event stream at plain-run speed) is
    # the simulator's actual hot-loop throughput, the number hot-loop
    # optimizations move.
    events_per_sec_traced = events / traced if traced > 0 else 0.0
    events_per_sec_untraced = events / baseline if baseline > 0 else 0.0

    table = format_table(
        ["leg", "seconds (median of %d)" % REPEATS, "overhead"],
        [
            ["plain run", f"{baseline:.3f}", ""],
            ["probes disabled (empty bus)", f"{disabled:.3f}",
             f"{disabled_overhead * 100:+.2f}%"],
            ["reference (every op via Core.execute)", f"{reference:.3f}",
             ""],
            ["fully traced (recorder+sampler)", f"{traced:.3f}",
             f"{traced_overhead * 100:+.2f}% vs reference"],
        ],
        title="Observability overhead (tmm/lp, wall-clock)",
    )
    data = {
        "baseline_seconds": round(baseline, 4),
        "disabled_seconds": round(disabled, 4),
        "disabled_overhead_pct": round(disabled_overhead * 100, 2),
        "reference_seconds": round(reference, 4),
        "traced_seconds": round(traced, 4),
        "traced_overhead_pct": round(traced_overhead * 100, 2),
        "traced_overhead_ceiling_pct": TRACED_OVERHEAD_CEILING * 100,
        "events": events,
        "events_per_sec_traced": round(events_per_sec_traced),
        "events_per_sec_untraced": round(events_per_sec_untraced),
        "ceiling_pct": OVERHEAD_CEILING * 100,
        "noise_floor_seconds": NOISE_FLOOR_SECONDS,
    }
    record("obs_overhead", table + f"\n\nprobe events/sec: "
           f"{events_per_sec_traced:,.0f} traced / "
           f"{events_per_sec_untraced:,.0f} untraced ({events} events)",
           data)
    if not SMOKE:
        with open(ROOT_JSON, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")

    allowance = overhead_allowance(baseline, OVERHEAD_CEILING)
    assert disabled - baseline <= allowance, (
        f"disabled-probe overhead {disabled - baseline:.3f}s "
        f"({disabled_overhead * 100:+.2f}%) exceeds the allowance of "
        f"{allowance:.3f}s (max of {OVERHEAD_CEILING * 100:.0f}% of the "
        f"{baseline:.3f}s plain leg and the {NOISE_FLOOR_SECONDS * 1000:.0f}ms "
        f"noise floor)"
    )
    traced_allowance = overhead_allowance(reference, TRACED_OVERHEAD_CEILING)
    assert traced - reference <= traced_allowance, (
        f"traced overhead {traced - reference:.3f}s "
        f"({traced_overhead * 100:+.2f}%) exceeds the ratcheted allowance "
        f"of {traced_allowance:.3f}s "
        f"({TRACED_OVERHEAD_CEILING * 100:.0f}% of the {reference:.3f}s "
        f"reference leg) — the recorder/bus/sampler hot paths regressed"
    )


def test_probed_context_matches_attach_detach():
    """Sanity companion to the timing legs: the ``probed`` context
    manager and manual attach/detach trace the same event stream."""
    workload = make_workload("tmm")
    from repro.sim.machine import Machine

    machine = Machine(machine_config())
    bound = workload.bind(machine, num_threads=NUM_THREADS)
    recorder = TraceRecorder()
    with probed(machine, [recorder]):
        machine.run(bound.threads("lp"))
    assert len(recorder) > 0
    assert bound.verify()
