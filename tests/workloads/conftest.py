"""Shared helpers for workload tests."""

from repro.obs import TraceRecorder, probed
from repro.sim.isa import RegionMark


def run_with_marks(machine, threads):
    """Run ``threads`` on ``machine``; return the run's result and the
    labels of the region marks it executed, read off the probe bus's
    op channel."""
    recorder = TraceRecorder()
    with probed(machine, [recorder]):
        result = machine.run(threads)
    marks = [ev.op.label for ev in recorder.ops if type(ev.op) is RegionMark]
    return result, marks
