"""Recovery must be idempotent: running it twice on one crash image
yields the same NVMM image as running it once.

This is a scheme-layer contract (frontiers are recomputed from the
image; redo blindly rewrites declared values; markers and checksums
refinalise to the same state) and the property that makes recovery
itself crash-safe — a crash *during* recovery just means recovering
again, which must converge on the same image.  Checked for every
registered workload under every sound scheme it supports.
"""

import pytest

from repro.schemes import get_scheme
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads import available_workloads, get_workload

SMALL_PARAMS = {
    "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
    "fft": {"n": 16},
    "gauss": {"n": 8, "row_block": 4},
    "cholesky": {"n": 8, "col_block": 4},
    "conv2d": {"n": 8, "row_block": 2},
    "log": {"records": 6, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}

CASES = [
    (name, variant)
    for name in available_workloads()
    for variant in get_workload(name).variants
    if get_scheme(variant).sound
]


def recover(machine, workload, variant):
    """One recovery pass; returns the drained persistent image."""
    rebound = workload.bind(machine, num_threads=2, create=False)
    machine.run(rebound.recovery_threads(variant))
    machine.drain()
    return rebound, dict(machine.mem.persistent)


@pytest.mark.parametrize("name,variant", CASES)
def test_recovering_twice_yields_identical_image(name, variant):
    workload = get_workload(name)(**SMALL_PARAMS[name])
    machine = Machine(tiny_machine())
    bound = workload.bind(machine, num_threads=2)
    result, post = run_with_crash(
        machine, bound.threads(variant), CrashPlan(at_op=60)
    )
    assert result.crashed, "workload finished before the crash point"

    rebound, first = recover(post, workload, variant)
    assert rebound.verify()

    # Crash again immediately after recovery (arch state reset to the
    # recovered persistent image) and recover a second time.
    again = post.after_crash()
    rebound2, second = recover(again, workload, variant)
    assert rebound2.verify()
    assert second == first
