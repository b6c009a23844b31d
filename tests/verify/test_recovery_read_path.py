"""Recovery reads the NVMM image only through timed loads.

Recovery is ordinary code on the post-crash machine (paper Figure 9,
section III-E): it learns what survived by loading it, so the timing
model charges every read.  ``MemoryState.persisted`` is the untimed
back door that tests and ``verify()`` use; this grid patches it to
raise while every registry workload x variant (broken ones included)
x 1 and 2 threads recovers from crashes at a quarter, half and three
quarters of its forward run.  Every recovery must finish without
touching it, and every sound variant must verify.
"""

import pytest

from repro.schemes import get_scheme
from repro.sim.config import tiny_machine
from repro.sim.machine import Machine
from repro.sim.valuestore import MemoryState
from repro.workloads import available_workloads, get_workload
from tests.verify.test_recovery_idempotence import SMALL_PARAMS

CASES = [
    (name, variant, threads)
    for name in available_workloads()
    for variant in get_workload(name).variants
    + get_workload(name).broken_variants
    for threads in (1, 2)
]


def _untimed_read(self, addr, default=None):
    raise AssertionError(f"recovery read {addr:#x} without a Load")


@pytest.mark.parametrize("name,variant,threads", CASES)
def test_recovery_reads_only_through_loads(name, variant, threads, monkeypatch):
    workload = get_workload(name)(**SMALL_PARAMS[name])
    config = tiny_machine()
    machine = Machine(config)
    total = machine.run(
        workload.bind(machine, num_threads=threads).threads(variant)
    ).ops_executed
    for quarter in (1, 2, 3):
        machine = Machine(config)
        bound = workload.bind(machine, num_threads=threads)
        result = machine.run(
            bound.threads(variant), crash_at_op=total * quarter // 4
        )
        assert result.crashed
        post = machine.after_crash_with_image(
            machine.mem.persistent, replay=True
        )
        rebound = workload.bind(post, num_threads=threads)
        with monkeypatch.context() as patch:
            patch.setattr(MemoryState, "persisted", _untimed_read)
            post.run(rebound.recovery_threads(variant))
        if get_scheme(variant).sound:
            assert rebound.verify(), f"crash at {quarter}/4 of {total} ops"
