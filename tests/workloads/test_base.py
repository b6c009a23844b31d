"""Unit tests for the workload protocol module."""

import numpy as np
import pytest
import random

from repro.cli import _CRASHCHECK_PARAMS
from repro.errors import WorkloadError
from repro.schemes import SCHEME_LP
from repro.sim.config import CacheConfig, MachineConfig, tiny_machine
from repro.sim.machine import Machine
from repro.workloads.base import integer_matrix
from repro.workloads.registry import available_workloads, get_workload
from repro.workloads.tmm import TiledMatMul
from tests.sim.test_machine import POST_CRASH


def machine():
    return Machine(
        MachineConfig(
            num_cores=2,
            l1=CacheConfig(1024, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 4, hit_cycles=11.0),
        )
    )


class TestIntegerMatrix:
    def test_shape_and_range(self):
        m = integer_matrix(random.Random(1), 5, 7, span=3)
        assert m.shape == (5, 7)
        assert np.all(np.abs(m) <= 3)
        assert np.all(m == np.round(m))

    def test_deterministic_given_seed(self):
        a = integer_matrix(random.Random(42), 4, 4)
        b = integer_matrix(random.Random(42), 4, 4)
        assert np.array_equal(a, b)


class TestBoundWorkload:
    def test_zero_threads_rejected(self):
        wl = TiledMatMul(n=16, bsize=8)
        with pytest.raises(WorkloadError):
            wl.bind(machine(), num_threads=0)

    def test_verify_exact_by_default(self):
        wl = TiledMatMul(n=16, bsize=8)
        bound = wl.bind(machine(), num_threads=1)
        # before running, c is all zeros: should not verify
        assert not bound.verify()

    def test_verification_error_metric(self):
        wl = TiledMatMul(n=16, bsize=8)
        bound = wl.bind(machine(), num_threads=1)
        assert bound.verification_error() > 0.0
        bound.machine.run(bound.threads("base"))
        assert bound.verification_error() == 0.0

    def test_verify_with_tolerance(self):
        wl = TiledMatMul(n=16, bsize=8)
        bound = wl.bind(machine(), num_threads=1)
        bound.machine.run(bound.threads("base"))
        assert bound.verify(atol=1e-9)

    def test_check_variant(self):
        wl = TiledMatMul(n=16, bsize=8)
        wl.check_variant("lp")
        with pytest.raises(WorkloadError):
            wl.check_variant("bogus")


@pytest.mark.parametrize("rebuild", sorted(POST_CRASH))
@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("name", available_workloads())
def test_rebind_on_post_crash_machine_writes_nothing(name, threads, rebuild):
    """Binding on a post-crash machine re-attaches: the image and the
    allocator the crashed machine shares stay exactly as they were."""
    spec = get_workload(name)(**_CRASHCHECK_PARAMS[name])
    replay = Machine(tiny_machine(), _replay=True)
    ops = replay.run(
        spec.bind(replay, num_threads=threads).threads(SCHEME_LP)
    ).ops_executed
    machine = Machine(tiny_machine())
    bound = spec.bind(machine, num_threads=threads)
    assert machine.run(bound.threads(SCHEME_LP), crash_at_op=ops // 2).crashed

    post = POST_CRASH[rebuild](machine)
    arch, persistent = dict(post.mem.arch), dict(post.mem.persistent)
    regions = post.allocator.regions
    spec.bind(post, num_threads=threads)
    assert post.mem.arch == arch
    assert post.mem.persistent == persistent
    assert post.allocator.regions == regions
