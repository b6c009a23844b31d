"""Property-based crash/recovery tests for the remaining kernels and
the TMM design space (granularity, repair mode, embedded checksums)."""

from hypothesis import given, settings, strategies as st

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads.cholesky import Cholesky
from repro.workloads.fft import FFT
from repro.workloads.gauss import GaussElimination
from repro.workloads.tmm import TiledMatMul


def config(cores=3):
    return MachineConfig(
        num_cores=cores,
        l1=CacheConfig(512, 2, hit_cycles=2.0),
        l2=CacheConfig(2048, 4, hit_cycles=11.0),
    )


def crash_and_recover(workload, at_op, threads=2):
    m = Machine(config())
    bound = workload.bind(m, num_threads=threads)
    result, post = run_with_crash(
        m, bound.threads("lp"), CrashPlan(at_op=at_op)
    )
    if not result.crashed:
        return bound.verify()
    rb = workload.bind(post, num_threads=threads, create=False)
    post.run(rb.recovery_threads("lp"))
    return rb.verify()


@given(st.integers(min_value=1, max_value=6_000))
@settings(max_examples=15, deadline=None)
def test_gauss_recovery_exact(at_op):
    assert crash_and_recover(GaussElimination(n=16, row_block=4), at_op)


@given(st.integers(min_value=1, max_value=2_500))
@settings(max_examples=15, deadline=None)
def test_cholesky_recovery_exact(at_op):
    assert crash_and_recover(Cholesky(n=16, col_block=4), at_op)


@given(st.integers(min_value=1, max_value=3_000))
@settings(max_examples=15, deadline=None)
def test_fft_recovery_exact(at_op):
    assert crash_and_recover(FFT(n=64), at_op)


@given(
    st.integers(min_value=1, max_value=16_000),
    st.sampled_from(["jj", "ii", "kk"]),
)
@settings(max_examples=20, deadline=None)
def test_tmm_granularity_recovery_exact(at_op, gran):
    assert crash_and_recover(
        TiledMatMul(n=16, bsize=8, granularity=gran), at_op
    )


@given(st.integers(min_value=1, max_value=16_000))
@settings(max_examples=15, deadline=None)
def test_tmm_embedded_recovery_exact(at_op):
    assert crash_and_recover(
        TiledMatMul(n=16, bsize=8, checksum_org="embedded"), at_op
    )


@given(st.integers(min_value=1, max_value=16_000))
@settings(max_examples=15, deadline=None)
def test_tmm_incremental_repair_recovery_exact(at_op):
    assert crash_and_recover(
        TiledMatMul(n=16, bsize=8, repair="incremental"), at_op
    )
