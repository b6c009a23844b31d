"""Property-based crash/recovery tests.

The reproduction's central correctness claim, stated as properties:

* for ANY crash point, LP recovery reconstructs the exact failure-free
  output (TMM and conv2d, the frontier and idempotent recovery styles);
* for ANY crash point, a WAL transaction is atomic;
* the periodic cleaner never breaks recovery.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.cleaner import PeriodicCleaner
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.core.wal import WriteAheadLog
from repro.workloads.conv2d import Conv2D
from repro.workloads.tmm import TiledMatMul


def config(cores=3, timing="detailed"):
    return MachineConfig(
        num_cores=cores,
        l1=CacheConfig(512, 2, hit_cycles=2.0),
        l2=CacheConfig(2048, 4, hit_cycles=11.0),
        timing=timing,
    )


#: Crash/recovery properties must hold on both timing pipelines: the
#: models expose different interleavings (and therefore different
#: reachable crash images), not different guarantees.
timings = st.sampled_from(["detailed", "functional"])


@given(st.integers(min_value=1, max_value=16_000), timings)
@settings(max_examples=25, deadline=None)
def test_tmm_recovery_exact_at_any_crash_point(at_op, timing):
    wl = TiledMatMul(n=16, bsize=8)
    m = Machine(config(timing=timing))
    bound = wl.bind(m, num_threads=2)
    result, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
    if not result.crashed:
        assert bound.verify()
        return
    rb = wl.bind(post, num_threads=2, create=False)
    post.run(rb.recovery_threads("lp"))
    assert rb.verify()


@given(
    st.integers(min_value=1, max_value=8_000),
    st.integers(min_value=100, max_value=2_000),
    timings,
)
@settings(max_examples=15, deadline=None)
def test_tmm_recovery_exact_with_cleaner(at_op, period, timing):
    wl = TiledMatMul(n=16, bsize=8)
    m = Machine(config(timing=timing))
    m.cleaner = PeriodicCleaner(float(period))
    bound = wl.bind(m, num_threads=2)
    result, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
    if not result.crashed:
        assert bound.verify()
        return
    rb = wl.bind(post, num_threads=2, create=False)
    post.run(rb.recovery_threads("lp"))
    assert rb.verify()


@given(st.integers(min_value=1, max_value=4_000), timings)
@settings(max_examples=20, deadline=None)
def test_conv2d_recovery_exact_at_any_crash_point(at_op, timing):
    wl = Conv2D(n=12, ksize=3, row_block=2)
    m = Machine(config(timing=timing))
    bound = wl.bind(m, num_threads=2)
    result, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
    if not result.crashed:
        assert bound.verify()
        return
    rb = wl.bind(post, num_threads=2, create=False)
    post.run(rb.recovery_threads("lp"))
    assert rb.verify()


@given(st.integers(min_value=1, max_value=250), timings)
@settings(max_examples=30, deadline=None)
def test_wal_transaction_atomic_at_any_crash_point(at_op, timing):
    m = Machine(config(cores=1, timing=timing))
    old = [10.0, 20.0, 30.0, 40.0]
    data = m.alloc_init("data", old)
    m.drain()
    log = WriteAheadLog(m, "log", capacity=8)
    writes = [(data.addr(i), 100.0 + i) for i in range(4)]
    result, post = run_with_crash(m, [log.transaction(writes)], CrashPlan(at_op=at_op))

    post_log = WriteAheadLog.attach(post, "log", capacity=8)
    if post_log.needs_recovery():
        post.run([post_log.recovery_ops()])
    values = [post.persistent_value(data.addr(i)) for i in range(4)]
    assert values in (old, [100.0, 101.0, 102.0, 103.0]), (
        f"non-atomic state {values} (crash at {at_op}, "
        f"crashed={result.crashed})"
    )
