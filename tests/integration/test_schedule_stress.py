"""Interleaving stress: correctness must hold under *any* schedule.

``schedule_jitter`` perturbs the min-clock scheduler's choices with a
seeded RNG, exploring interleavings beyond the deterministic default.
Coherence invariants, output exactness and crash recovery must survive
every one of them.
"""


from hypothesis import given, settings, strategies as st

from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.crash import CrashPlan, run_with_crash
from repro.sim.machine import Machine
from repro.workloads.tmm import TiledMatMul
from repro.workloads.gauss import GaussElimination


def config(seed, jitter=25.0, cores=3):
    return MachineConfig(
        num_cores=cores,
        l1=CacheConfig(512, 2, hit_cycles=2.0),
        l2=CacheConfig(2048, 4, hit_cycles=11.0),
        schedule_jitter=jitter,
        schedule_seed=seed,
    )


class TestJitterBasics:
    def test_zero_jitter_unchanged(self):
        """Default config reproduces the strict min-clock schedule."""

        def run(seed):
            wl = TiledMatMul(n=16, bsize=8)
            m = Machine(config(seed, jitter=0.0))
            bound = wl.bind(m, num_threads=2)
            res = m.run(bound.threads("lp"))
            return res.exec_cycles, res.nvmm_writes

        assert run(1) == run(2)

    def test_jitter_changes_interleaving(self):
        def run(seed):
            wl = TiledMatMul(n=16, bsize=8)
            m = Machine(config(seed))
            bound = wl.bind(m, num_threads=2)
            res = m.run(bound.threads("lp"))
            assert bound.verify()
            return res.stats.nvmm_writes, res.exec_cycles

        outcomes = {run(seed) for seed in range(6)}
        assert len(outcomes) > 1, "jitter should produce distinct schedules"

    def test_jitter_deterministic_per_seed(self):
        def run():
            wl = TiledMatMul(n=16, bsize=8)
            m = Machine(config(seed=7))
            bound = wl.bind(m, num_threads=2)
            res = m.run(bound.threads("lp"))
            return res.exec_cycles, res.nvmm_writes

        assert run() == run()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_tmm_exact_under_any_schedule(seed):
    wl = TiledMatMul(n=16, bsize=8)
    m = Machine(config(seed))
    bound = wl.bind(m, num_threads=2)
    m.run(bound.threads("lp"))
    m.hierarchy.check_inclusion()
    m.hierarchy.check_single_writer()
    m.hierarchy.check_directory()
    assert bound.verify()


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=12_000),
)
@settings(max_examples=20, deadline=None)
def test_tmm_recovery_exact_under_any_schedule(seed, at_op):
    wl = TiledMatMul(n=16, bsize=8)
    m = Machine(config(seed))
    bound = wl.bind(m, num_threads=2)
    result, post = run_with_crash(m, bound.threads("lp"), CrashPlan(at_op=at_op))
    if not result.crashed:
        assert bound.verify()
        return
    rb = wl.bind(post, num_threads=2)
    post.run(rb.recovery_threads("lp"))
    assert rb.verify()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_gauss_barriers_hold_under_any_schedule(seed):
    wl = GaussElimination(n=12, row_block=4)
    m = Machine(config(seed))
    bound = wl.bind(m, num_threads=2)
    m.run(bound.threads("lp"))
    assert bound.verify()
