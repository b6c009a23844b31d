"""Property-based tests of the simulator's persistency semantics.

These pin the invariants Lazy Persistency relies on:

1. architectural correctness — loads always see the latest store,
   whatever the interleaving and cache pressure;
2. crash soundness — the post-crash state of every address is *some*
   prefix value: either the last persisted value or the initial one,
   never a value that was never stored;
3. coherence invariants — inclusion and single-writer hold, and the
   owner/sharer directory records exactly the L1s' lines, after any op
   sequence and after every single hierarchy call;
4. drain completeness — after drain(), persistent == architectural.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sim.coherence import Hierarchy
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.isa import Fence, Flush, FlushWB, Load, Store
from repro.sim.machine import Machine
from repro.sim.nvmm import MemoryController
from repro.sim.stats import MachineStats
from repro.sim.valuestore import MemoryState

NUM_ELEMS = 48  # spans 6 lines; tiny caches force constant eviction


def tiny_machine(num_cores=2):
    return Machine(
        MachineConfig(
            num_cores=num_cores,
            l1=CacheConfig(256, 2, hit_cycles=2.0),  # 4 lines
            l2=CacheConfig(512, 2, hit_cycles=11.0),  # 8 lines
        )
    )


# One symbolic action: (kind, index, value)
actions = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "flush", "flushwb", "fence"]),
        st.integers(min_value=0, max_value=NUM_ELEMS - 1),
        st.integers(min_value=1, max_value=1000),
    ),
    min_size=1,
    max_size=60,
)


def interpret(region, script, shadow=None):
    """Generator executing a script of symbolic actions."""
    for kind, idx, value in script:
        addr = region.addr(idx)
        if kind == "load":
            yield Load(addr)
        elif kind == "store":
            if shadow is not None:
                shadow[idx] = float(value)
            yield Store(addr, float(value))
        elif kind == "flush":
            yield Flush(addr)
        elif kind == "flushwb":
            yield FlushWB(addr)
        else:
            yield Fence()


@given(actions)
@settings(max_examples=60, deadline=None)
def test_arch_state_matches_shadow(script):
    """Loads/stores through the hierarchy behave like a flat memory."""
    m = tiny_machine(num_cores=1)
    r = m.alloc("a", NUM_ELEMS)
    shadow = [0.0] * NUM_ELEMS
    m.run([interpret(r, script, shadow)])
    assert m.read_region(r) == shadow


@given(actions, actions)
@settings(max_examples=40, deadline=None)
def test_arch_state_matches_shadow_two_cores_disjoint(s1, s2):
    """Two cores on disjoint halves still behave like flat memory."""
    half = NUM_ELEMS // 2
    s1 = [(k, i % half, v) for k, i, v in s1]
    s2 = [(k, half + i % half, v) for k, i, v in s2]
    m = tiny_machine(num_cores=2)
    r = m.alloc("a", NUM_ELEMS)
    shadow = [0.0] * NUM_ELEMS
    m.run([interpret(r, s1, shadow), interpret(r, s2, shadow)])
    assert m.read_region(r) == shadow


@given(actions, st.integers(min_value=1, max_value=80))
@settings(max_examples=60, deadline=None)
def test_crash_never_invents_values(script, crash_op):
    """Post-crash values were all architecturally written (or initial)."""
    m = tiny_machine(num_cores=1)
    r = m.alloc("a", NUM_ELEMS)
    legal = {i: {0.0} for i in range(NUM_ELEMS)}
    for kind, idx, value in script:
        if kind == "store":
            legal[idx].add(float(value))
    m.run([interpret(r, script)], crash_at_op=crash_op)
    post = m.after_crash()
    for i in range(NUM_ELEMS):
        assert post.arch_value(r.addr(i)) in legal[i]


@given(actions)
@settings(max_examples=60, deadline=None)
def test_fence_after_flush_guarantees_durability(script):
    """flush(x); fence() makes x's latest store durable at that point."""
    m = tiny_machine(num_cores=1)
    r = m.alloc("a", NUM_ELEMS)
    # append an explicit flush+fence of element 0 after a store
    script = list(script) + [("store", 0, 777), ("flush", 0, 0), ("fence", 0, 0)]
    m.run([interpret(r, script)])
    # even with no drain, element 0's value must be persistent
    assert m.persistent_value(r.addr(0)) == 777.0


@given(actions)
@settings(max_examples=60, deadline=None)
def test_drain_makes_persistent_equal_arch(script):
    m = tiny_machine(num_cores=1)
    r = m.alloc("a", NUM_ELEMS)
    m.run([interpret(r, script)])
    m.drain()
    assert m.read_region(r) == m.read_region(r, persistent=True)
    assert m.hierarchy.dirty_line_addrs() == set()


@given(actions, actions)
@settings(max_examples=40, deadline=None)
def test_coherence_invariants_hold(s1, s2):
    """Inclusion + single-writer + directory after arbitrary two-core
    op mixes."""
    m = tiny_machine(num_cores=2)
    r = m.alloc("a", NUM_ELEMS)
    m.run([interpret(r, s1), interpret(r, s2)])
    m.hierarchy.check_inclusion()
    m.hierarchy.check_single_writer()
    m.hierarchy.check_directory()


#: Lines the direct hierarchy calls below touch: more than the L2's 4,
#: and as many as the three 2-line L1s, so L1 victims, inclusive
#: back-invalidations and lines shared between cores are all routine.
DIRECT_LINES = 6
DIRECT_CORES = 3
LINE = 64

hierarchy_calls = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "clflushopt", "clwb", "clean_all"]),
        st.integers(min_value=0, max_value=DIRECT_CORES - 1),
        st.integers(min_value=0, max_value=DIRECT_LINES - 1),
    ),
    min_size=1,
    max_size=80,
)


@given(hierarchy_calls)
@example(
    [
        ("load", 0, 0), ("load", 1, 0), ("store", 0, 0),  # share, upgrade
        ("load", 1, 0), ("store", 2, 0), ("store", 1, 0),  # M->S, two RFOs
        ("store", 0, 0), ("clflushopt", 0, 0),  # flush the owner's copy
        ("load", 0, 0), ("load", 1, 0), ("clflushopt", 2, 0),  # sharers'
        ("load", 2, 1), ("load", 2, 2), ("load", 2, 3),  # L1 victim
        ("load", 0, 1), ("load", 1, 3), ("load", 0, 5),  # back-invalidation
        ("store", 1, 2), ("clwb", 1, 2), ("clean_all", 0, 0),
    ]
)
@settings(max_examples=150, deadline=None)
def test_directory_tracks_every_l1_change(calls):
    """Drive ``Hierarchy`` directly from three cores and check all three
    invariant hooks after every call: each fill, upgrade and RFO
    invalidation, flush, L1 victim and back-invalidation must leave the
    directory equal to a scan of the L1s.  The explicit example walks
    each of those paths once, so dropping any one directory update
    fails it whatever the random draws."""
    config = MachineConfig(
        num_cores=DIRECT_CORES,
        l1=CacheConfig(128, 2, hit_cycles=2.0),  # 2 lines, one set
        l2=CacheConfig(256, 2, hit_cycles=11.0),  # 4 lines, two sets
    )
    mem = MemoryState()
    stats = MachineStats().for_cores(DIRECT_CORES)
    h = Hierarchy(config, mem, stats, MemoryController(config.nvmm, mem, stats))
    for i in range(DIRECT_LINES):
        mem.init((i + 1) * LINE, 0.0)
    for step, (kind, core, line) in enumerate(calls):
        now, addr = 10.0 * step, (line + 1) * LINE
        if kind == "load":
            h.load(core, addr, now)
        elif kind == "store":
            h.store(core, addr, float(step), now)
        elif kind == "clean_all":
            h.clean_all(now)
        else:
            h.flush_line(addr, now, kind == "clflushopt", core_id=core)
        h.check_inclusion()
        h.check_single_writer()
        h.check_directory()


@given(actions)
@settings(max_examples=40, deadline=None)
def test_write_counts_are_conservative(script):
    """Every persisted divergence is backed by a counted NVMM write."""
    m = tiny_machine(num_cores=1)
    r = m.alloc("a", NUM_ELEMS)
    m.run([interpret(r, script)])
    persisted_changes = sum(
        1 for i in range(NUM_ELEMS)
        if m.persistent_value(r.addr(i)) != 0.0
    )
    if persisted_changes > 0:
        assert m.stats.nvmm_writes > 0
