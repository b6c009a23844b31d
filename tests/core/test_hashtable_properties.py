"""Property tests for the collision-free checksum table."""

from hypothesis import given, settings, strategies as st

from repro.core.checksum import ModularChecksum
from repro.core.hashtable import ChecksumTable
from repro.core.lazy import LPRuntime
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.machine import Machine

dims_strategy = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=4
)


def tiny_machine():
    return Machine(
        MachineConfig(
            num_cores=1,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 2, hit_cycles=11.0),
        )
    )


@given(dims_strategy)
@settings(max_examples=50, deadline=None)
def test_slot_mapping_is_a_bijection(dims):
    """Every key maps to a distinct slot and all slots are covered —
    the paper's "our design eliminates hash collisions"."""
    table = ChecksumTable(tiny_machine(), "t", dims, ModularChecksum())

    def all_keys(ds):
        if not ds:
            yield ()
            return
        for head in range(ds[0]):
            for rest in all_keys(ds[1:]):
                yield (head,) + rest

    slots = [table.slot(*key) for key in all_keys(tuple(dims))]
    assert sorted(slots) == list(range(table.num_slots))


@given(
    dims_strategy,
    st.lists(st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e9, max_value=1e9),
             min_size=1, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_eager_commit_then_match_roundtrip(dims, values):
    m = tiny_machine()
    table = ChecksumTable(m, "t", dims, ModularChecksum())
    key = tuple(0 for _ in dims)
    ck = table.engine.of_values(values)
    m.run([LPRuntime.commit_slot(table.slot_addr(*key), ck, eager=True)])
    assert table.matches(values, *key)
    # and a different value list must not match (unless checksum-equal)
    altered = [v + 1.0 for v in values]
    if table.engine.of_values(altered) != ck:
        assert not table.matches(altered, *key)
