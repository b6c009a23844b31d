"""Property tests for the LP runtime's timed recovery check."""

from hypothesis import given, settings, strategies as st

from repro.core.checksum import available_engines
from repro.core.lazy import LPRuntime
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.machine import Machine

#: Small integers collide under the word-summing engines; wide floats
#: mostly do not.  Both kinds of image must get the same verdict.
values_strategy = st.one_of(
    st.integers(min_value=-8, max_value=8).map(float),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e9, max_value=1e9),
)


def tiny_machine():
    return Machine(
        MachineConfig(
            num_cores=1,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 2, hit_cycles=11.0),
        )
    )


def timed_verdict(machine, step):
    """Run a region check on core 0 and return its verdict."""
    verdict = []

    def thread():
        verdict.append((yield from step))

    machine.run([thread()])
    return verdict[0]


@given(
    st.sampled_from(available_engines()),
    st.lists(values_strategy, min_size=1, max_size=8),
    st.booleans(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_timed_check_agrees_with_table_matches(engine, written, committed, data):
    """On any committed image, the timed IsMatchingChecksum recovery
    runs gives the verdict of the untimed ``ChecksumTable.matches``."""
    image = [
        data.draw(st.sampled_from([v, v + 1.0, -v, 0.0])) for v in written
    ]
    image = data.draw(st.permutations(image))
    m = tiny_machine()
    lp = LPRuntime(m, "t", (2,), engine=engine)
    region = m.alloc_init("data", image)
    if committed:
        ck = lp.begin_region()
        for v in written:
            ck.update(v)
        m.run([lp.commit_slot(lp.table.slot_addr(1), ck.value, eager=True)])
    post = m.after_crash()
    lp = LPRuntime(post, "t", (2,), engine=engine, create=False)
    addrs = [region.addr(i) for i in range(len(image))]
    verdict = timed_verdict(
        post, lp.region_matches(addrs, lp.table.slot_addr(1))
    )
    assert verdict == lp.table.matches(image, 1)
    if not committed:
        assert verdict is False
