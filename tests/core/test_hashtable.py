"""Unit tests for the checksum hash table."""

import pytest

from repro.errors import ConfigError
from repro.core.checksum import ModularChecksum
from repro.core.hashtable import INVALID_CHECKSUM, ChecksumTable
from repro.core.lazy import LPRuntime
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.machine import Machine


def tiny_machine():
    return Machine(
        MachineConfig(
            num_cores=1,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 2, hit_cycles=11.0),
        )
    )


def make_table(machine=None, dims=(4, 3, 2)):
    machine = machine or tiny_machine()
    return machine, ChecksumTable(machine, "cktab", dims, ModularChecksum())


class TestKeying:
    def test_collision_free(self):
        _, tab = make_table()
        seen = set()
        for i in range(4):
            for j in range(3):
                for t in range(2):
                    slot = tab.slot(i, j, t)
                    assert slot not in seen
                    seen.add(slot)
        assert seen == set(range(24))

    def test_key_arity_checked(self):
        _, tab = make_table()
        with pytest.raises(ConfigError):
            tab.slot(1, 2)

    def test_key_range_checked(self):
        _, tab = make_table()
        with pytest.raises(ConfigError):
            tab.slot(4, 0, 0)
        with pytest.raises(ConfigError):
            tab.slot(0, -1, 0)

    def test_bad_dims_rejected(self):
        m = tiny_machine()
        with pytest.raises(ConfigError):
            ChecksumTable(m, "bad", (0, 3), ModularChecksum())
        with pytest.raises(ConfigError):
            ChecksumTable(m, "bad2", (), ModularChecksum())


class TestInitialState:
    def test_slots_start_invalid(self):
        _, tab = make_table()
        assert not tab.is_committed(0, 0, 0)
        assert tab.persisted_checksum(0, 0, 0) == INVALID_CHECKSUM
        assert tab.committed_keys() == ()

    def test_invalid_slot_never_matches(self):
        _, tab = make_table()
        # an uncommitted region is inconsistent even for "empty" data
        assert not tab.matches([], 0, 0, 0)


class TestCommit:
    def test_lazy_commit_is_volatile_until_evicted(self):
        m, tab = make_table()
        ck = tab.engine.of_values([5.0, 6.0])
        m.run([LPRuntime.commit_slot(tab.slot_addr(1, 1, 1), ck)])
        # still only in cache
        assert not tab.is_committed(1, 1, 1)
        m.drain()
        assert tab.is_committed(1, 1, 1)
        assert tab.matches([5.0, 6.0], 1, 1, 1)

    def test_eager_commit_is_durable_immediately(self):
        m, tab = make_table()
        ck = tab.engine.of_values([5.0, 6.0])
        m.run([LPRuntime.commit_slot(tab.slot_addr(1, 1, 1), ck, eager=True)])
        assert tab.is_committed(1, 1, 1)  # no drain needed
        assert tab.matches([5.0, 6.0], 1, 1, 1)

    def test_matches_rejects_wrong_values(self):
        m, tab = make_table()
        ck = tab.engine.of_values([5.0, 6.0])
        m.run([LPRuntime.commit_slot(tab.slot_addr(0, 0, 0), ck, eager=True)])
        assert not tab.matches([5.0, 7.0], 0, 0, 0)
        # The modular engine sums its words, so reordered values match.
        # ROADMAP item 1's collisions rest on this order blindness: a
        # later region's values can sum to an earlier region's checksum.
        assert tab.matches([6.0, 5.0], 0, 0, 0)
        assert not tab.matches([5.0], 0, 0, 0)

    def test_committed_keys_lists_slots(self):
        m, tab = make_table()
        m.run([LPRuntime.commit_slot(tab.slot_addr(2, 1, 0), 123, eager=True)])
        assert tab.committed_keys() == (tab.slot(2, 1, 0),)


class TestFootprint:
    def test_size_matches_paper_shape(self):
        # (N/bsize) x (N/bsize) x P slots of one element each
        m = tiny_machine()
        tab = ChecksumTable(m, "t", (8, 8, 2), ModularChecksum())
        assert tab.num_slots == 128
        assert tab.size_bytes == 128 * 8
