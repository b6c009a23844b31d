"""Unit tests for repro.sim.valuestore."""

import pytest

from repro.errors import AddressError
from repro.sim.valuestore import MemoryState


class TestArchState:
    def test_store_then_load(self):
        mem = MemoryState()
        mem.store(64, 3.5)
        assert mem.load(64) == 3.5

    def test_load_unwritten_raises(self):
        mem = MemoryState()
        with pytest.raises(AddressError):
            mem.load(64)

    def test_unaligned_rejected(self):
        mem = MemoryState()
        with pytest.raises(AddressError):
            mem.store(65, 1.0)
        with pytest.raises(AddressError):
            mem.load(66)

    def test_nonpositive_address_rejected(self):
        mem = MemoryState()
        with pytest.raises(AddressError):
            mem.store(0, 1.0)


class TestPersistence:
    def test_store_is_volatile_until_persisted(self):
        mem = MemoryState()
        mem.init(64, 0.0)
        mem.store(64, 9.0)
        assert mem.load(64) == 9.0
        assert mem.persisted(64) == 0.0
        assert mem.is_divergent(64)

    def test_persist_line_copies_whole_line(self):
        mem = MemoryState()
        for addr in range(64, 128, 8):
            mem.init(addr, 0.0)
        mem.store(64, 1.0)
        mem.store(120, 2.0)
        mem.persist_line(64)
        assert mem.persisted(64) == 1.0
        assert mem.persisted(120) == 2.0
        assert not mem.is_divergent(64)

    def test_persist_line_ignores_unwritten_slots(self):
        mem = MemoryState()
        mem.init(64, 5.0)  # only one element of the line exists
        mem.store(64, 6.0)
        mem.persist_line(64)
        assert mem.persisted(64) == 6.0

    def test_init_is_durable(self):
        mem = MemoryState()
        mem.init(64, 7.0)
        assert mem.persisted(64) == 7.0
        assert not mem.is_divergent(64)

    def test_persisted_default(self):
        mem = MemoryState()
        assert mem.persisted(64, default=0.0) == 0.0
        with pytest.raises(AddressError):
            mem.persisted(64)


class TestCrash:
    def test_crashed_copy_keeps_only_persistent(self):
        mem = MemoryState()
        mem.init(64, 0.0)
        mem.init(72, 0.0)
        mem.store(64, 1.0)
        mem.store(72, 2.0)
        mem.persist_line(64)  # persists both (same line)
        mem.store(72, 3.0)  # diverges again, never persisted

        post = MemoryState.from_image(mem.persistent)
        assert post.load(64) == 1.0
        assert post.load(72) == 2.0  # the 3.0 died in the cache

    def test_crashed_copy_is_independent(self):
        mem = MemoryState()
        mem.init(64, 1.0)
        post = MemoryState.from_image(mem.persistent)
        post.store(64, 9.0)
        assert mem.load(64) == 1.0

    def test_post_crash_arch_equals_persistent(self):
        mem = MemoryState()
        mem.init(64, 1.0)
        mem.store(64, 2.0)
        post = MemoryState.from_image(mem.persistent)
        assert post.load(64) == post.persisted(64) == 1.0
