"""Unit tests for the checksum engines."""

import pytest

from repro.errors import ConfigError
from repro.core.checksum import (
    Adler32Checksum,
    ModularChecksum,
    ParallelChecksum,
    ParityChecksum,
    available_engines,
    get_engine,
    value_bits,
)

ALL_ENGINES = [ParityChecksum, ModularChecksum, Adler32Checksum, ParallelChecksum]


class TestValueBits:
    def test_deterministic(self):
        assert value_bits(1.5) == value_bits(1.5)

    def test_distinguishes_values(self):
        assert value_bits(1.0) != value_bits(2.0)

    def test_int_and_float_agree(self):
        assert value_bits(5) == value_bits(5.0)


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
class TestEngineContract:
    def test_deterministic(self, engine_cls):
        e = engine_cls()
        vals = [1.0, 2.5, -3.0, 1e9]
        assert e.of_values(vals) == e.of_values(vals)

    def test_detects_single_change(self, engine_cls):
        e = engine_cls()
        vals = [1.0, 2.5, -3.0, 1e9]
        changed = [1.0, 2.5, -3.25, 1e9]
        assert e.of_values(vals) != e.of_values(changed)

    def test_detects_missing_trailing_value(self, engine_cls):
        # the archetypal LP failure: the last store never persisted and
        # recovery reads the initial 0.0 instead
        e = engine_cls()
        vals = [7.0, 8.0, 9.0]
        crashed = [7.0, 8.0, 0.0]
        assert e.of_values(vals) != e.of_values(crashed)

    def test_empty_region_valid(self, engine_cls):
        e = engine_cls()
        assert isinstance(e.of_values([]), int)

    def test_finalize_nonnegative(self, engine_cls):
        e = engine_cls()
        assert e.of_values([-1.0, -2.0]) >= 0

    def test_streaming_matches_batch(self, engine_cls):
        e = engine_cls()
        vals = [3.0, 1.0, 4.0, 1.0, 5.0]
        state = e.reset()
        for v in vals:
            state = e.update(state, v)
        assert e.finalize(state) == e.of_values(vals)


class TestParityWeakness:
    def test_parity_blind_to_cancelling_flips(self):
        """XORing the same mask into two elements is invisible to parity."""
        import struct

        def flip(v, mask):
            bits = struct.unpack("<Q", struct.pack("<d", v))[0]
            return struct.unpack("<d", struct.pack("<Q", bits ^ mask))[0]

        vals = [10.0, 20.0, 30.0]
        corrupted = [flip(vals[0], 0xFF), flip(vals[1], 0xFF), vals[2]]
        assert corrupted != vals
        assert ParityChecksum().of_values(vals) == ParityChecksum().of_values(
            corrupted
        )
        # the modular checksum catches this exact corruption
        assert ModularChecksum().of_values(vals) != ModularChecksum().of_values(
            corrupted
        )

    def test_parallel_catches_what_parity_misses(self):
        import struct

        def flip(v, mask):
            bits = struct.unpack("<Q", struct.pack("<d", v))[0]
            return struct.unpack("<d", struct.pack("<Q", bits ^ mask))[0]

        vals = [10.0, 20.0, 30.0]
        corrupted = [flip(vals[0], 0xF0), flip(vals[1], 0xF0), vals[2]]
        e = ParallelChecksum()
        assert e.of_values(vals) != e.of_values(corrupted)


class TestAdler32:
    def test_matches_zlib_for_byte_stream(self):
        """The Adler-32 engine agrees with zlib on raw bytes."""
        import struct
        import zlib

        e = Adler32Checksum()
        vals = [1.0, -2.0, 3.5]
        raw = b"".join(struct.pack("<d", v) for v in vals)
        assert e.of_values(vals) == zlib.adler32(raw)

    def test_order_sensitive(self):
        e = Adler32Checksum()
        assert e.of_values([1.0, 2.0]) != e.of_values([2.0, 1.0])


class TestCosts:
    def test_relative_costs_match_fig15b_ordering(self):
        # paper Figure 15b: parity 0.1% < modular 0.2% < adler ~1% <
        # parallel (mod+parity) 3.4%
        parity = ParityChecksum().flops_per_update
        modular = ModularChecksum().flops_per_update
        parallel = ParallelChecksum().flops_per_update
        adler = Adler32Checksum().flops_per_update
        assert parity < modular < adler < parallel


class TestRegistry:
    def test_all_registered(self):
        assert available_engines() == ["adler32", "modular", "parallel", "parity"]

    def test_get_engine(self):
        assert isinstance(get_engine("modular"), ModularChecksum)

    def test_unknown_engine(self):
        with pytest.raises(ConfigError):
            get_engine("crc-unobtainium")
