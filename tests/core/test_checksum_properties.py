"""Property-based tests for the checksum engines."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.checksum import (
    Adler32Checksum,
    ModularChecksum,
    ParallelChecksum,
    ParityChecksum,
)

reasonable_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e12, max_value=1e12,
)
value_lists = st.lists(reasonable_floats, min_size=1, max_size=40)

ENGINES = [ParityChecksum, ModularChecksum, Adler32Checksum, ParallelChecksum]


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Any 64-bit pattern (NaN payloads included), the named special values,
# and Python ints, which hash as float() of themselves.
any_values = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1).map(_from_bits),
    st.sampled_from(
        [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324]
    ),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
)
value_blocks = st.integers(min_value=0, max_value=9).flatmap(
    lambda width: st.lists(
        st.lists(any_values, min_size=width, max_size=width),
        min_size=1,
        max_size=6,
    )
)


@given(value_lists, st.integers(min_value=0, max_value=39), reasonable_floats)
@settings(max_examples=120, deadline=None)
def test_single_substitution_detected(values, index, replacement):
    """Any single changed value changes every engine's checksum —
    unless the replacement has the identical bit pattern."""
    index %= len(values)
    original_bits = struct.pack("<d", values[index])
    if struct.pack("<d", replacement) == original_bits:
        return
    corrupted = list(values)
    corrupted[index] = replacement
    for engine_cls in ENGINES:
        e = engine_cls()
        assert e.of_values(values) != e.of_values(corrupted), engine_cls.name


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_streaming_equals_batch(values):
    for engine_cls in ENGINES:
        e = engine_cls()
        state = e.reset()
        for v in values:
            state = e.update(state, v)
        assert e.finalize(state) == e.of_values(values)


@given(value_blocks)
@example([[]])
@example([[_from_bits(0x7FF0_0000_0000_0001)]])
@example([[-0.0], [0.0]])
@settings(max_examples=150, deadline=None)
def test_bulk_rows_equal_streaming_fold(rows):
    """``of_rows`` checksums each row exactly as the per-store
    ``update``/``finalize`` fold does, and ``of_values`` is its
    one-row case."""
    block = np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
    assert block.shape == (len(rows), len(rows[0]))
    for engine_cls in ENGINES:
        e = engine_cls()
        bulk = e.of_rows(block)
        assert bulk.dtype == np.uint64 and bulk.shape == (len(rows),)
        for row, got in zip(rows, bulk):
            state = e.reset()
            for v in row:
                state = e.update(state, v)
            assert int(got) == e.finalize(state), engine_cls.name
            assert e.of_values(row) == int(got), engine_cls.name


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_none_is_not_a_value(engine_cls):
    """Values convert as ``float()`` does: ``None`` raises, it does not
    hash as NaN."""
    with pytest.raises(TypeError):
        engine_cls().of_values([None])
    with pytest.raises(TypeError):
        engine_cls().of_values([1.0, None, 2.0])


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_adler_matches_zlib(values):
    raw = b"".join(struct.pack("<d", v) for v in values)
    assert Adler32Checksum().of_values(values) == zlib.adler32(raw)


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_truncation_detected(values):
    """Losing the tail of a region (the classic crash pattern where the
    last stores never persisted and read back as 0.0) is detected."""
    truncated = values[:-1] + [0.0]
    if truncated == values:
        return
    for engine_cls in ENGINES:
        e = engine_cls()
        assert e.of_values(values) != e.of_values(truncated), engine_cls.name


@given(value_lists)
@settings(max_examples=80, deadline=None)
def test_parallel_at_least_as_strong_as_parts(values):
    """If either the modular or parity component would detect a change,
    so does the parallel combination (its word embeds both)."""
    corrupted = [v + 1.0 for v in values]
    mod_detects = ModularChecksum().of_values(
        values
    ) != ModularChecksum().of_values(corrupted)
    par_detects = ParityChecksum().of_values(
        values
    ) != ParityChecksum().of_values(corrupted)
    combo_detects = ParallelChecksum().of_values(
        values
    ) != ParallelChecksum().of_values(corrupted)
    if mod_detects or par_detects:
        assert combo_detects


@given(value_lists)
@settings(max_examples=60, deadline=None)
def test_finalize_ranges(values):
    """Single codes fit 32 bits; the parallel combination fits 64."""
    for engine_cls in (ParityChecksum, ModularChecksum, Adler32Checksum):
        ck = engine_cls().of_values(values)
        assert 0 <= ck < (1 << 32)
    ck = ParallelChecksum().of_values(values)
    assert 0 <= ck < (1 << 64)
