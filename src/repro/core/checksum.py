"""Error-detection codes for LP regions (paper section III-D).

The paper weighs three codes plus a parallel combination:

* **Parity** — XOR of all values; cheapest, weakest (misses any error
  pattern that XORs to zero, e.g. the same wrong value twice).
* **Modular checksum** — 32-bit modular sum; the paper's default
  (accuracy better than 2e-9 missed-error probability at ~0.2% cost).
* **Adler-32** — the zlib checksum; strong but noticeably costlier.
* **Parallel modular+parity** — both at once for a lower false-negative
  rate at a higher compute cost (Figure 15b).

Engines are *pure*: state in, state out.  Values are hashed by their
IEEE-754 bit pattern, so a checksum recomputed during recovery from
persisted data matches exactly if and only if the data persisted.

Each engine has two forms of one code.  The streaming form
(``reset``/``update``/``finalize``) is the per-store ``UpdateCheckSum``
the kernels call.  The bulk form, :meth:`ChecksumEngine.of_rows`,
checksums every row of a ``(T, n)`` float64 block at once with numpy;
:meth:`ChecksumEngine.of_values` is its one-row case.  The tests pin
the bulk form to the streaming fold, row by row.

``flops_per_update`` is the compute cost a workload charges per
``UpdateCheckSum`` call; the relative costs reproduce the Figure 15b
ordering (parity < modular < parallel < adler).
"""

from __future__ import annotations

import struct
import zlib
from abc import ABC, abstractmethod
from typing import Dict, Type

import numpy as np

from repro.errors import ConfigError

_MASK32 = 0xFFFFFFFF
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_NP_MASK32 = np.uint64(_MASK32)
_NP_SHIFT32 = np.uint64(32)


def value_bits(value: float) -> int:
    """The 64-bit IEEE-754 pattern of a value (ints go through float)."""
    return _U64.unpack(_F64.pack(float(value)))[0]


def _row_bits(block: np.ndarray) -> np.ndarray:
    """A ``(T, n)`` block of values as little-endian uint64 patterns."""
    return np.ascontiguousarray(block, dtype="<f8").view("<u8")


class ChecksumEngine(ABC):
    """A streaming error-detection code over a region's stored values."""

    #: Registry / display name.
    name: str = "abstract"
    #: Arithmetic ops charged per UpdateCheckSum call.
    flops_per_update: float = 1.0
    #: Extra table stores per region commit (1 for single checksums).
    words_per_commit: int = 1

    @abstractmethod
    def reset(self) -> int:
        """Initial accumulator state for a fresh region."""

    @abstractmethod
    def update(self, state: int, value: float) -> int:
        """Fold one stored value into the accumulator."""

    @abstractmethod
    def finalize(self, state: int) -> int:
        """The value written into the checksum table."""

    @abstractmethod
    def of_rows(self, block: np.ndarray) -> np.ndarray:
        """Checksum of each row of a ``(T, n)`` float64 block (uint64)."""

    def of_values(self, values) -> int:
        """Checksum of an iterable of values (recovery-side helper).

        Values convert as ``float()`` converts them, so ``None`` raises
        instead of hashing as NaN.
        """
        row = np.fromiter(map(float, values), dtype=np.float64)
        return int(self.of_rows(row.reshape(1, -1))[0])


class ParityChecksum(ChecksumEngine):
    """XOR of all value bit patterns, folded to 32 bits."""

    name = "parity"
    flops_per_update = 0.5

    def reset(self) -> int:
        return 0

    def update(self, state: int, value: float) -> int:
        return state ^ value_bits(value)

    def finalize(self, state: int) -> int:
        return (state ^ (state >> 32)) & _MASK32

    def of_rows(self, block: np.ndarray) -> np.ndarray:
        folded = np.bitwise_xor.reduce(_row_bits(block), axis=1)
        return (folded ^ (folded >> _NP_SHIFT32)) & _NP_MASK32


class ModularChecksum(ChecksumEngine):
    """32-bit modular sum over the data's 32-bit words (paper default).

    Each 64-bit value contributes both of its 32-bit halves, so a
    change anywhere in the pattern moves the sum (summing only one
    half would be blind to small-integer doubles, whose low mantissa
    words are all zero).
    """

    name = "modular"
    flops_per_update = 1.0

    def reset(self) -> int:
        return 0

    def update(self, state: int, value: float) -> int:
        bits = value_bits(value)
        return (state + (bits & _MASK32) + (bits >> 32)) & _MASK32

    def finalize(self, state: int) -> int:
        return state & _MASK32

    def of_rows(self, block: np.ndarray) -> np.ndarray:
        # the little-endian 32-bit words are each value's low/high halves
        words = _row_bits(block).view("<u4")
        return words.sum(axis=1, dtype=np.uint64) & _NP_MASK32


class Adler32Checksum(ChecksumEngine):
    """Adler-32 over each value's 8 little-endian bytes (zlib's code)."""

    name = "adler32"
    flops_per_update = 5.0

    def reset(self) -> int:
        # state packs (b << 16) | a with a starting at 1: zlib's running value
        return 1

    def update(self, state: int, value: float) -> int:
        return zlib.adler32(_F64.pack(float(value)), state)

    def finalize(self, state: int) -> int:
        return state & _MASK32

    def of_rows(self, block: np.ndarray) -> np.ndarray:
        rows = _row_bits(block)
        return np.fromiter(
            (zlib.adler32(row) for row in rows), dtype=np.uint64, count=len(rows)
        )


class ParallelChecksum(ChecksumEngine):
    """Modular sum and parity computed side by side (Figure 15b).

    The two 32-bit codes are packed into one 64-bit table word; an
    error must collide in both simultaneously to go undetected.

    ``flops_per_update`` is calibrated to Figure 15b, where the paper
    measures the parallel combination as the *costliest* option (3.4%
    vs Adler-32's ~1%): maintaining two accumulators serialises the
    update dependence chain, and the packing/unpacking of the 64-bit
    state adds ALU work beyond the two raw code updates.
    """

    name = "parallel"
    flops_per_update = 8.0
    words_per_commit = 2

    def __init__(self) -> None:
        self._modular = ModularChecksum()
        self._parity = ParityChecksum()

    def reset(self) -> int:
        return 0

    def update(self, state: int, value: float) -> int:
        bits = value_bits(value)
        mod = ((state >> 32) + (bits & _MASK32) + (bits >> 32)) & _MASK32
        # fold parity progressively so intermediate state stays 32-bit
        par = (state ^ bits ^ (bits >> 32)) & _MASK32
        return (mod << 32) | par

    def finalize(self, state: int) -> int:
        return state

    def of_rows(self, block: np.ndarray) -> np.ndarray:
        modular = self._modular.of_rows(block)
        return (modular << _NP_SHIFT32) | self._parity.of_rows(block)


_ENGINES: Dict[str, Type[ChecksumEngine]] = {
    cls.name: cls
    for cls in (ParityChecksum, ModularChecksum, Adler32Checksum, ParallelChecksum)
}


def get_engine(name: str) -> ChecksumEngine:
    """Instantiate a checksum engine by its registry name."""
    try:
        return _ENGINES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown checksum engine {name!r}; "
            f"available: {sorted(_ENGINES)}"
        ) from None


def available_engines() -> list:
    """Sorted names of the registered checksum engines."""
    return sorted(_ENGINES)
