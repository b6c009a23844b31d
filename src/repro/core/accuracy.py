"""Checksum accuracy study (paper section III-D).

The paper injects random errors into matrix elements and asks whether
any injected error produces the *same* checksum as the error-free data
(a false negative: the persistency failure would go undetected).  They
report a missed-error probability below 2e-9 for both the modular and
Adler-32 checksums, with parity noticeably weaker.

Two error models:

* ``"stale"`` — a random subset of elements reverts to earlier values,
  which is exactly what an unpersisted store looks like after a crash;
* ``"paired"`` — two elements receive an *identical* bit-pattern
  corruption.  XOR-based parity is structurally blind to this (the two
  flips cancel), which demonstrates why the paper ranks parity's
  detection accuracy worst.

Checksums are evaluated in bulk: trials are drawn one by one, in the
order the random stream dictates, and copied into two fixed-size blocks
(original and corrupted values) that :meth:`ChecksumEngine.of_rows`
checks a block at a time.  The result is pinned, field for field, to
an unbatched reference loop (``randint`` draws, one ``of_values`` call
per trial) in ``tests/core/test_accuracy.py``, and the bulk checksums
are pinned to the streaming ``update``/``finalize`` fold.  At full size
(``benchmarks/bench_checksum_accuracy.py``) the study takes ~25 s on a
2-vCPU x86-64 host, against 142 s with one checksum call per value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigError
from repro.core.checksum import ChecksumEngine

#: Most values one checksum block holds: a campaign's memory stays
#: bounded whatever its trial count.
_BLOCK_VALUES = 1 << 16

#: Region values are uniform integers in ``[0, _VALUE_LIMIT]``.
_VALUE_LIMIT = 1 << 40


@dataclass
class AccuracyResult:
    """Outcome of an error-injection campaign against one engine."""

    engine: str
    error_model: str
    trials: int
    missed: int
    #: trials where the injected "error" left the data identical (skipped).
    degenerate: int = 0
    examples: List[tuple] = field(default_factory=list)

    @property
    def effective_trials(self) -> int:
        return self.trials - self.degenerate

    @property
    def miss_probability(self) -> float:
        if self.effective_trials == 0:
            return 0.0
        return self.missed / self.effective_trials

    @property
    def miss_probability_upper_bound(self) -> float:
        """95% (rule-of-three) upper bound when no miss was observed."""
        if self.effective_trials == 0:
            return 1.0
        if self.missed == 0:
            return 3.0 / self.effective_trials
        return self.miss_probability


def _uniform_floats(n: int, limit: int, rng: random.Random) -> List[float]:
    """``[float(rng.randint(0, limit)) for _ in range(n)]``, same stream.

    ``randint(0, limit)`` is ``getrandbits(limit.bit_length())`` redrawn
    while the result exceeds ``limit`` (CPython 3.9-3.12); calling
    ``getrandbits`` directly consumes the same words without
    ``randint``'s per-call cost.
    """
    getrandbits = rng.getrandbits
    bits = limit.bit_length()
    values: List[float] = []
    append = values.append
    while n:
        r = getrandbits(bits)
        if r <= limit:
            append(float(r))
            n -= 1
    return values


def _inject_stale(values, rng: random.Random) -> List[float]:
    """Revert a random non-empty subset to stale (earlier) values."""
    corrupted = list(values)
    k = rng.randint(1, max(1, len(values) // 4))
    positions = rng.sample(range(len(values)), k)
    # the "previous" values a crash would expose: older accumulations
    for idx, stale in zip(positions, _uniform_floats(k, 1 << 30, rng)):
        corrupted[idx] = stale
    return corrupted


def _inject_paired(values, rng: random.Random) -> List[float]:
    """XOR the same bit mask into two distinct elements' patterns.

    The two flips cancel in an XOR parity, so parity can never detect
    this class of error; sum-based codes almost always do.
    """
    import struct

    if len(values) < 2:
        raise ConfigError("paired injection needs at least 2 elements")
    corrupted = list(values)
    i, j = rng.sample(range(len(values)), 2)
    # flip low-mantissa bits only, so values stay finite and comparable
    mask = rng.randint(1, (1 << 30) - 1)
    for idx in (i, j):
        bits = struct.unpack("<Q", struct.pack("<d", corrupted[idx]))[0]
        corrupted[idx] = struct.unpack("<d", struct.pack("<Q", bits ^ mask))[0]
    return corrupted


_MODELS = {"stale": _inject_stale, "paired": _inject_paired}


def run_error_injection(
    engine: ChecksumEngine,
    *,
    region_size: int = 256,
    trials: int = 10_000,
    error_model: str = "stale",
    seed: int = 0,
) -> AccuracyResult:
    """Measure the engine's missed-error rate under an error model.

    Each trial builds a fresh region of random values, corrupts a copy,
    and counts a miss when the corrupted data checksums to the same
    value as the original (while actually differing).
    """
    if error_model not in _MODELS:
        raise ConfigError(
            f"unknown error model {error_model!r}; choose from {sorted(_MODELS)}"
        )
    if region_size < 1:
        raise ConfigError(f"region_size must be at least 1, got {region_size}")
    if trials < 0:
        raise ConfigError(f"trials must be non-negative, got {trials}")
    inject = _MODELS[error_model]
    rng = random.Random(seed)
    result = AccuracyResult(
        engine=engine.name, error_model=error_model, trials=trials, missed=0
    )
    rows = max(1, min(trials, _BLOCK_VALUES // region_size))
    original = np.empty((rows, region_size))
    corrupted_rows = np.empty((rows, region_size))

    def check(filled: int) -> None:
        same = engine.of_rows(original[:filled]) == engine.of_rows(
            corrupted_rows[:filled]
        )
        missed = np.flatnonzero(same)
        result.missed += len(missed)
        for row in missed[: 4 - len(result.examples)]:
            result.examples.append(
                (tuple(original[row].tolist()), tuple(corrupted_rows[row].tolist()))
            )

    filled = 0
    for _ in range(trials):
        values = _uniform_floats(region_size, _VALUE_LIMIT, rng)
        corrupted = inject(values, rng)
        if corrupted == values:
            result.degenerate += 1
            continue
        original[filled] = values
        corrupted_rows[filled] = corrupted
        filled += 1
        if filled == rows:
            check(filled)
            filled = 0
    if filled:
        check(filled)
    return result
