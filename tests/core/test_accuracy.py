"""Unit tests for the section III-D checksum accuracy study."""

import random
import struct
import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.core import accuracy
from repro.core.accuracy import AccuracyResult, run_error_injection
from repro.core.checksum import (
    Adler32Checksum,
    ModularChecksum,
    ParallelChecksum,
    ParityChecksum,
    available_engines,
    get_engine,
)


class TestStaleModel:
    @pytest.mark.parametrize(
        "engine_cls", [ModularChecksum, Adler32Checksum, ParallelChecksum]
    )
    def test_strong_engines_miss_nothing(self, engine_cls):
        res = run_error_injection(
            engine_cls(), region_size=64, trials=2000, error_model="stale", seed=1
        )
        assert res.missed == 0
        assert res.miss_probability == 0.0
        assert res.miss_probability_upper_bound <= 3.0 / 1000

    def test_result_bookkeeping(self):
        res = run_error_injection(
            ModularChecksum(), region_size=16, trials=100, seed=2
        )
        assert res.trials == 100
        assert res.engine == "modular"
        assert res.error_model == "stale"
        assert 0 <= res.degenerate <= 100


class TestPairedModel:
    def test_parity_misses_everything(self):
        res = run_error_injection(
            ParityChecksum(),
            region_size=32,
            trials=500,
            error_model="paired",
            seed=3,
        )
        # XOR parity is structurally blind to paired identical flips
        assert res.miss_probability == 1.0

    def test_modular_catches_paired_flips(self):
        res = run_error_injection(
            ModularChecksum(),
            region_size=32,
            trials=500,
            error_model="paired",
            seed=3,
        )
        assert res.miss_probability < 0.01

    def test_parallel_catches_paired_flips(self):
        res = run_error_injection(
            ParallelChecksum(),
            region_size=32,
            trials=500,
            error_model="paired",
            seed=3,
        )
        assert res.miss_probability < 0.01


class TestValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            run_error_injection(ModularChecksum(), error_model="cosmic-rays")

    def test_empty_region_rejected(self):
        with pytest.raises(ConfigError):
            run_error_injection(ModularChecksum(), region_size=0, trials=10)

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigError):
            run_error_injection(ModularChecksum(), region_size=8, trials=-3)

    def test_zero_trials_is_an_empty_campaign(self):
        res = run_error_injection(ModularChecksum(), region_size=8, trials=0)
        assert (res.trials, res.missed, res.degenerate) == (0, 0, 0)

    def test_deterministic_given_seed(self):
        a = run_error_injection(ParityChecksum(), trials=200, seed=7)
        b = run_error_injection(ParityChecksum(), trials=200, seed=7)
        assert (a.missed, a.degenerate) == (b.missed, b.degenerate)


# -- the unbatched reference the bulk campaign is pinned to -----------------


def _reference_stale(values, rng):
    corrupted = list(values)
    k = rng.randint(1, max(1, len(values) // 4))
    for idx in rng.sample(range(len(values)), k):
        corrupted[idx] = float(rng.randint(0, 1 << 30))
    return corrupted


def _reference_paired(values, rng):
    corrupted = list(values)
    i, j = rng.sample(range(len(values)), 2)
    mask = rng.randint(1, (1 << 30) - 1)
    for idx in (i, j):
        bits = struct.unpack("<Q", struct.pack("<d", corrupted[idx]))[0]
        corrupted[idx] = struct.unpack("<d", struct.pack("<Q", bits ^ mask))[0]
    return corrupted


def _reference_campaign(engine, *, region_size, trials, error_model, seed):
    """One trial at a time: ``randint`` draws, one checksum per region."""
    inject = {"stale": _reference_stale, "paired": _reference_paired}[error_model]
    rng = random.Random(seed)
    result = AccuracyResult(
        engine=engine.name, error_model=error_model, trials=trials, missed=0
    )
    for _ in range(trials):
        values = [float(rng.randint(0, 1 << 40)) for _ in range(region_size)]
        reference = engine.of_values(values)
        corrupted = inject(values, rng)
        if corrupted == values:
            result.degenerate += 1
            continue
        if engine.of_values(corrupted) == reference:
            result.missed += 1
            if len(result.examples) < 4:
                result.examples.append((tuple(values), tuple(corrupted)))
    return result


class _Scripted(random.Random):
    """A generator whose ``getrandbits`` replays a fixed script."""

    def __init__(self, script):
        super().__init__(0)
        self.script = iter(script)

    def getrandbits(self, k):
        return next(self.script)


def test_uniform_draw_rejects_exactly_what_randint_rejects():
    limit = 1 << 40
    script = [limit, limit + 1, 0, (1 << 41) - 1, 7, limit]
    want_rng, got_rng = _Scripted(script), _Scripted(script)
    want = [float(want_rng.randint(0, limit)) for _ in range(4)]
    assert accuracy._uniform_floats(4, limit, got_rng) == want == [limit, 0, 7, limit]
    assert list(got_rng.script) == list(want_rng.script) == []


CAMPAIGNS = [
    (model, size)
    for model in ("stale", "paired")
    for size in (1, 2, 7, 64)
    if not (model == "paired" and size == 1)
]


class TestMatchesReference:
    """The bulk campaign equals the unbatched loop, field for field."""

    @pytest.mark.parametrize("engine", available_engines())
    @pytest.mark.parametrize("error_model,region_size", CAMPAIGNS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_blocks(self, monkeypatch, engine, error_model, region_size, seed):
        # 128-value blocks hold 128/64/18/2 trials at sizes 1/2/7/64, so
        # 301 trials leave a partial last block at every size; parity
        # misses every paired flip, so at size 64 its four examples span
        # two blocks
        monkeypatch.setattr(accuracy, "_BLOCK_VALUES", 128)
        kwargs = dict(
            region_size=region_size, trials=301, error_model=error_model, seed=seed
        )
        got = run_error_injection(get_engine(engine), **kwargs)
        assert got == _reference_campaign(get_engine(engine), **kwargs)

    @pytest.mark.parametrize("engine", ["parity", "modular"])
    def test_real_block_size(self, engine):
        # 1024 trials of 64 values fill one block; parity misses every
        # paired flip, so its examples come from the first block
        kwargs = dict(region_size=64, trials=1030, error_model="paired", seed=5)
        got = run_error_injection(get_engine(engine), **kwargs)
        assert got == _reference_campaign(get_engine(engine), **kwargs)


def test_campaign_memory_is_bounded():
    """Blocks are reused, so memory does not grow with the trial count:
    2,000 trials of 128 values are four blocks' worth."""
    tracemalloc.start()
    try:
        run_error_injection(ModularChecksum(), region_size=128, trials=2000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024, peak
