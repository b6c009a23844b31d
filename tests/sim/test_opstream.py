"""Op-stream recording pins: encode/decode round-trips, the recording
guards and the stream cache.

Encoding must be lossless: ``decode(encode(ops))`` reproduces the
recorded ``(core_id, op)`` sequence exactly, for every registry
workload x variant x seed.  The on-disk ``.npz`` form and the
content-addressed stream cache get the same treatment: corrupt,
damaged or version-mismatched blobs must read as misses, never as
wrong streams or as errors.  That recording is an unmodified replay
run, and that a recorded stream replays exactly, is pinned in
``tests/verify/test_stream_equivalence.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runner import ResultCache, cached_op_stream
from repro.errors import ConfigError
from repro.sim.cleaner import PeriodicCleaner
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.opstream import (
    STREAM_FORMAT_VERSION,
    encode_ops,
    load_stream,
    record_stream,
    save_stream,
)
from repro.workloads.registry import get_workload

from tests.verify.test_stream_equivalence import replay_threads

#: Tiny but structurally complete sizes: every variant still runs its
#: full code path (regions, checksums, recovery metadata, barriers).
TINY_SPECS = {
    "tmm": dict(n=16, bsize=8),
    "cholesky": dict(n=16, col_block=8),
    "conv2d": dict(n=10, ksize=3, row_block=4),
    "gauss": dict(n=16, row_block=8, pivots=2),
    "fft": dict(n=64),
}

#: Every registry (workload, performance-variant) pair.
POINTS = [
    (name, variant)
    for name in TINY_SPECS
    for variant in get_workload(name)(**TINY_SPECS[name]).variants
]


def make_workload(name, seed):
    return get_workload(name)(**TINY_SPECS[name], seed=seed)


def replay_machine(num_threads):
    return Machine(MachineConfig(num_cores=num_threads + 1), _replay=True)


def _flip(data, start, count):
    """``data`` with ``count`` bytes from ``start`` bit-inverted."""
    flipped = bytes(b ^ 0xFF for b in data[start:start + count])
    return data[:start] + flipped + data[start + count:]


def record_raw(workload, variant, num_threads):
    """The raw ``(core_id, op)`` execution order, recorded with a local
    proxy (independent of record_stream's internals)."""
    machine = replay_machine(num_threads)
    bound = workload.bind(machine, num_threads=num_threads)
    sink = []

    def proxy(cid, gen):
        result = None
        while True:
            try:
                op = gen.send(result)
            except StopIteration:
                return
            sink.append((cid, op))
            result = yield op

    machine.run(
        [proxy(cid, g) for cid, g in enumerate(bound.threads(variant))]
    )
    return sink


@settings(max_examples=20, deadline=None)
@given(
    point=st.sampled_from(POINTS),
    seed=st.integers(min_value=0, max_value=7),
    num_threads=st.sampled_from([1, 2, 4]),
)
def test_decode_encode_round_trip(point, seed, num_threads):
    """decode(encode(ops)) is the identity on every recorded run."""
    name, variant = point
    workload = make_workload(name, seed)
    machine = replay_machine(num_threads)
    bound = workload.bind(machine, num_threads=num_threads)
    stream, _ = record_stream(machine, bound.threads(variant))

    ops = stream.decode()
    assert ops == record_raw(make_workload(name, seed), variant, num_threads)

    restream = encode_ops(ops, stream.num_threads)
    for field in ("code", "cid", "addr", "value", "aux"):
        assert np.array_equal(
            getattr(stream, field), getattr(restream, field)
        ), field
    assert stream.labels == restream.labels
    assert restream.decode() == ops


def test_save_load_round_trip(tmp_path):
    workload = make_workload("tmm", 3)
    machine = replay_machine(2)
    bound = workload.bind(machine, num_threads=2)
    stream, _ = record_stream(machine, bound.threads("lp"))

    path = str(tmp_path / "stream.npz")
    save_stream(stream, path)
    loaded = load_stream(path)
    assert loaded.num_threads == stream.num_threads
    assert loaded.labels == stream.labels
    for field in ("code", "cid", "addr", "value", "aux"):
        assert np.array_equal(getattr(stream, field), getattr(loaded, field))
    assert loaded.decode() == stream.decode()


def test_load_rejects_version_mismatch(tmp_path):
    workload = make_workload("tmm", 0)
    machine = replay_machine(1)
    bound = workload.bind(machine, num_threads=1)
    stream, _ = record_stream(machine, bound.threads("base"))
    path = str(tmp_path / "stream.npz")
    save_stream(stream, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    arrays["format"] = np.int64(STREAM_FORMAT_VERSION + 1)
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError):
        load_stream(path)


def test_damage_anywhere_in_a_blob_reads_as_value_error(tmp_path):
    """Flip bytes across the whole archive: each damaged blob either
    still loads the identical stream (the flip hit zip metadata the
    reader ignores) or raises ValueError, never another exception."""
    workload = get_workload("tmm")(n=8, bsize=4, kk_tiles=1)
    machine = replay_machine(1)
    bound = workload.bind(machine, num_threads=1)
    stream, _ = record_stream(machine, bound.threads("lp"))
    path = str(tmp_path / "stream.npz")
    save_stream(stream, path)
    with open(path, "rb") as fh:
        data = fh.read()

    for offset in range(0, len(data), 5):
        with open(path, "wb") as fh:
            fh.write(_flip(data, offset, 8))
        try:
            loaded = load_stream(path)
        except ValueError:
            continue
        assert loaded.labels == stream.labels
        for field in ("code", "cid", "addr", "value", "aux"):
            assert np.array_equal(getattr(loaded, field), getattr(stream, field))


def test_record_refuses_full_machine():
    workload = make_workload("tmm", 0)
    machine = Machine(MachineConfig(num_cores=2))  # not a replay machine
    bound = workload.bind(machine, num_threads=1)
    with pytest.raises(ConfigError):
        record_stream(machine, bound.threads("base"))


def test_record_refuses_machine_with_cleaner():
    # A cleaner changes what the run does beyond its ops, so such a
    # run is not a replayable transcript.
    workload = make_workload("tmm", 0)
    machine = replay_machine(1)
    machine.cleaner = PeriodicCleaner(100.0)
    bound = workload.bind(machine, num_threads=1)
    with pytest.raises(ConfigError):
        record_stream(machine, bound.threads("base"))
    assert machine.stats.per_core[0].ops == 0  # refused before running


def test_execute_refuses_too_few_cores():
    # A recorded stream replays one core per recorded thread; a
    # machine with fewer cores refuses its decoded ops up front.
    workload = make_workload("tmm", 0)
    machine = replay_machine(2)
    bound = workload.bind(machine, num_threads=2)
    stream, _ = record_stream(machine, bound.threads("base"))
    small = Machine(MachineConfig(num_cores=1), _replay=True)
    with pytest.raises(ConfigError):
        small.run(replay_threads(stream))


#: Ways a cached blob can be damaged on disk beyond not being an
#: archive at all, each applied to the blob's bytes.  Every one must
#: read as a corrupt miss.
DAMAGE = {
    "cut_to_10_bytes": lambda data: data[:10],
    "cut_to_half": lambda data: data[: len(data) // 2],
    "all_but_5_bytes": lambda data: data[:-5],
    "64_bytes_flipped": lambda data: _flip(data, len(data) // 2, 64),
}


def _check_damaged_blob_is_replaced(tmp_path, damage):
    workload = make_workload("tmm", 1)
    config = MachineConfig(num_cores=3)
    cache = ResultCache(str(tmp_path))

    first = cached_op_stream(workload, config, "lp", num_threads=2,
                             cache=cache)
    assert cache.stats.misses == 1 and cache.stats.stores == 1
    again = cached_op_stream(workload, config, "lp", num_threads=2,
                             cache=cache)
    assert cache.stats.hits == 1
    assert np.array_equal(first.code, again.code)
    assert first.decode() == again.decode()

    # Damage the blob in place: next lookup is a miss + re-record.
    from repro.analysis.runner import stream_cache_key

    key = stream_cache_key(workload, config, "lp", 2, "modular")
    path = cache._blob_path(key)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(damage(data))
    with pytest.raises(ValueError):
        load_stream(path)
    refreshed = cached_op_stream(workload, config, "lp", num_threads=2,
                                 cache=cache)
    assert cache.stats.corrupt == 1
    assert cache.stats.stores == 2  # the damaged blob was replaced
    assert np.array_equal(first.code, refreshed.code)
    # ... so the point is served from the cache again, not re-damaged.
    cached_op_stream(workload, config, "lp", num_threads=2, cache=cache)
    assert cache.stats.hits == 2


def test_cached_op_stream_hits_and_survives_corruption(tmp_path):
    _check_damaged_blob_is_replaced(tmp_path, lambda data: b"not an npz")


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_cached_op_stream_survives_damaged_archive(tmp_path, damage):
    _check_damaged_blob_is_replaced(tmp_path, DAMAGE[damage])


def test_cached_op_stream_refuses_stream_unsafe_workloads(tmp_path):
    workload = make_workload("tmm", 0)
    workload.stream_safe = False
    with pytest.raises(ConfigError):
        cached_op_stream(
            workload, MachineConfig(num_cores=2), "base", num_threads=1,
            cache=ResultCache(str(tmp_path)),
        )


@pytest.mark.parametrize(
    "name,params",
    [
        ("log", {"records": 4, "width": 2, "wb_batch": 2}),
        ("hashmap", {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2}),
    ],
)
def test_region_workloads_bypass_the_stream_cache(tmp_path, name, params):
    # The storage family's region bodies are value-dependent (hashmap
    # probe loops), so the class itself opts out of pre-decoded replay:
    # the stream cache refuses it, and the ordinary generator path
    # stays the (correct) fallback.
    from repro.analysis.experiments import run_variant
    from repro.sim.config import tiny_machine
    from repro.workloads import get_workload

    workload = get_workload(name)(**params)
    assert workload.stream_safe is False
    cache = ResultCache(str(tmp_path))
    with pytest.raises(ConfigError):
        cached_op_stream(
            workload, tiny_machine(), "lp", num_threads=2, cache=cache
        )
    # Refusal must happen before anything is recorded or stored.
    assert cache.stats.stores == 0

    result = run_variant(workload, tiny_machine(), "lp", num_threads=2)
    assert result.verified
