"""Bit-identical pins for recorded op streams.

A recorded stream (:mod:`repro.sim.opstream`) is a faithful transcript
of a replay run only if

* recording is itself an unmodified replay run: ``record_stream``
  leaves its machine and :class:`RunResult` exactly as a plain
  ``Machine(_replay=True).run`` of the same point does, and
* feeding the decoded per-core ops back to :meth:`Machine.run
  <repro.sim.machine.Machine.run>` on a freshly bound machine lands
  exactly where driving the original coroutines does.

The generator replay loop is itself pinned against the general heap
scheduler by ``test_timing_equivalence.py``.  For every workload x
base/lp/ep this compares, exactly:

* final architectural and persistent memory maps,
* every per-core :class:`CoreStats` field and every core clock,
* the :class:`MachineStats` summary (so ``nvmm_writes`` et al. stay
  zero on both replay paths),
* every :class:`RunResult` field.

The persistency-model axis rides the same harness: every enumerable
model (:mod:`repro.sim.model`) must keep the three runs bit-identical
— eADR-class models persist at store time through the one
``MemoryState.store`` entry point, which every replayed store reaches.
A Hypothesis property extends the pin to arbitrary op soups and to the
``decode(encode())`` round-trip.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.config import MachineConfig
from repro.sim.isa import Compute, Fence, Flush, FlushWB, Load, Phase, RegionMark, Store
from repro.sim.machine import Machine
from repro.sim.model import enumerable_model_names
from repro.sim.opstream import encode_ops, record_stream
from repro.workloads.registry import get_workload

SPECS = {
    "tmm": dict(n=24, bsize=8),
    "cholesky": dict(n=24, col_block=8),
    "conv2d": dict(n=18, ksize=3, row_block=8),
    "gauss": dict(n=24, row_block=8, pivots=4),
    "fft": dict(n=256),
}
VARIANTS = ("base", "lp", "ep")
NUM_THREADS = 4
CONFIG = MachineConfig(num_cores=NUM_THREADS + 1)

RESULT_FIELDS = (
    "crashed",
    "ops_executed",
    "region_marks",
    "finished_threads",
    "total_threads",
    "flush_ops",
)


def _ops(ops):
    for op in ops:
        yield op


def replay_threads(stream):
    """A recorded stream's decoded ops as one generator per core, in
    each core's program order — what :meth:`Machine.run` consumes."""
    per_core = [[] for _ in range(stream.num_threads)]
    for cid, op in stream.decode():
        per_core[cid].append(op)
    return [_ops(ops) for ops in per_core]


def bound_point(name, model="adr"):
    machine = Machine(CONFIG.with_model(model), _replay=True)
    bound = get_workload(name)(**SPECS[name]).bind(
        machine, num_threads=NUM_THREADS
    )
    return machine, bound


def assert_machines_identical(m_stream, m_gen, r_stream, r_gen):
    assert m_stream.mem.arch == m_gen.mem.arch
    assert m_stream.mem.persistent == m_gen.mem.persistent
    assert r_stream.stats.summary() == r_gen.stats.summary()
    for cid in range(len(m_gen.stats.per_core)):
        assert vars(r_stream.stats.per_core[cid]) == vars(
            r_gen.stats.per_core[cid]
        ), f"core {cid} stats"
        assert m_stream.cores[cid].clock == m_gen.cores[cid].clock, (
            f"core {cid} clock"
        )
    for field in RESULT_FIELDS:
        assert getattr(r_stream, field) == getattr(r_gen, field), field


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_stream_matches_generator_replay(name, variant):
    m_rec, b_rec = bound_point(name)
    stream, r_rec = record_stream(m_rec, b_rec.threads(variant))
    assert len(stream) == r_rec.ops_executed

    m_gen, b_gen = bound_point(name)
    r_gen = m_gen.run(b_gen.threads(variant))
    assert b_gen.verify()

    m_stream, b_stream = bound_point(name)
    r_stream = m_stream.run(replay_threads(stream))
    assert b_stream.verify()

    assert_machines_identical(m_stream, m_gen, r_stream, r_gen)
    # the recording pass is itself an unmodified replay run
    assert_machines_identical(m_rec, m_gen, r_rec, r_gen)


def test_reexecution_is_stable():
    """Decoding shares no state between replays of one stream."""
    m_rec, b_rec = bound_point("tmm")
    stream, _ = record_stream(m_rec, b_rec.threads("lp"))

    m1, _ = bound_point("tmm")
    r1 = m1.run(replay_threads(stream))
    m2, _ = bound_point("tmm")
    r2 = m2.run(replay_threads(stream))

    assert_machines_identical(m2, m1, r2, r1)


def test_wal_variant_streams_exactly():
    """tmm's WAL variant (undo logging, extra flush traffic) too."""
    m_rec, b_rec = bound_point("tmm")
    stream, r_rec = record_stream(m_rec, b_rec.threads("wal"))
    m_gen, b_gen = bound_point("tmm")
    r_gen = m_gen.run(b_gen.threads("wal"))
    m_stream, _ = bound_point("tmm")
    r_stream = m_stream.run(replay_threads(stream))
    assert_machines_identical(m_stream, m_gen, r_stream, r_gen)
    assert_machines_identical(m_rec, m_gen, r_rec, r_gen)


# ----------------------------------------------------------------------
# the persistency-model axis
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", [m for m in enumerable_model_names() if m != "adr"])
@pytest.mark.parametrize("variant", ("lp", "ep"))
def test_stream_matches_generator_replay_per_model(model, variant):
    """Every enumerable model keeps recording, replaying the recorded
    stream and the generator run bit-identical — in particular
    eADR/strict's store-time persistence."""
    m_rec, b_rec = bound_point("tmm", model)
    stream, r_rec = record_stream(m_rec, b_rec.threads(variant))

    m_gen, b_gen = bound_point("tmm", model)
    r_gen = m_gen.run(b_gen.threads(variant))

    m_stream, _ = bound_point("tmm", model)
    r_stream = m_stream.run(replay_threads(stream))

    assert_machines_identical(m_stream, m_gen, r_stream, r_gen)
    assert_machines_identical(m_rec, m_gen, r_rec, r_gen)


def test_store_time_persistence_reaches_the_stream_image():
    """Under eADR a replayed stream's persistent map must match the
    generator run's address-for-address (last-wins on every line, not
    just verified output regions)."""
    m_gen, b_gen = bound_point("tmm", "eadr")
    m_gen.run(b_gen.threads("base"))
    m_rec, b_rec = bound_point("tmm", "eadr")
    stream, _ = record_stream(m_rec, b_rec.threads("base"))
    m_stream, _ = bound_point("tmm", "eadr")
    m_stream.run(replay_threads(stream))
    assert m_stream.mem.persistent == m_gen.mem.persistent
    assert m_gen.mem.persistent  # non-vacuous: stores did persist


# ----------------------------------------------------------------------
# property pins (Hypothesis)
# ----------------------------------------------------------------------

NUM_ELEMS = 16

op_strategy = st.tuples(
    st.sampled_from(["load", "store", "compute", "flush", "flushwb",
                     "fence", "mark", "phase"]),
    st.integers(min_value=0, max_value=NUM_ELEMS - 1),
    st.integers(min_value=1, max_value=100),
)
scripts = st.lists(
    st.lists(op_strategy, min_size=1, max_size=20),
    min_size=1,
    max_size=3,
)


def _script_ops(region, script):
    for kind, idx, value in script:
        addr = region.addr(idx)
        if kind == "load":
            yield Load(addr)
        elif kind == "store":
            yield Store(addr, float(value))
        elif kind == "compute":
            yield Compute(value, "work")
        elif kind == "flush":
            yield Flush(addr)
        elif kind == "flushwb":
            yield FlushWB(addr)
        elif kind == "fence":
            yield Fence()
        elif kind == "mark":
            yield RegionMark(f"m{value % 3}")
        else:
            yield Phase(f"p{value % 3}" if value % 2 else None)


@given(scripts)
@settings(max_examples=40, deadline=None)
def test_decode_is_the_exact_inverse_of_encode(script_set):
    """decode(encode(records)) == records for arbitrary op soups."""
    records = []
    for cid, script in enumerate(script_set):
        for op in _script_ops(_RoundTripRegion(), script):
            records.append((cid, op))
    stream = encode_ops(records, num_threads=len(script_set))
    assert stream.decode() == records


class _RoundTripRegion:
    """Address helper for the round-trip test (no machine needed)."""

    def addr(self, idx):
        return 1024 + idx * 8


@pytest.mark.parametrize("model", ("adr", "eadr", "epoch"))
@given(scripts)
@settings(max_examples=25, deadline=None)
def test_random_scripts_stream_identically_per_model(model, script_set):
    """Recorded random scripts are unmodified replay runs and replay
    bit-identically from the stream under every model class (baseline,
    store-time persistence, epoch ordering)."""

    def fresh():
        machine = Machine(
            MachineConfig(num_cores=len(script_set)).with_model(model),
            _replay=True,
        )
        region = machine.alloc("a", NUM_ELEMS)
        return machine, region

    m_rec, r_rec_region = fresh()
    stream, r_rec = record_stream(
        m_rec, [_script_ops(r_rec_region, s) for s in script_set]
    )

    m_gen, r_gen_region = fresh()
    r_gen = m_gen.run([_script_ops(r_gen_region, s) for s in script_set])

    m_stream, _ = fresh()
    r_stream = m_stream.run(replay_threads(stream))

    assert_machines_identical(m_stream, m_gen, r_stream, r_gen)
    assert_machines_identical(m_rec, m_gen, r_rec, r_gen)
