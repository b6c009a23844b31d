"""Recorded op streams: one replay run's ops, flat and integer-coded.

A trigger-free replay run of a stream-safe workload is a pure function
of (workload, config, variant): the functional model's round-robin
schedule is deterministic, every store's value is embedded in the
:class:`~repro.sim.isa.Store` op itself, and loads feed only the
coroutine that issued them.  So the run's global interleaved op order
can be recorded once — :func:`record_stream` drives the workload
coroutines through an ordinary :meth:`Machine.run
<repro.sim.machine.Machine.run>` with a forwarding proxy around each
thread — and kept as data.

The stream format is five parallel numpy arrays (one row per executed
op, in global execution order):

======== ========= ====================================================
array    dtype     meaning
======== ========= ====================================================
code     int8      opcode (:data:`repro.sim.isa.OPCODES`)
cid      int32     issuing core
addr     int64     element address (Load/Store) or line address
                   operand (Flush/FlushWB); 0 otherwise
value    float64   stored value (Store) or flops (Compute); 0 otherwise
aux      int32     index into ``labels`` for RegionMark/Phase labels and
                   Compute kinds; -1 = no label (a Phase pop)
======== ========= ====================================================

:meth:`OpStream.decode` rebuilds the ``(core_id, op)`` pairs, the exact
inverse of :func:`encode_ops`; :func:`save_stream`/:func:`load_stream`
are the on-disk ``.npz`` form.  Streams are cached by
:func:`repro.analysis.runner.cached_op_stream` under a
content-addressed key that includes
:func:`~repro.analysis.runner.code_version`, so editing the simulator
or a workload invalidates every stale stream automatically.
"""

from __future__ import annotations

import json
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.sim.isa import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_FENCE,
    OP_FLUSH,
    OP_FLUSHWB,
    OP_LOAD,
    OP_MARK,
    OP_PHASE,
    OP_STORE,
    OPCODES,
    Barrier,
    Compute,
    Fence,
    Flush,
    FlushWB,
    Load,
    Op,
    Phase,
    RegionMark,
    Store,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.machine import Machine, RunResult

#: Bumped whenever the on-disk stream layout changes.
STREAM_FORMAT_VERSION = 1

#: What ``np.load`` raises, besides ``ValueError``, on a truncated or
#: bit-flipped ``.npz``: zip directory and member-header damage,
#: corrupt deflate data, bad seek offsets, a mangled compression
#: method, a lost member, and an unparseable ``.npy`` header.
_DAMAGED_ARCHIVE = (
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    OSError,
    NotImplementedError,
    KeyError,
    tokenize.TokenError,
)


# ----------------------------------------------------------------------
# encoding / decoding
# ----------------------------------------------------------------------


@dataclass
class OpStream:
    """One run's ops, flat and integer-coded, in global execution order."""

    num_threads: int
    code: "np.ndarray[Any, Any]"
    cid: "np.ndarray[Any, Any]"
    addr: "np.ndarray[Any, Any]"
    value: "np.ndarray[Any, Any]"
    aux: "np.ndarray[Any, Any]"
    labels: List[str]

    def __len__(self) -> int:
        return int(self.code.shape[0])

    def decode(self) -> List[Tuple[int, Op]]:
        """Rebuild ``(core_id, op)`` pairs; exact inverse of encoding.

        Per-op Python, written for tests and offline inspection.
        """
        out: List[Tuple[int, Op]] = []
        labels = self.labels
        code = self.code.tolist()
        cids = self.cid.tolist()
        addrs = self.addr.tolist()
        values = self.value.tolist()
        auxes = self.aux.tolist()
        for i in range(len(code)):
            opc = code[i]
            op: Op
            if opc == OP_LOAD:
                op = Load(addrs[i])
            elif opc == OP_STORE:
                op = Store(addrs[i], values[i])
            elif opc == OP_COMPUTE:
                op = Compute(values[i], labels[auxes[i]])
            elif opc == OP_FLUSH:
                op = Flush(addrs[i])
            elif opc == OP_FLUSHWB:
                op = FlushWB(addrs[i])
            elif opc == OP_FENCE:
                op = Fence()
            elif opc == OP_MARK:
                op = RegionMark(labels[auxes[i]])
            elif opc == OP_PHASE:
                aux = auxes[i]
                op = Phase(labels[aux] if aux >= 0 else None)
            elif opc == OP_BARRIER:
                op = Barrier()
            else:
                raise SimulationError(f"unknown opcode {opc} at row {i}")
            out.append((cids[i], op))
        return out


def encode_ops(
    records: Iterable[Tuple[int, Op]], num_threads: int
) -> OpStream:
    """Flatten ``(core_id, op)`` pairs into an :class:`OpStream`."""
    codes: List[int] = []
    cids: List[int] = []
    addrs: List[int] = []
    values: List[float] = []
    auxes: List[int] = []
    labels: List[str] = []
    label_index: Dict[str, int] = {}

    def intern(label: Optional[str]) -> int:
        if label is None:
            return -1
        idx = label_index.get(label)
        if idx is None:
            idx = len(labels)
            label_index[label] = idx
            labels.append(label)
        return idx

    for cid, op in records:
        opc = OPCODES.get(type(op))
        if opc is None:
            raise SimulationError(f"op {op!r} has no stream opcode")
        addr = 0
        value = 0.0
        aux = -1
        if opc == OP_LOAD:
            addr = op.addr  # type: ignore[union-attr]
        elif opc == OP_STORE:
            addr = op.addr  # type: ignore[union-attr]
            value = op.value  # type: ignore[union-attr]
        elif opc == OP_COMPUTE:
            value = op.flops  # type: ignore[union-attr]
            aux = intern(op.kind)  # type: ignore[union-attr]
        elif opc in (OP_FLUSH, OP_FLUSHWB):
            addr = op.addr  # type: ignore[union-attr]
        elif opc in (OP_MARK, OP_PHASE):
            aux = intern(op.label)  # type: ignore[union-attr]
        codes.append(opc)
        cids.append(cid)
        addrs.append(addr)
        values.append(value)
        auxes.append(aux)

    return OpStream(
        num_threads=num_threads,
        code=np.array(codes, dtype=np.int8),
        cid=np.array(cids, dtype=np.int32),
        addr=np.array(addrs, dtype=np.int64),
        value=np.array(values, dtype=np.float64),
        aux=np.array(auxes, dtype=np.int32),
        labels=labels,
    )


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------


def _recording_gen(
    cid: int,
    gen: Generator[Op, Optional[float], None],
    sink: List[Tuple[int, Op]],
) -> Generator[Op, Optional[float], None]:
    """Forward ``gen`` unchanged while appending each pulled op to
    ``sink`` — the sink ends up in global execution order because the
    scheduler pulls exactly the op it is about to execute."""
    result: Optional[float] = None
    while True:
        try:
            op = gen.send(result)
        except StopIteration:
            return
        sink.append((cid, op))
        result = yield op


def record_stream(
    machine: "Machine",
    threads: Iterable[Generator[Op, Optional[float], None]],
) -> Tuple[OpStream, "RunResult"]:
    """Run ``threads`` on ``machine`` once, recording the globally
    interleaved op order, and encode it as an :class:`OpStream`.

    ``machine`` must be a trigger-free replay machine (the stream
    format bakes in the functional model's deterministic schedule).
    The machine is consumed: its memory holds the run's final state and
    the returned :class:`RunResult` is the run's own, so recording
    costs exactly one ordinary replay run plus the encode pass.
    """
    if not machine.replay:
        raise ConfigError(
            "op streams encode the replay schedule; record on a "
            "Machine(_replay=True)"
        )
    if machine.cleaner is not None:
        raise ConfigError(
            "op-stream recording requires a trigger-free run (no cleaner)"
        )
    sink: List[Tuple[int, Op]] = []
    gens = [
        _recording_gen(cid, gen, sink)
        for cid, gen in enumerate(threads)
    ]
    result = machine.run(gens)
    if result.finished_threads < result.total_threads:
        raise SimulationError(
            f"only {result.finished_threads}/{result.total_threads} "
            "threads finished (deadlocked barrier?); such a run is not "
            "a replayable op stream"
        )
    return encode_ops(sink, len(gens)), result


# ----------------------------------------------------------------------
# on-disk format
# ----------------------------------------------------------------------


def save_stream(stream: OpStream, path: str) -> None:
    """Write a stream as a compressed ``.npz`` (no pickling)."""
    np.savez_compressed(
        path,
        format=np.int64(STREAM_FORMAT_VERSION),
        num_threads=np.int64(stream.num_threads),
        code=stream.code,
        cid=stream.cid,
        addr=stream.addr,
        value=stream.value,
        aux=stream.aux,
        labels=np.array(json.dumps(stream.labels)),
    )


def load_stream(path: str) -> OpStream:
    """Read a stream written by :func:`save_stream`.

    Raises ``ValueError`` on any malformed, damaged or
    version-mismatched file, so cache layers can treat corruption as a
    miss.  A missing file still raises ``FileNotFoundError``.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["format"]) != STREAM_FORMAT_VERSION:
                raise ValueError(
                    f"stream format {int(data['format'])} != "
                    f"{STREAM_FORMAT_VERSION}"
                )
            labels = json.loads(str(data["labels"]))
            if not isinstance(labels, list):
                raise ValueError("malformed label table")
            return OpStream(
                num_threads=int(data["num_threads"]),
                code=data["code"],
                cid=data["cid"],
                addr=data["addr"],
                value=data["value"],
                aux=data["aux"],
                labels=labels,
            )
    except FileNotFoundError:
        raise
    except _DAMAGED_ARCHIVE as exc:
        raise ValueError(f"unreadable op stream {path!r}: {exc}") from None
