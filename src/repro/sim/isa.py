"""Op vocabulary executed by workload coroutines.

Workloads are Python generators that ``yield`` these ops; the machine
executes each op on the issuing core and ``send``s back the result
(the loaded value for :class:`Load`, ``None`` otherwise).  The set maps
onto the paper's x86-64 + PMEM primitives:

===========  ==========================================================
Op           Meaning
===========  ==========================================================
Load         8-byte load
Store        8-byte store
Flush        ``clflushopt``: write the line to the persistence domain
             and invalidate it everywhere; completion is asynchronous
             and ordered only by a following Fence
FlushWB      ``clwb``: write the line back but keep it cached
Fence        ``sfence``: stall until the core's outstanding stores and
             flushes are accepted by the persistence domain
Compute      ``flops`` arithmetic operations (issue-width limited)
RegionMark   zero-cost annotation used by tracing/tests and the crash
             machinery to name persistency-region boundaries
Phase        zero-cost provenance frame: a label pushes one frame on
             the issuing core's phase stack, ``None`` pops — consumed
             only by profiling observers (stall flamegraphs)
===========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class Load:
    addr: int


@dataclass(frozen=True)
class Store:
    addr: int
    value: float


@dataclass(frozen=True)
class Flush:
    """clflushopt: persist + invalidate, asynchronous until a Fence."""

    addr: int


@dataclass(frozen=True)
class FlushWB:
    """clwb: persist but retain the (now clean) line in the caches."""

    addr: int


@dataclass(frozen=True)
class Fence:
    """sfence: drain this core's store buffer and flush queue."""


@dataclass(frozen=True)
class Compute:
    """``flops`` arithmetic ops; ``kind`` is informational."""

    flops: float = 1.0
    kind: str = "int"


@dataclass(frozen=True)
class RegionMark:
    """Named, zero-cost marker (region begin/end) for traces and tests."""

    label: str


@dataclass(frozen=True)
class Phase:
    """Provenance frame delimiter: push ``label`` on the issuing core's
    phase stack, or pop the innermost frame when ``label`` is ``None``.

    Free on every engine (no events, no cycles, no state); workloads
    emit Phases only when provenance tagging is opted into, so untagged
    op streams are byte-identical to pre-provenance runs."""

    label: Optional[str] = None


@dataclass(frozen=True)
class Barrier:
    """Thread barrier: every running thread must reach a Barrier before
    any proceeds; all clocks synchronise to the latest arrival.  Used by
    stage-structured kernels (Cholesky column blocks, FFT stages)."""


Op = Union[
    Load, Store, Flush, FlushWB, Fence, Compute, RegionMark, Phase, Barrier
]


# ----------------------------------------------------------------------
# integer op encoding (the recorded op-stream format)
# ----------------------------------------------------------------------

#: Integer opcodes for the flat recorded op-stream format
#: (:mod:`repro.sim.opstream`).  The numbering is part of the on-disk
#: stream layout: reordering or renumbering it invalidates every cached
#: stream, which is safe only because stream cache keys include
#: :func:`repro.analysis.runner.code_version` (this file is in the
#: versioned subtree), but keep the order stable anyway.
OP_LOAD = 0
OP_STORE = 1
OP_COMPUTE = 2
OP_FLUSH = 3
OP_FLUSHWB = 4
OP_FENCE = 5
OP_MARK = 6
OP_PHASE = 7
OP_BARRIER = 8

#: Op class -> opcode.  Covers the full vocabulary, including the
#: scheduler-level Barrier (the stream records the scheduler's view).
OPCODES = {
    Load: OP_LOAD,
    Store: OP_STORE,
    Compute: OP_COMPUTE,
    Flush: OP_FLUSH,
    FlushWB: OP_FLUSHWB,
    Fence: OP_FENCE,
    RegionMark: OP_MARK,
    Phase: OP_PHASE,
    Barrier: OP_BARRIER,
}
