"""The MemoryEvent protocol between the semantics and timing layers.

The core's op handlers (:mod:`repro.sim.core`) perform architectural
semantics — value updates, coherence transitions, persist-order hooks —
and describe what happened as a stream of small frozen events.  A
:class:`~repro.sim.timing.CoreTiming` view consumes the stream and is
the only thing that moves the core's clock or charges stalls, which is
what makes timing a pluggable policy (detailed vs functional) over one
shared semantics layer.

Each op emits a fixed event sequence, at the same program points for
every timing model:

========  ======================================================
op        events (in order)
========  ======================================================
Load      hierarchy access, then :class:`LoadCommit`
Store     :class:`StoreReserve`, hierarchy access,
          :class:`StoreCommit`
Compute   :class:`ComputeIssue`
Flush     :class:`FlushReserve`, hierarchy flush,
(clwb)    :class:`FlushCommit`
Fence     :class:`FenceIssue` (a persist tracker, if any, after)
Mark      *(none — region marks are free)*
========  ======================================================

``*Reserve`` events fire *before* the semantic access so a detailed
model can apply structural backpressure first (the access then happens
at the post-stall clock, exactly like the pre-refactor code);
``*Commit`` events carry the access outcome so the model can charge
the latency afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class LoadCommit:
    """A load's hierarchy access finished with this outcome."""

    l1_hit: bool
    #: Cycles beyond the L1-hit issue cost until the data arrived.
    extra_latency: float


@dataclass(frozen=True)
class StoreReserve:
    """A store is about to issue and needs a store-buffer slot."""


@dataclass(frozen=True)
class StoreCommit:
    """A store's value update and ownership acquisition completed."""

    l1_hit: bool
    #: Drain cost of acquiring ownership (charged to the store buffer).
    extra_latency: float


@dataclass(frozen=True)
class ComputeIssue:
    """An arithmetic op issued."""

    flops: int


@dataclass(frozen=True)
class FlushReserve:
    """A clflushopt/clwb is about to issue and needs a flush-queue slot."""


@dataclass(frozen=True)
class FlushCommit:
    """A flush's line reached (or was already clean at) the MC."""

    #: Whether dirty data was actually written to the MC.
    wrote: bool
    #: When the MC accepted the data (== issue time if nothing dirty).
    accept_time: float


@dataclass(frozen=True)
class FenceIssue:
    """An sfence retired; in-flight persistence work must drain."""


MemoryEvent = Union[
    LoadCommit,
    StoreReserve,
    StoreCommit,
    ComputeIssue,
    FlushReserve,
    FlushCommit,
    FenceIssue,
]

#: Terminal events — the ones the functional timing model charges its
#: single cycle to (reserve-phase events are free).  This is the
#: event-level statement of the one-cycle-per-op invariant that
#: ``Machine._run_replay`` inlines: every op except RegionMark, Phase
#: and Barrier emits exactly one of these.
FUNCTIONAL_TICKS = frozenset(
    {LoadCommit, StoreCommit, ComputeIssue, FlushCommit, FenceIssue}
)

#: Reusable instances of the field-less events (one per op is a lot of
#: allocation churn in the hot loop for no information).
STORE_RESERVE = StoreReserve()
FLUSH_RESERVE = FlushReserve()
FENCE_ISSUE = FenceIssue()

#: Hit-path commit outcomes are always identical, so the semantics
#: layer reuses one frozen instance instead of allocating per access —
#: the L1-hit path is by far the most common event in every run.
LOAD_HIT = LoadCommit(l1_hit=True, extra_latency=0.0)
STORE_HIT = StoreCommit(l1_hit=True, extra_latency=0.0)
