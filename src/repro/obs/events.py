"""Probe-event vocabulary published on the :class:`~repro.obs.bus.ProbeBus`.

Each event names one observable fact about a run, stamped with the
cycle it happened at.  Two layers feed the bus:

* the **semantics layer**: one :class:`OpExecuted` per ISA op a core
  retires (what :class:`~repro.obs.recorder.TraceRecorder` records and
  ``repro.core.idempotence`` analyses), and one :class:`MemEvent` per
  :mod:`repro.sim.events` ``MemoryEvent`` the op narrated to its
  timing view;
* the **timing/accounting layer**: :class:`StallCharged` and
  :class:`HazardHit` mirror exactly the
  :class:`~repro.sim.ledger.LatencyLedger` charges,
  :class:`WritebackAccepted` / :class:`NvmmRead` mirror the memory
  controller's persistence-point traffic, and :class:`CleanerPass`
  fires once per periodic-cleaner pass.

Mirroring is exact by construction — the taps publish from the same
call, with the same operands, as the counter they shadow — which is
what lets ``tests/obs/test_reconcile.py`` demand that event counts sum
*exactly* to the corresponding :class:`~repro.sim.stats.MachineStats`
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.sim.events import MemoryEvent
from repro.sim.isa import Op


@dataclass
class OpExecuted:
    """One ISA op retired on a core.

    ``start``/``end`` are the core's clock before and after the op, so
    ``end - start`` is the op's issue-visible duration (stalls
    included).  ``result`` is the value the machine sent back to the
    workload generator (the loaded value for ``Load``, else ``None``).
    Scheduler-level ``Barrier`` ops never reach a core and are not
    published.
    """

    core_id: int
    op: Op
    result: Optional[float]
    start: float
    end: float


@dataclass
class MemEvent:
    """One :mod:`repro.sim.events` memory event, as presented to the
    core's timing view at ``cycle``."""

    core_id: int
    cycle: float
    event: MemoryEvent


@dataclass
class StallCharged:
    """The timing model charged a front-end stall to ``cause``.

    ``start`` is the clock when the stall began (the core resumes at
    ``start + cycles``); ``lost_slots`` is the issue-slot loss the
    ledger folded into the legacy FUI counter.
    """

    core_id: int
    cause: str
    start: float
    cycles: float
    lost_slots: int


@dataclass
class HazardHit:
    """An op hit a structural hazard (no cycles charged at this point).

    ``cause`` is the ledger's cause name (``mshr_full``,
    ``store_buffer_full``, ``load_pressure``, ...); ``legacy`` is the
    Table VI counter it bumped (``mshr_full_events`` etc., see
    :data:`repro.sim.ledger.EVENT_CAUSES`).
    """

    core_id: int
    cause: str
    legacy: str
    cycle: float


@dataclass
class WritebackAccepted:
    """The MC accepted one dirty line into the persistence domain.

    One event per ``MachineStats.nvmm_writes`` increment, exactly.
    ``queue_delay`` is the backpressure the write felt before
    acceptance (the ledger's ``mc_write_queue`` attribution);
    ``queue_depth`` samples the write-queue occupancy just after
    acceptance; ``volatility`` is the dirty-to-durable window when the
    line's dirty time was known (else ``None``).
    """

    line_addr: int
    cause: str
    core_id: Optional[int]
    issued: float
    accept_time: float
    durable_time: float
    queue_delay: float
    queue_depth: int
    volatility: Optional[float]


@dataclass
class NvmmRead:
    """The MC issued one NVMM line read (an L2 miss fill)."""

    line_addr: int
    issued: float
    data_ready: float


@dataclass
class CleanerPass:
    """The periodic cleaner ran one cleanup pass."""

    cycle: float
    lines_written: int


ProbeEvent = Union[
    OpExecuted,
    MemEvent,
    StallCharged,
    HazardHit,
    WritebackAccepted,
    NvmmRead,
    CleanerPass,
]
