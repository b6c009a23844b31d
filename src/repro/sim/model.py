"""Pluggable persistency models: who owns the persistence domain.

The paper evaluates Lazy vs Eager Persistency under one platform
assumption — ADR, where the MC write queue is the persistence domain —
and the simulator used to hard-code that assumption across
:mod:`~repro.sim.nvmm`, :mod:`~repro.sim.persist`, and the cache
hierarchy as an ``adr: bool`` plus implicit rules.  This module makes
the model an explicit, named object that every consumer reads instead:

* **adr** — the paper's platform (section II-A).  A write is durable
  the instant the MC write queue accepts it; ``clflushopt`` persists a
  line but reorders freely until the issuing core's ``sfence``
  retires; dirty lines may be written back by hardware at any moment.
* **eadr** — extended ADR: the caches sit inside the persistence
  domain, so every *store* is durable at once, flush instructions are
  architectural no-ops (no MC traffic, no fence drains), and a crash
  preserves the full architectural state.
* **strict** — strict persistency: every store synchronously writes
  its line through to the MC.  Crash images match eADR's (stores are
  never lost) but every store pays MC write traffic and queue
  backpressure — the write-amplification strawman.
* **epoch** — epoch persistency (BPFS-style): a fence is an *ordering*
  barrier, not a durability barrier.  Flush persists from one epoch
  may reorder among themselves but never with a later epoch of the
  same core; a crash can lose any suffix of a core's epochs, fenced
  or not.
* **pre_adr** — the pcommit-era platform the paper contrasts against:
  durability waits for device *completion* and is modelled by the MC
  undo records (:mod:`~repro.sim.nvmm`).  Crash-state enumeration is
  not available (the reachable set is completion-time-, not
  order-ideal-shaped).
* **eadr_nofence** — a **deliberately broken** eADR: it claims eADR's
  crash semantics (every store durable) while its caches actually stay
  volatile and its flushes/fences are inert.  It exists so the litmus
  harness (:mod:`repro.verify.litmus`) provably catches a model whose
  implementation diverges from its declarative spec, mirroring the
  ``ep_nofence`` broken-workload pattern.

The flags below are the *entire* behavioural surface: the memory
controller keys undo records off :attr:`PersistencyModel.mc_undo`, the
hierarchy keys flush/store traffic off :attr:`flush_writes` /
:attr:`store_writes`, :class:`~repro.sim.valuestore.MemoryState` keys
store-time durability off :attr:`persist_on_store` (which both
execution paths inherit), and the persist-order
tracker keys fence semantics off :attr:`fence_commits` /
:attr:`epoch_edges`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigError


@dataclass(frozen=True)
class PersistencyModel:
    """One persistency model's behavioural contract."""

    name: str
    #: One-line description (CLI help, docs tables).
    summary: str
    #: Stores are durable the moment they execute (persistence domain
    #: includes the caches).  Read by MemoryState.store.
    persist_on_store: bool
    #: Flush instructions traverse the hierarchy to the MC.  False
    #: makes ``clflushopt``/``clwb`` architectural no-ops: no MC
    #: write, no transit latency, no fence drain.
    flush_writes: bool
    #: Every store synchronously writes its line through to the MC
    #: (strict persistency's per-store traffic and backpressure).
    store_writes: bool
    #: A retired fence makes the issuing core's MC-accepted flushes
    #: durable (ADR's sfence).  False leaves them reorderable.
    fence_commits: bool
    #: Fences delimit per-core epochs that order flush persists:
    #: an event from epoch N+1 can only persist if every event from
    #: epoch N did (epoch persistency).
    epoch_edges: bool
    #: Durability waits for device completion; the MC keeps undo
    #: records for in-flight writes (the pre-ADR platform).
    mc_undo: bool
    #: Crash-state enumeration (order-ideal reachable-image sets) is
    #: defined for this model.
    enumerable: bool
    #: Name of the declarative litmus spec this model *claims* to
    #: implement (see :mod:`repro.verify.litmus`).  For sound models
    #: this is the model's own semantics; for deliberately broken
    #: variants it is the semantics they falsely advertise.
    spec: str
    #: Deliberately-wrong model: the litmus harness must flag it.
    broken: bool = False


#: The registry.  Order is presentation order (CLI choices, docs).
PERSISTENCY_MODELS: Dict[str, PersistencyModel] = {
    m.name: m
    for m in (
        PersistencyModel(
            name="adr",
            summary="MC write queue is the persistence domain "
            "(paper II-A); flush+fence required",
            persist_on_store=False,
            flush_writes=True,
            store_writes=False,
            fence_commits=True,
            epoch_edges=False,
            mc_undo=False,
            enumerable=True,
            spec="adr",
        ),
        PersistencyModel(
            name="eadr",
            summary="caches inside the persistence domain; stores "
            "durable at once, flushes are no-ops",
            persist_on_store=True,
            flush_writes=False,
            store_writes=False,
            fence_commits=True,
            epoch_edges=False,
            mc_undo=False,
            enumerable=True,
            spec="eadr",
        ),
        PersistencyModel(
            name="strict",
            summary="strict persistency: every store writes through "
            "to the MC synchronously",
            persist_on_store=True,
            flush_writes=True,
            store_writes=True,
            fence_commits=True,
            epoch_edges=False,
            mc_undo=False,
            enumerable=True,
            spec="strict",
        ),
        PersistencyModel(
            name="epoch",
            summary="epoch persistency: fences order (per-core "
            "epochs) but do not drain/commit",
            persist_on_store=False,
            flush_writes=True,
            store_writes=False,
            fence_commits=False,
            epoch_edges=True,
            mc_undo=False,
            enumerable=True,
            spec="epoch",
        ),
        PersistencyModel(
            name="pre_adr",
            summary="pcommit-era platform: durability at device "
            "completion (MC undo records); not enumerable",
            persist_on_store=False,
            flush_writes=True,
            store_writes=False,
            fence_commits=True,
            epoch_edges=False,
            mc_undo=True,
            enumerable=False,
            spec="pre_adr",
        ),
        PersistencyModel(
            name="eadr_nofence",
            summary="DELIBERATELY BROKEN eADR: claims store-time "
            "durability but caches stay volatile and "
            "flushes/fences are inert",
            persist_on_store=False,
            flush_writes=False,
            store_writes=False,
            fence_commits=False,
            epoch_edges=False,
            mc_undo=False,
            enumerable=True,
            spec="eadr",
            broken=True,
        ),
    )
}

#: The model every pre-existing config ran under; its cache keys must
#: stay byte-identical (see MachineConfig.cache_key).
DEFAULT_MODEL = "adr"


def get_model(name: str) -> PersistencyModel:
    """Look up a registered persistency model by name."""
    try:
        return PERSISTENCY_MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown persistency model {name!r}; "
            f"available: {', '.join(model_names())}"
        ) from None


def model_names() -> List[str]:
    """Every registered model name, in registry order."""
    return list(PERSISTENCY_MODELS)


def enumerable_model_names() -> List[str]:
    """Models for which crash-state enumeration is defined."""
    return [m.name for m in PERSISTENCY_MODELS.values() if m.enumerable]


def litmus_model_names() -> List[str]:
    """Models the litmus harness can cross-check (enumeration plus a
    declarative spec; includes deliberately broken variants)."""
    return enumerable_model_names()
