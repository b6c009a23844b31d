"""Region-declared workloads: register once, inherit every scheme.

A :class:`RegionWorkload` subclass describes its durable work as
per-thread *plans* of :class:`~repro.schemes.RegionDecl` — each region
a static (address, value) write-set precomputed from the seeded spec —
plus a *region body* generator emitting the realistic traffic (probe
loads, computes, tracked stores).  The persistency-scheme layer
(:mod:`repro.schemes`) then supplies, for free:

* every registered scheme's forward protocol (``threads(variant)``),
* a generic per-scheme crash recovery (``recovery_threads(variant)``)
  that blindly redoes declared writes from the scheme's restart
  frontier,
* uniform scheme metadata allocation (checksum table, markers, WAL
  logs, write-behind journals), which a binding on a post-crash
  machine re-attaches to.

Two paper kernels are built this way, conv2d and cholesky: each writes
every output address exactly once, so its plan is read off its numpy
reference.  So is the persistent-storage family
(:mod:`repro.workloads.storage`).  tmm, gauss and fft still interleave
their persist protocols with their loops by hand, because they rewrite
addresses (ROADMAP item 5).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import List

from repro.schemes import (
    SCHEME_BASE,
    SCHEME_EP,
    SCHEME_LP,
    SCHEME_WAL,
    SCHEME_WB_NOJOURNAL,
    SCHEME_WRITE_BEHIND,
    RegionContext,
    RegionDecl,
    SchemeState,
    get_scheme,
    validate_plans,
)
from repro.sim.machine import Machine, ThreadGen
from repro.workloads.base import BoundWorkload, Workload


class RegionWorkload(Workload):
    """Workload factory for the region-declared protocol."""

    variants = (
        SCHEME_BASE,
        SCHEME_LP,
        SCHEME_EP,
        SCHEME_WAL,
        SCHEME_WRITE_BEHIND,
    )
    broken_variants = (SCHEME_WB_NOJOURNAL,)
    #: Region bodies may be value-dependent (hashmap probe loops), so
    #: region workloads stay off the recorded op-stream cache unless
    #: they override this.
    stream_safe = False
    #: Later regions re-read this workload's output: Eager Persistency
    #: then writes data lines back with clwb instead of clflushopt
    #: (:class:`repro.schemes.registry.EagerScheme`).
    rereads_output = False
    #: Regions per write-behind batch (subclasses expose it as a
    #: constructor parameter).
    wb_batch: int = 4


class BoundRegionWorkload(BoundWorkload):
    """A region workload bound to one machine.

    Subclasses implement :meth:`_bind_data` (allocate the data
    regions and, on a fresh machine, fill the inputs), :meth:`plan`
    (the per-thread region declarations), :meth:`region_body` (the
    timed ops of one region, routing durable stores through the
    :class:`~repro.schemes.RegionContext`), and the usual
    ``reference``/``output`` verification pair.
    """

    def __init__(self, spec, machine: Machine, num_threads, engine):
        super().__init__(spec, machine, num_threads)
        self._bind_data()
        self.plans: List[List[RegionDecl]] = [
            self.plan(tid) for tid in range(num_threads)
        ]
        validate_plans(spec.name, self.plans)
        self.scheme_state = SchemeState(
            machine,
            spec.name,
            num_threads,
            self.plans,
            engine=engine,
            wb_batch=spec.wb_batch,
        )

    # -- subclass protocol ---------------------------------------------------

    @abstractmethod
    def _bind_data(self) -> None:
        """Allocate the data regions; on a post-crash machine this
        re-attaches to them (:meth:`Machine.alloc`)."""

    @abstractmethod
    def plan(self, tid: int) -> List[RegionDecl]:
        """Thread ``tid``'s region declarations, in execution order."""

    @abstractmethod
    def region_body(
        self, tid: int, decl: RegionDecl, ctx: RegionContext
    ) -> ThreadGen:
        """Timed ops of one region.  Durable stores must go through
        ``yield from ctx.store(addr, value)`` and must match
        ``decl.writes`` exactly; bodies must not read their own
        in-region writes (deferring schemes have not performed them)."""

    # -- scheme dispatch -----------------------------------------------------

    def threads(self, variant: str) -> List[ThreadGen]:
        self.spec.check_variant(variant)
        return get_scheme(variant).forward_threads(self)

    def recovery_threads(self, variant: str) -> List[ThreadGen]:
        self.spec.check_variant(variant)
        return get_scheme(variant).recovery_threads(self)
