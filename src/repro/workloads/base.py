"""Workload protocol.

A :class:`Workload` holds problem parameters (matrix size, tile size)
and declares its :class:`BoundWorkload` subclass.  ``bind(machine,
...)`` builds that class, which allocates the persistent data on a
machine and produces the thread generators for a chosen variant, the
recovery threads to run after a crash of that variant, and
verification against a numpy reference.  Thread generators yield
:mod:`repro.sim.isa` ops directly (``v = yield Load(addr)``).

Rebinding (``create=False``) attaches to regions that already exist —
that is how recovery code addresses the same arrays on the post-crash
machine.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.errors import WorkloadError
from repro.schemes import SCHEME_BASE, SCHEME_EP, SCHEME_LP
from repro.sim.isa import Phase
from repro.sim.machine import Machine, ThreadGen


def integer_matrix(rng: random.Random, rows: int, cols: int, span: int = 4):
    """A matrix of small integer-valued floats.

    Integer inputs keep every kernel's arithmetic exact in float64, so
    tiled/blocked summation orders agree bit-for-bit with the numpy
    reference and recovery verification can demand exact equality.
    """
    return np.array(
        [[float(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)],
        dtype=np.float64,
    )


class BoundWorkload(ABC):
    """A workload instance bound to one machine's regions."""

    def __init__(
        self, spec: "Workload", machine: Machine, num_threads: int, engine: str
    ) -> None:
        if num_threads < 1:
            raise WorkloadError("need at least one thread")
        self.spec = spec
        self.machine = machine
        self.num_threads = num_threads
        self.engine_name = engine
        #: Provenance tagging is opt-in: when off (the default) the op
        #: stream is byte-identical to pre-provenance runs, pinned by
        #: tests/obs/test_provenance.py.
        self.provenance = False

    # -- provenance ------------------------------------------------------------

    def tag(self, label: Optional[str] = None) -> Iterator[Phase]:
        """Yield one :class:`Phase` frame op — or nothing when untagged.

        Workload coroutines write ``yield from self.tag("kk0")`` to push
        a provenance frame and ``yield from self.tag()`` to pop it; with
        ``self.provenance`` left False both are zero ops, so tagging
        call-sites cost nothing on ordinary runs.
        """
        if self.provenance:
            yield Phase(label)

    # -- execution -------------------------------------------------------------

    @abstractmethod
    def threads(self, variant: str) -> List[ThreadGen]:
        """Thread generators for one Table IV variant."""

    @abstractmethod
    def recovery_threads(self, variant: str) -> List[ThreadGen]:
        """Recovery + resumed execution after a crash of ``variant``,
        run on the post-crash machine.

        Must be called on a bound instance attached (rebound) to the
        post-crash machine.  A workload whose recovery trusts markers
        or logs dispatches on ``variant``; one conservative path that
        rebuilds the output from any reachable image may ignore it.
        Recovery uses Eager Persistency so a crash during recovery
        cannot lose progress (section III-E).
        """

    # -- verification -----------------------------------------------------------

    @abstractmethod
    def reference(self) -> np.ndarray:
        """Expected output, computed with numpy from the same inputs."""

    @abstractmethod
    def output(self, persistent: bool = False) -> np.ndarray:
        """The kernel's output as currently held by the machine."""

    def verify(self, persistent: bool = False, atol: float = 0.0) -> bool:
        """Compare output to reference (exact by default)."""
        got = self.output(persistent=persistent)
        want = self.reference()
        if atol == 0.0:
            return bool(np.array_equal(got, want))
        return bool(np.allclose(got, want, atol=atol, rtol=0.0))

    def verification_error(self, persistent: bool = False) -> float:
        """Max absolute output-vs-reference error."""
        got = self.output(persistent=persistent)
        want = self.reference()
        return float(np.max(np.abs(got - want))) if got.size else 0.0


class Workload(ABC):
    """Problem-parameterised workload factory."""

    #: Registry name (e.g. "tmm").
    name: str = "abstract"
    #: The :class:`BoundWorkload` subclass :meth:`bind` builds; its
    #: constructor takes ``(spec, machine, num_threads, engine, create)``.
    bound: Type[BoundWorkload]
    #: Variants this workload implements.
    variants: Tuple[str, ...] = (SCHEME_BASE, SCHEME_LP, SCHEME_EP)
    #: Deliberately broken variants, runnable but excluded from the
    #: performance sweeps (``variants``): fault-injection targets the
    #: crash checker must flag (e.g. tmm's ``ep_nofence``).
    broken_variants: Tuple[str, ...] = ()
    #: Whether this workload's forward runs are value-deterministic per
    #: (workload, config, variant, threads) — the contract that makes
    #: one recorded replay run (:func:`repro.sim.opstream.record_stream`)
    #: a faithful transcript of every run of the same point.  All
    #: kernel workloads are (their only randomness is the seeded input
    #: matrix, part of the spec); a workload whose op sequence depends
    #: on loaded values in a non-reproducible way must set this False
    #: to stay off the stream cache
    #: (``repro.analysis.runner.cached_op_stream`` refuses it).
    stream_safe: bool = True

    def bind(
        self,
        machine: Machine,
        num_threads: int = 1,
        engine: str = "modular",
        create: bool = True,
    ) -> BoundWorkload:
        """Build :attr:`bound` on ``machine``: allocate this workload's
        data (``create=True``) or re-attach to it (``create=False``)."""
        return self.bound(self, machine, num_threads, engine, create)

    def check_variant(self, variant: str) -> None:
        """Raise WorkloadError for variants this workload lacks.

        Distinguishes "no such scheme anywhere" (a typo — report the
        scheme registry) from "a real scheme this workload does not
        implement" (report the workload's own variant list).
        """
        if variant in self.variants or variant in self.broken_variants:
            return
        from repro.schemes import scheme_names

        if variant not in scheme_names():
            raise WorkloadError(
                f"unknown persistency scheme {variant!r}; "
                f"registered schemes: {scheme_names()}"
            )
        raise WorkloadError(
            f"workload {self.name!r} has no variant {variant!r}; "
            f"available: {self.variants + self.broken_variants}"
        )
