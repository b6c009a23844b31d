"""Litmus tests: cross-check the crash-state enumerator against a
declarative per-model persistency spec.

"Lost in Interpretation" (PAPERS.md) shows that persistency-model
semantics are exactly where simulators and real machines silently
diverge, and that small litmus programs are the right probe.  This
module turns our exhaustive crash checker into a self-validating
oracle:

1. :func:`generate_programs` deterministically enumerates small
   multi-core store/flush/fence programs over a handful of
   line-disjoint variables (plus a curated set of classic shapes:
   publish, unfenced flush, same-line version chains, cross-core
   flushes of a migrating line, multi-epoch sequences);
2. :func:`run_program` executes one program on a full tiny machine
   under a chosen :mod:`persistency model <repro.sim.model>`, records
   the global op trace the scheduler actually produced, snapshots the
   crash-state space at completion, and enumerates every reachable
   NVMM image exhaustively;
3. a **declarative spec** per model (:func:`spec_images`) recomputes
   the allowed image set symbolically from that same trace — a few
   dozen lines of direct semantics that share *no* code with the
   tracker, MC, or cache hierarchy;
4. :func:`check_program` asserts the two sets are identical, and
   :func:`shrink_program` greedily removes ops from a diverging
   program until the divergence is minimal, producing a JSON-
   replayable :class:`DivergenceReport` (:func:`replay_divergence`).

Programs are run to *graceful completion* and the space snapshotted
directly: every enumerable model has accept-time durability, so there
is no in-flight MC state a mid-run crash trigger would add, and the
trace-level spec stays exact.

Deliberately broken models (``broken=True`` in the registry, e.g.
``eadr_nofence``) advertise a spec they do not implement; the harness
must *find* a divergence for them — the same trust-the-checker pattern
as the ``ep_nofence`` broken workload variant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError, SimulationError
from repro.sim.config import ELEMS_PER_LINE, MachineConfig, tiny_machine
from repro.sim.isa import Fence, Flush, Op, Store
from repro.sim.machine import Machine
from repro.sim.model import get_model
from repro.verify.enumerate import EnumerationPlan, enumerate_images

#: Op kinds a litmus program may contain.  No loads: values only flow
#: through stores, so the reachable-image question is closed over these.
KIND_STORE = "store"
KIND_FLUSH = "flush"
KIND_FENCE = "fence"

#: Exhaustive-enumeration ceiling: a program whose space exceeds this
#: many events is rejected rather than silently sampled (the cross-
#: check is only meaningful when both sides are exact).
MAX_EVENTS = 16

#: Image keys are per-variable value tuples.
ImageKey = Tuple[float, ...]

#: One executed op in global order: ``(core_id, kind, var, value)``.
TraceEntry = Tuple[int, str, int, float]


@dataclass(frozen=True)
class LitmusOp:
    """One instruction of a litmus thread."""

    kind: str
    var: int = 0
    value: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "var": self.var, "value": self.value}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "LitmusOp":
        return cls(
            kind=str(d["kind"]),
            var=int(d["var"]),
            value=float(d["value"]),
        )


@dataclass(frozen=True)
class LitmusProgram:
    """A small multi-threaded store/flush/fence program.

    Variables are numbered ``0..num_vars-1`` and materialised one per
    cache line, so flushes of distinct variables never interact and
    same-variable ops exercise same-line persist ordering.
    """

    name: str
    threads: Tuple[Tuple[LitmusOp, ...], ...]
    num_vars: int

    def __post_init__(self) -> None:
        if not self.threads:
            raise ConfigError("litmus program needs at least one thread")
        if self.num_vars <= 0:
            raise ConfigError("litmus program needs at least one variable")
        for ops in self.threads:
            for op in ops:
                if op.kind not in (KIND_STORE, KIND_FLUSH, KIND_FENCE):
                    raise ConfigError(f"unknown litmus op kind {op.kind!r}")
                if op.kind != KIND_FENCE and not 0 <= op.var < self.num_vars:
                    raise ConfigError(
                        f"litmus op names variable {op.var} but the "
                        f"program has {self.num_vars}"
                    )

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def num_ops(self) -> int:
        return sum(len(ops) for ops in self.threads)

    def pretty(self) -> str:
        """One-line ``t0: st x0; fl x0 || t1: ...`` rendering."""
        cols = []
        for ops in self.threads:
            words = []
            for op in ops:
                if op.kind == KIND_FENCE:
                    words.append("fence")
                else:
                    short = "st" if op.kind == KIND_STORE else "fl"
                    words.append(f"{short} x{op.var}")
            cols.append("; ".join(words) if words else "(empty)")
        return " || ".join(cols)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "num_vars": self.num_vars,
            "threads": [
                [op.to_dict() for op in ops] for ops in self.threads
            ],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "LitmusProgram":
        return cls(
            name=str(d["name"]),
            num_vars=int(d["num_vars"]),
            threads=tuple(
                tuple(LitmusOp.from_dict(op) for op in ops)
                for ops in d["threads"]
            ),
        )


# ----------------------------------------------------------------------
# program generation
# ----------------------------------------------------------------------


def _materialize(
    name: str, kinds: Sequence[Sequence[Tuple[str, int]]], num_vars: int
) -> LitmusProgram:
    """Build a program from per-thread ``(kind, var)`` lists, assigning
    each store a value unique across the program (``100*(t+1)+i+1`` for
    the i-th store of thread t) so every image is distinguishable."""
    threads = []
    for t, ops in enumerate(kinds):
        built = []
        stores = 0
        for kind, var in ops:
            if kind == KIND_STORE:
                stores += 1
                built.append(
                    LitmusOp(kind, var, float(100 * (t + 1) + stores))
                )
            else:
                built.append(LitmusOp(kind, var))
        threads.append(tuple(built))
    return LitmusProgram(name=name, threads=tuple(threads), num_vars=num_vars)


def _classics() -> List[LitmusProgram]:
    """Hand-picked shapes that probe each model's distinguishing rule."""
    st, fl, fence = (
        lambda v: (KIND_STORE, v),
        lambda v: (KIND_FLUSH, v),
        (KIND_FENCE, 0),
    )
    return [
        # The recoverable-publish idiom: data then flag, each fenced.
        _materialize(
            "classic_publish",
            [[st(0), fl(0), fence, st(1), fl(1), fence]],
            num_vars=2,
        ),
        # A flush whose fence never retires stays reorderable.
        _materialize("classic_unfenced", [[st(0), fl(0)]], num_vars=1),
        # Same-line version chain: two unfenced flushes of one line.
        _materialize(
            "classic_chain", [[st(0), fl(0), st(0), fl(0)]], num_vars=1
        ),
        # Ownership migrates between flushes; the second core's fence
        # commits the newer version and must absorb the older one.
        _materialize(
            "classic_cross_core",
            [[st(0), fl(0)], [st(0), fl(0), fence]],
            num_vars=1,
        ),
        # Two epochs on one core, nothing committed at the end: ADR
        # commits epoch 1, epoch persistency only orders it.
        _materialize(
            "classic_epochs",
            [[st(0), fl(0), fence, st(1), fl(1)]],
            num_vars=2,
        ),
        # No flushes at all: the dirty-line writeback uncertainty.
        _materialize("classic_dirty", [[st(0)], [st(1)]], num_vars=2),
    ]


def generate_programs(
    threads: int = 2,
    max_ops: int = 4,
    num_vars: int = 2,
    limit: int = 48,
) -> List[LitmusProgram]:
    """The litmus corpus: curated classics plus a deterministic,
    evenly-strided slice of the systematic program space.

    The systematic space is every assignment of the ``2*num_vars + 1``
    op alphabet (store/flush per variable, fence) to ``threads *
    max_ops`` slots; indices are decoded base-alphabet, so a given
    ``(threads, max_ops, num_vars, limit)`` always yields the same
    corpus — no RNG anywhere.
    """
    if threads <= 0 or max_ops <= 0:
        raise ConfigError("threads and max_ops must be positive")
    if num_vars > 4:
        raise ConfigError(
            "litmus programs use at most 4 variables (one line each, "
            "sized to never evict from the tiny machine's L1)"
        )
    programs = [p for p in _classics() if p.num_threads <= max(threads, 2)]
    alphabet: List[Tuple[str, int]] = (
        [(KIND_STORE, v) for v in range(num_vars)]
        + [(KIND_FLUSH, v) for v in range(num_vars)]
        + [(KIND_FENCE, 0)]
    )
    base = len(alphabet)
    slots = threads * max_ops
    total = base**slots
    remaining = max(0, limit - len(programs))
    if not remaining:
        return programs[:limit]
    picks = sorted({(k * total) // remaining for k in range(remaining)})
    for idx in picks:
        digits = []
        x = idx
        for _ in range(slots):
            digits.append(x % base)
            x //= base
        kinds = [
            [alphabet[d] for d in digits[t * max_ops : (t + 1) * max_ops]]
            for t in range(threads)
        ]
        programs.append(
            _materialize(
                f"gen_t{threads}_o{max_ops}_v{num_vars}_{idx}",
                kinds,
                num_vars,
            )
        )
    return programs


# ----------------------------------------------------------------------
# simulator side: run one program, enumerate its reachable images
# ----------------------------------------------------------------------


def _litmus_config(model: str, num_threads: int) -> MachineConfig:
    return (
        tiny_machine(num_cores=max(2, num_threads))
        .with_timing("functional")
        .with_model(model)
    )


def _thread_gen(
    cid: int,
    ops: Sequence[LitmusOp],
    addrs: Sequence[int],
    trace: List[TraceEntry],
) -> Iterator[Op]:
    for op in ops:
        trace.append((cid, op.kind, op.var, op.value))
        if op.kind == KIND_STORE:
            yield Store(addrs[op.var], op.value)
        elif op.kind == KIND_FLUSH:
            yield Flush(addrs[op.var])
        else:
            yield Fence()


@dataclass
class LitmusRun:
    """One program executed under one model."""

    program: LitmusProgram
    model: str
    #: Global op order the scheduler produced (input to the spec).
    trace: List[TraceEntry]
    #: Reachable image set from the enumerator, projected to the
    #: program's variables.
    sim_images: FrozenSet[ImageKey]
    num_events: int


def run_program(program: LitmusProgram, model: str) -> LitmusRun:
    """Execute ``program`` under ``model`` on a full tiny machine and
    exhaustively enumerate the crash-state space at completion."""
    config = _litmus_config(model, program.num_threads)
    machine = Machine(config)
    regions = [
        machine.alloc(f"x{v}", ELEMS_PER_LINE) for v in range(program.num_vars)
    ]
    addrs = [r.base for r in regions]
    trace: List[TraceEntry] = []
    gens = [
        _thread_gen(cid, ops, addrs, trace)
        for cid, ops in enumerate(program.threads)
    ]
    machine.track_persists()
    machine.run(gens)

    # The spec assumes nothing but program flushes moved data to the
    # MC; the tiny machine's L1 holds all (<= 4) variable lines, so any
    # eviction/cleaner traffic means the harness assumptions broke.
    by_cause = machine.stats.writes_by_cause
    hw = sum(by_cause.get(c, 0) for c in ("eviction", "cleaner", "drain"))
    if hw:
        raise SimulationError(
            f"litmus program {program.name!r} triggered {hw} hardware "
            f"writebacks; the trace-level spec would be unsound"
        )

    space = machine.crash_state_space()
    if space.num_events > MAX_EVENTS:
        raise ConfigError(
            f"litmus program {program.name!r} produced "
            f"{space.num_events} persist events (> {MAX_EVENTS}); "
            f"shrink the program — the cross-check must be exhaustive"
        )
    images = enumerate_images(
        space,
        EnumerationPlan(
            max_exhaustive_events=MAX_EVENTS, max_images=1 << MAX_EVENTS
        ),
    )
    keys = frozenset(
        tuple(img.image.get(addr, 0.0) for addr in addrs) for img in images
    )
    return LitmusRun(
        program=program,
        model=model,
        trace=trace,
        sim_images=keys,
        num_events=space.num_events,
    )


# ----------------------------------------------------------------------
# declarative specs: allowed image sets, straight from the trace
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _SpecEvent:
    """A potentially-lost persist in the spec's vocabulary."""

    eid: int
    var: int
    value: float
    #: Issuing core for flush events, None for crash-time dirty lines.
    core: Optional[int]
    #: Issuing core's epoch at the flush (epoch spec only).
    epoch: int = 0


def _downward_closed_images(
    floor: List[float],
    events: List[_SpecEvent],
    requires: "Any",
) -> FrozenSet[ImageKey]:
    """All images from downward-closed event subsets.

    ``requires(a, b)`` is the persist-order constraint: if ``b`` is in
    an image's event set, ``a`` must be too.  Event count is bounded by
    MAX_EVENTS, so plain bitmask enumeration is exact and cheap.
    """
    if len(events) > MAX_EVENTS:
        raise ConfigError(
            f"spec-side event count {len(events)} exceeds {MAX_EVENTS}"
        )
    n = len(events)
    keys = set()
    for mask in range(1 << n):
        ok = True
        for j in range(n):
            if not mask >> j & 1:
                continue
            for i in range(n):
                if i != j and requires(events[i], events[j]) and not (
                    mask >> i & 1
                ):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        image = list(floor)
        for j in range(n):  # eid order == list order: newest wins
            if mask >> j & 1:
                image[events[j].var] = events[j].value
        keys.add(tuple(image))
    return frozenset(keys)


def _spec_adr(program: LitmusProgram, trace: List[TraceEntry]) -> FrozenSet[ImageKey]:
    """ADR: flush creates a reorderable persist; the issuing core's
    fence makes its accepted flushes durable (committing a newer
    version of a line also retires older pending versions of it);
    dirty lines may persist at any moment; same-line versions chain."""
    nvars = program.num_vars
    arch = [0.0] * nvars
    dirty = [False] * nvars
    floor = [0.0] * nvars
    pending: List[_SpecEvent] = []
    eid = 0
    for cid, kind, var, value in trace:
        if kind == KIND_STORE:
            arch[var] = value
            dirty[var] = True
        elif kind == KIND_FLUSH:
            if dirty[var]:
                pending.append(_SpecEvent(eid, var, arch[var], cid))
                eid += 1
                dirty[var] = False
        else:  # fence
            committed = [ev for ev in pending if ev.core == cid]
            if not committed:
                continue
            newest: Dict[int, int] = {}
            for ev in committed:
                floor[ev.var] = ev.value  # eid order: newest wins
                newest[ev.var] = ev.eid
            committed_ids = {ev.eid for ev in committed}
            pending = [
                ev
                for ev in pending
                if ev.eid not in committed_ids
                and ev.eid > newest.get(ev.var, -1)
            ]
    events = list(pending)
    for var in range(nvars):
        if dirty[var]:
            events.append(_SpecEvent(eid, var, arch[var], None))
            eid += 1

    def requires(a: _SpecEvent, b: _SpecEvent) -> bool:
        return a.var == b.var and a.eid < b.eid

    return _downward_closed_images(floor, events, requires)


def _spec_eadr(program: LitmusProgram, trace: List[TraceEntry]) -> FrozenSet[ImageKey]:
    """eADR / strict: every store is durable the instant it executes,
    so the one reachable image is the final architectural state."""
    arch = [0.0] * program.num_vars
    for _cid, kind, var, value in trace:
        if kind == KIND_STORE:
            arch[var] = value
    return frozenset({tuple(arch)})


def _spec_epoch(program: LitmusProgram, trace: List[TraceEntry]) -> FrozenSet[ImageKey]:
    """Epoch persistency: fences delimit per-core epochs and *order*
    flush persists (epoch N+1 only after all of epoch N) but commit
    nothing; dirty lines stay hardware-reorderable."""
    nvars = program.num_vars
    arch = [0.0] * nvars
    dirty = [False] * nvars
    pending: List[_SpecEvent] = []
    core_epoch: Dict[int, int] = {}
    eid = 0
    for cid, kind, var, value in trace:
        if kind == KIND_STORE:
            arch[var] = value
            dirty[var] = True
        elif kind == KIND_FLUSH:
            if dirty[var]:
                pending.append(
                    _SpecEvent(
                        eid, var, arch[var], cid, core_epoch.get(cid, 0)
                    )
                )
                eid += 1
                dirty[var] = False
        else:  # fence: close the epoch, commit nothing
            core_epoch[cid] = core_epoch.get(cid, 0) + 1
    events = list(pending)
    for var in range(nvars):
        if dirty[var]:
            events.append(_SpecEvent(eid, var, arch[var], None))
            eid += 1

    def requires(a: _SpecEvent, b: _SpecEvent) -> bool:
        if a.var == b.var and a.eid < b.eid:
            return True
        return (
            a.core is not None
            and a.core == b.core
            and a.epoch < b.epoch
        )

    return _downward_closed_images([0.0] * nvars, events, requires)


#: Declarative spec registry, keyed by the ``spec`` field of
#: :class:`~repro.sim.model.PersistencyModel`.  ``strict`` shares
#: eADR's crash semantics (stores are never lost); they differ only in
#: traffic/timing, which litmus does not judge.
_SPECS = {
    "adr": _spec_adr,
    "eadr": _spec_eadr,
    "strict": _spec_eadr,
    "epoch": _spec_epoch,
}


def spec_images(
    program: LitmusProgram, spec: str, trace: List[TraceEntry]
) -> FrozenSet[ImageKey]:
    """The crash images ``spec`` allows for ``program`` under the
    recorded execution order ``trace``."""
    try:
        fn = _SPECS[spec]
    except KeyError:
        raise ConfigError(
            f"no litmus spec named {spec!r}; "
            f"available: {', '.join(sorted(_SPECS))}"
        ) from None
    return fn(program, trace)


# ----------------------------------------------------------------------
# cross-check, shrinking, reports
# ----------------------------------------------------------------------


@dataclass
class LitmusResult:
    """Spec-vs-enumerator comparison for one program under one model."""

    run: LitmusRun
    spec: str
    spec_set: FrozenSet[ImageKey]

    @property
    def program(self) -> LitmusProgram:
        return self.run.program

    @property
    def model(self) -> str:
        return self.run.model

    @property
    def ok(self) -> bool:
        return self.run.sim_images == self.spec_set

    @property
    def missing(self) -> List[ImageKey]:
        """Spec-allowed images the enumerator failed to produce."""
        return sorted(self.spec_set - self.run.sim_images)

    @property
    def extra(self) -> List[ImageKey]:
        """Enumerator images the spec forbids."""
        return sorted(self.run.sim_images - self.spec_set)


def check_program(program: LitmusProgram, model: str) -> LitmusResult:
    """Run one program under ``model`` and compare the enumerator's
    reachable-image set with the model's declarative spec."""
    spec = get_model(model).spec
    run = run_program(program, model)
    return LitmusResult(
        run=run, spec=spec, spec_set=spec_images(program, spec, run.trace)
    )


def shrink_program(program: LitmusProgram, model: str) -> LitmusProgram:
    """Greedily remove ops while the spec/enumerator divergence
    persists; returns the smallest diverging program reached."""
    current = program
    shrunk = True
    while shrunk:
        shrunk = False
        for t in range(current.num_threads):
            for i in range(len(current.threads[t])):
                threads = [list(ops) for ops in current.threads]
                del threads[t][i]
                candidate = LitmusProgram(
                    name=current.name,
                    threads=tuple(tuple(ops) for ops in threads),
                    num_vars=current.num_vars,
                )
                try:
                    if not check_program(candidate, model).ok:
                        current = candidate
                        shrunk = True
                        break
                except (ConfigError, SimulationError):
                    continue
            if shrunk:
                break
    return current


@dataclass(frozen=True)
class DivergenceReport:
    """A spec/enumerator divergence, shrunk and JSON-replayable."""

    model: str
    spec: str
    program: Dict[str, Any]
    shrunk: Dict[str, Any]
    #: Images the spec allows but the enumerator missed (shrunk program).
    missing: List[List[float]]
    #: Images the enumerator produced but the spec forbids.
    extra: List[List[float]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "spec": self.spec,
            "program": self.program,
            "shrunk": self.shrunk,
            "missing": self.missing,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "DivergenceReport":
        return cls(
            model=str(d["model"]),
            spec=str(d["spec"]),
            program=dict(d["program"]),
            shrunk=dict(d["shrunk"]),
            missing=[list(map(float, k)) for k in d["missing"]],
            extra=[list(map(float, k)) for k in d["extra"]],
        )


def divergence_report(result: LitmusResult) -> DivergenceReport:
    """Shrink a diverging result and package it for replay."""
    small = shrink_program(result.program, result.model)
    small_result = check_program(small, result.model)
    return DivergenceReport(
        model=result.model,
        spec=result.spec,
        program=result.program.to_dict(),
        shrunk=small.to_dict(),
        missing=[list(k) for k in small_result.missing],
        extra=[list(k) for k in small_result.extra],
    )


def replay_divergence(report: DivergenceReport) -> LitmusResult:
    """Re-run a report's shrunk program under its model; a faithful
    report replays to a still-diverging result."""
    return check_program(
        LitmusProgram.from_dict(report.shrunk), report.model
    )


@dataclass
class ModelVerdict:
    """Corpus-level outcome for one model."""

    model: str
    #: The model is a deliberately-broken variant: divergence expected.
    broken: bool
    programs_checked: int
    divergent: int
    reports: List[DivergenceReport] = field(default_factory=list)
    #: Reachable images enumerated across the corpus (deduplicated per
    #: program by the enumerator).
    images_checked: int = 0
    #: Per-program coverage points: (num_events, images, divergent).
    program_points: List[Tuple[int, int, bool]] = field(default_factory=list)
    #: Corpus wall clock (run + enumerate + spec + shrink).
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Sound models must never diverge; broken ones must."""
        return self.divergent > 0 if self.broken else self.divergent == 0

    def coverage(self) -> Any:
        """This corpus's :class:`~repro.obs.coverage.CoverageStats`.

        Imported lazily so the verification layer never hard-depends
        on the observability package.
        """
        from repro.obs.coverage import coverage_of_litmus

        return coverage_of_litmus(self)


def check_model(
    model: str,
    programs: Sequence[LitmusProgram],
    max_reports: int = 8,
    journal: Optional[Any] = None,
) -> ModelVerdict:
    """Cross-check every program under ``model``; shrink and collect up
    to ``max_reports`` divergences.

    ``journal`` is any sink with ``emit(kind, **fields)`` (a
    :class:`repro.obs.journal.TelemetryJournal`); when given, one
    ``litmus_program`` event streams out per cross-checked program.
    """
    m = get_model(model)
    if not m.enumerable:
        raise ConfigError(
            f"model {m.name!r} does not support crash-state "
            f"enumeration; litmus cannot cross-check it"
        )
    started = time.perf_counter()
    verdict = ModelVerdict(
        model=m.name, broken=m.broken, programs_checked=0, divergent=0
    )
    for program in programs:
        result = check_program(program, m.name)
        verdict.programs_checked += 1
        images = len(result.run.sim_images)
        verdict.images_checked += images
        verdict.program_points.append(
            (result.run.num_events, images, not result.ok)
        )
        if journal is not None:
            journal.emit(
                "litmus_program",
                model=m.name,
                program=program.name,
                num_events=result.run.num_events,
                images=images,
                divergent=not result.ok,
            )
        if not result.ok:
            verdict.divergent += 1
            if len(verdict.reports) < max_reports:
                verdict.reports.append(divergence_report(result))
    verdict.wall_s = time.perf_counter() - started
    return verdict
