"""The crash-state checker: recovery must succeed on *every* image.

For one (workload, variant, crash point) the checker

1. runs the variant to the crash point and snapshots the reachable
   image space (:func:`repro.sim.crash.run_to_crash_space`);
2. enumerates candidate images (:mod:`repro.verify.enumerate`) —
   exhaustively below the frontier, seeded-sampled above it;
3. for each image builds the post-crash machine, rebinds the workload,
   runs the variant's recovery threads, and verifies the final output
   exactly;
4. on failure, shrinks the failing event set to a minimal order ideal
   (greedy removal of maximal events while the failure persists) and
   reports a replayable :class:`Counterexample`.

Enumeration covers the whole reorderable space, which is what catches
missing-fence bugs the simulator's synchronous flush acceptance
otherwise hides.  With no enumeration plan the checker is the
single-image crash path instead: it checks only the image the
simulated schedule left (``repro crash``, the ``reproduce`` recovery
table and the crash ablation benches run this way).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.sim.cleaner import PeriodicCleaner
from repro.sim.config import MachineConfig
from repro.sim.crash import CrashPlan, run_to_crash_space, run_with_crash
from repro.sim.machine import Machine, RunResult
from repro.sim.persist import CrashStateSpace
from repro.verify.enumerate import (
    EnumerationPlan,
    enumerate_images,
    enumeration_bound,
)
from repro.verify.graph import is_ideal
from repro.workloads.base import Workload


def plan_to_dict(plan: CrashPlan) -> Dict[str, float]:
    """The one set trigger of a CrashPlan, as a serializable dict."""
    out: Dict[str, float] = {}
    for key in ("at_op", "at_flush"):
        value = getattr(plan, key)
        if value is not None:
            out[key] = value
    return out


def plan_from_dict(d: Dict[str, float]) -> CrashPlan:
    """Inverse of :func:`plan_to_dict`."""
    return CrashPlan(**{k: int(v) for k, v in d.items()})


def describe_plan(plan: CrashPlan) -> str:
    return ",".join(f"{k[3:]}={v}" for k, v in plan_to_dict(plan).items())


@dataclass(frozen=True)
class Counterexample:
    """A reachable NVMM image on which recovery produced wrong output.

    Replayable from the fields alone: rebuild the same (workload,
    config, variant, crash point) run, snapshot the space, and apply
    ``minimized_eids`` — see :func:`replay_counterexample`.
    """

    workload: str
    variant: str
    #: The crash trigger, as ``plan_to_dict`` of the CrashPlan.
    crash: Dict[str, float]
    #: Enumeration seed (meaningful in sampled mode; recorded always).
    seed: int
    #: The failing order ideal as first found.
    eids: Sequence[int]
    #: Smallest failing ideal the shrinker reached.
    minimized_eids: Sequence[int]
    #: The minimized image itself, for offline inspection.
    image: Dict[int, float]

    def crash_plan(self) -> CrashPlan:
        return plan_from_dict(self.crash)

    def describe(self) -> str:
        return (
            f"{self.workload}/{self.variant} "
            f"crash@{describe_plan(self.crash_plan())}: "
            f"recovery failed on image with events "
            f"{sorted(self.minimized_eids)} "
            f"(shrunk from {len(self.eids)}; replay seed {self.seed})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "crash": dict(self.crash),
            "seed": self.seed,
            "eids": list(self.eids),
            "minimized_eids": list(self.minimized_eids),
            "image": {str(a): v for a, v in self.image.items()},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Counterexample":
        return cls(
            workload=d["workload"],
            variant=d["variant"],
            crash=dict(d["crash"]),
            seed=int(d["seed"]),
            eids=tuple(int(e) for e in d["eids"]),
            minimized_eids=tuple(int(e) for e in d["minimized_eids"]),
            image={int(a): float(v) for a, v in d["image"].items()},
        )


@dataclass
class CrashPointReport:
    """Checker outcome at one crash point."""

    crash: Dict[str, float]
    crashed: bool
    num_events: int = 0
    num_edges: int = 0
    images_checked: int = 0
    exhaustive: bool = True
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: Candidate ideals the enumeration plan generated (before image
    #: dedup); ``images_checked <= bound``.
    bound: int = 0
    #: Images on which recovery produced wrong output (every failing
    #: image counts, including ones containing an already-shrunk
    #: failure that is not reported again).
    images_diverged: int = 0
    #: Events dropped by counterexample shrinking at this point, summed.
    shrink_steps: int = 0
    #: Wall clock of the whole point check (run + enumerate + recover).
    wall_s: float = 0.0
    #: NVMM writes of the run to the crash trigger (or to a graceful
    #: end).
    writes_before_crash: int = 0
    #: Ops and cycles of the recovery runs on the checked images,
    #: summed; shrinking's re-runs are not counted.
    recovery_ops: int = 0
    recovery_cycles: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def images_recovered(self) -> int:
        return self.images_checked - self.images_diverged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "crash": dict(self.crash),
            "crashed": self.crashed,
            "num_events": self.num_events,
            "num_edges": self.num_edges,
            "images_checked": self.images_checked,
            "exhaustive": self.exhaustive,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "bound": self.bound,
            "images_diverged": self.images_diverged,
            "shrink_steps": self.shrink_steps,
            "wall_s": round(self.wall_s, 6),
            "writes_before_crash": self.writes_before_crash,
            "recovery_ops": self.recovery_ops,
            "recovery_cycles": self.recovery_cycles,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CrashPointReport":
        return cls(
            crash=dict(d["crash"]),
            crashed=bool(d["crashed"]),
            num_events=int(d["num_events"]),
            num_edges=int(d["num_edges"]),
            images_checked=int(d["images_checked"]),
            exhaustive=bool(d["exhaustive"]),
            counterexamples=[
                Counterexample.from_dict(c) for c in d["counterexamples"]
            ],
            bound=int(d["bound"]),
            images_diverged=int(d["images_diverged"]),
            shrink_steps=int(d["shrink_steps"]),
            wall_s=float(d["wall_s"]),
            writes_before_crash=int(d["writes_before_crash"]),
            recovery_ops=int(d["recovery_ops"]),
            recovery_cycles=float(d["recovery_cycles"]),
        )


@dataclass
class CrashCheckReport:
    """Checker outcome for one (workload, variant) across crash points."""

    workload: str
    variant: str
    points: List[CrashPointReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def images_checked(self) -> int:
        return sum(p.images_checked for p in self.points)

    @property
    def max_events(self) -> int:
        return max((p.num_events for p in self.points), default=0)

    @property
    def images_diverged(self) -> int:
        return sum(p.images_diverged for p in self.points)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.points)

    @property
    def counterexamples(self) -> List[Counterexample]:
        return [c for p in self.points for c in p.counterexamples]

    def coverage(self) -> Any:
        """This campaign's :class:`~repro.obs.coverage.CoverageStats`.

        Imported lazily: the verification layer stays importable (and
        cache-key stable) without the observability package loaded.
        """
        from repro.obs.coverage import coverage_of_crashcheck

        return coverage_of_crashcheck(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CrashCheckReport":
        return cls(
            workload=d["workload"],
            variant=d["variant"],
            points=[CrashPointReport.from_dict(p) for p in d["points"]],
        )


# ----------------------------------------------------------------------
# core checking machinery
# ----------------------------------------------------------------------


def _run_recovery(
    crashed_machine: Machine,
    workload: Workload,
    variant: str,
    image: Dict[int, float],
    num_threads: int,
    engine: str,
    replay: bool = True,
) -> Tuple[bool, RunResult]:
    """Run the variant's recovery on ``image``; return whether the
    final output is exact, and the recovery run.

    By default recovery runs on a **replay machine** (cache-free
    architectural semantics, functional timing): the verdict depends
    only on the values recovery computes, and caches are
    architecturally transparent, so replay is exact for this question
    while skipping the coherence walk that otherwise dominates campaign
    wall-clock.  ``replay=False`` restores the full-machine recovery
    run, whose cycles are the modelled recovery time.
    """
    post = crashed_machine.after_crash_with_image(image, replay=replay)
    rebound = workload.bind(post, num_threads=num_threads, engine=engine)
    result = post.run(rebound.recovery_threads(variant))
    return rebound.verify(), result


def minimize_failure(
    space: CrashStateSpace,
    failing: FrozenSet[int],
    fails: Callable[[FrozenSet[int]], bool],
) -> FrozenSet[int]:
    """Shrink a failing event set to a minimal failing order ideal.

    Greedy: repeatedly try dropping one maximal event (one with no
    chosen successor, so the remainder stays downward-closed); keep any
    drop that still fails.  The result is 1-minimal — removing any
    single further event either breaks the ideal property or makes
    recovery succeed.
    """
    nodes = [ev.eid for ev in space.events]
    current = set(failing)
    shrinking = True
    while shrinking:
        shrinking = False
        # Highest ids first: same-line chains shed newest versions first.
        for eid in sorted(current, reverse=True):
            candidate = current - {eid}
            if not is_ideal(candidate, nodes, space.edges):
                continue
            if fails(frozenset(candidate)):
                current = candidate
                shrinking = True
                break
    return frozenset(current)


def check_crash_point(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    crash: CrashPlan,
    plan: Optional[EnumerationPlan],
    num_threads: int = 2,
    engine: str = "modular",
    cleaner_period: Optional[float] = None,
    replay: bool = True,
) -> CrashPointReport:
    """Run ``variant`` to the ``crash`` trigger, enumerate every
    reachable image, and check recovery against each.

    ``plan=None`` checks only the image the simulated schedule left
    (the :meth:`~repro.sim.machine.Machine.after_crash` image), as a
    zero-event space: one image, bound 1, exhaustive.  It requests no
    persist tracker, so it runs under every persistency model.  Its
    counterexamples carry that image but no events; replay them with
    :func:`~repro.sim.crash.run_with_crash`.

    The config's timing model runs the crash-point run, which defines
    the reachable-image space (``config.with_timing(...)`` selects
    another).  ``replay`` recovers each image on the fast cache-free
    machine; ``False`` recovers on a full machine, whose
    ``recovery_cycles`` are the modelled recovery time (see
    :func:`_run_recovery`).
    """
    started = time.perf_counter()
    crash_key = plan_to_dict(crash)
    machine = Machine(config)
    if cleaner_period is not None:
        machine.cleaner = PeriodicCleaner(cleaner_period)
    bound = workload.bind(machine, num_threads=num_threads, engine=engine)
    if plan is None:
        plan = EnumerationPlan()
        result, post = run_with_crash(machine, bound.threads(variant), crash)
        space: Optional[CrashStateSpace] = (
            CrashStateSpace(floor=post.mem.persistent, events=[], edges=[])
            if result.crashed
            else None
        )
    else:
        result, space = run_to_crash_space(
            machine, bound.threads(variant), crash
        )
    if space is None:
        # Finished before the trigger: a graceful end must still verify.
        report = CrashPointReport(
            crash=crash_key,
            crashed=False,
            writes_before_crash=result.nvmm_writes,
        )
        if not bound.verify():
            report.counterexamples.append(
                Counterexample(
                    workload=workload.name,
                    variant=variant,
                    crash=crash_key,
                    seed=plan.seed,
                    eids=(),
                    minimized_eids=(),
                    image={},
                )
            )
        report.wall_s = time.perf_counter() - started
        return report

    report = CrashPointReport(
        crash=crash_key,
        crashed=True,
        num_events=space.num_events,
        num_edges=len(space.edges),
        exhaustive=plan.is_exhaustive_for(space),
        bound=enumeration_bound(space, plan),
        writes_before_crash=result.nvmm_writes,
    )

    def recover(eids: FrozenSet[int]) -> Tuple[bool, RunResult]:
        return _run_recovery(
            machine,
            workload,
            variant,
            space.image_for(eids),
            num_threads,
            engine,
            replay=replay,
        )

    def fails(eids: FrozenSet[int]) -> bool:
        return not recover(eids)[0]

    known: List[FrozenSet[int]] = []
    for candidate in enumerate_images(space, plan):
        report.images_checked += 1
        ok, recovery = recover(candidate.eids)
        report.recovery_ops += recovery.ops_executed
        report.recovery_cycles += recovery.exec_cycles
        if ok:
            continue
        report.images_diverged += 1
        if any(k <= candidate.eids for k in known):
            # An already-reported minimal failure is contained in this
            # image: same root cause, don't shrink or report it again.
            continue
        minimized = minimize_failure(space, candidate.eids, fails)
        known.append(frozenset(minimized))
        report.shrink_steps += len(candidate.eids) - len(minimized)
        report.counterexamples.append(
            Counterexample(
                workload=workload.name,
                variant=variant,
                crash=crash_key,
                seed=plan.seed,
                eids=tuple(sorted(candidate.eids)),
                minimized_eids=tuple(sorted(minimized)),
                image=space.image_for(minimized),
            )
        )
    report.wall_s = time.perf_counter() - started
    return report


def check_variant(
    workload: Workload,
    config: MachineConfig,
    variant: str,
    crash_plans: Sequence[CrashPlan],
    plan: Optional[EnumerationPlan],
    num_threads: int = 2,
    engine: str = "modular",
    cleaner_period: Optional[float] = None,
    replay: bool = True,
    journal: Optional[Any] = None,
) -> CrashCheckReport:
    """Check one variant at each crash point; see
    :func:`check_crash_point`.

    ``journal`` is any sink with ``emit(kind, **fields)`` (a
    :class:`repro.obs.journal.TelemetryJournal`); when given, the
    checker emits one ``campaign_point`` event per finished crash point
    and one ``counterexample`` event per shrunk failure — the streaming
    feed behind ``repro crashcheck --progress`` and ``repro watch``.
    """
    report = CrashCheckReport(workload=workload.name, variant=variant)
    label = f"{workload.name}/{variant}"
    for crash in crash_plans:
        point = check_crash_point(
            workload,
            config,
            variant,
            crash,
            plan,
            num_threads=num_threads,
            engine=engine,
            cleaner_period=cleaner_period,
            replay=replay,
        )
        report.points.append(point)
        if journal is not None:
            journal_point(journal, label, point)
    return report


def journal_point(journal: Any, label: str, point: CrashPointReport) -> None:
    """Write one finished crash point to ``journal``: its
    ``campaign_point`` event, then a ``counterexample`` event per
    shrunk failure.  :func:`check_variant` calls it as each point
    finishes; a campaign replays a cache-served report's points through
    it, so both journal the same events."""
    journal.emit(
        "campaign_point",
        label=label,
        crash=describe_plan(plan_from_dict(point.crash)),
        crashed=point.crashed,
        num_events=point.num_events,
        images_checked=point.images_checked,
        images_diverged=point.images_diverged,
        bound=point.bound,
        exhaustive=point.exhaustive,
        counterexamples=len(point.counterexamples),
        shrink_steps=point.shrink_steps,
        wall_s=round(point.wall_s, 6),
    )
    for cex in point.counterexamples:
        journal.emit(
            "counterexample",
            label=label,
            description=cex.describe(),
            crash=dict(cex.crash),
        )


def replay_counterexample(
    workload: Workload,
    config: MachineConfig,
    counterexample: Counterexample,
    num_threads: int = 2,
    engine: str = "modular",
    cleaner_period: Optional[float] = None,
) -> bool:
    """Re-run a counterexample from its replay fields.

    Returns True when the failure reproduces (recovery on the minimized
    image is still wrong).  Deterministic: the run, the snapshot, and
    the event ids all reproduce from (workload, config, crash point) —
    ``config`` must therefore carry the timing model the counterexample
    was found under (it changes multicore interleaving and hence the
    space's event ids).
    """
    machine = Machine(config)
    if cleaner_period is not None:
        machine.cleaner = PeriodicCleaner(cleaner_period)
    bound = workload.bind(machine, num_threads=num_threads, engine=engine)
    _, space = run_to_crash_space(
        machine,
        bound.threads(counterexample.variant),
        counterexample.crash_plan(),
    )
    if space is None:
        return False
    image = space.image_for(counterexample.minimized_eids)
    ok, _ = _run_recovery(
        machine,
        workload,
        counterexample.variant,
        image,
        num_threads,
        engine,
    )
    return not ok
