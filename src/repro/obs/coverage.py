"""Coverage accounting for verification campaigns (``repro.obs.coverage``).

Crashcheck and litmus campaigns used to report only a verdict; this
module makes the *extent* of a campaign first-class: how many reachable
images were actually checked against the enumeration bound, how the
exhaustive/sampled split fell per frontier epoch (event-count bucket),
how many images recovered vs. diverged, how much shrinking the
counterexamples took, and how fast the campaign ran (images/sec).

:class:`CoverageStats` (a JSON-safe document via ``to_dict``) is built
three ways:

* :func:`coverage_of_crashcheck` from a
  :class:`~repro.verify.checker.CrashCheckReport` (one per variant);
* :func:`coverage_of_litmus` from a litmus
  :class:`~repro.verify.litmus.ModelVerdict`;
* :func:`~repro.obs.journal.journal_summary` from the ``campaign_point``
  and ``litmus_program`` events of a journal, through the same
  :meth:`CoverageStats.add_point` accumulator.

The two report classes also expose their document as a
``.coverage()`` convenience method.  The invariants the test suite
pins: per-epoch image counts sum to the campaign total, and each
epoch's exhaustive flag equals the enumerator's own frontier decision
(``num_events <= max_exhaustive_events``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.verify.checker import CrashCheckReport
    from repro.verify.litmus import ModelVerdict

@dataclass
class EpochCoverage:
    """Coverage rolled up over all crash points with one event count.

    An *epoch* is an event-count bucket of the crash-state space: every
    point whose space has ``num_events`` persist events lands in the
    same epoch, and the whole epoch sits on one side of the enumeration
    frontier (``exhaustive``) by construction.
    """

    num_events: int
    points: int = 0
    images_checked: int = 0
    images_diverged: int = 0
    #: Candidate order ideals the enumerator generated for this epoch
    #: (before image dedup); ``images_checked <= bound`` always.
    bound: int = 0
    exhaustive: bool = True

    @property
    def images_recovered(self) -> int:
        return self.images_checked - self.images_diverged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_events": self.num_events,
            "points": self.points,
            "images_checked": self.images_checked,
            "images_diverged": self.images_diverged,
            "bound": self.bound,
            "exhaustive": self.exhaustive,
        }


@dataclass
class CoverageStats:
    """How much of the crash-state space one campaign actually checked."""

    #: Campaign label: ``workload/variant`` for crashcheck, the model
    #: name for litmus corpora.
    label: str
    #: ``"crashcheck"`` | ``"litmus"``.
    kind: str = "crashcheck"
    points: int = 0
    crashed_points: int = 0
    images_checked: int = 0
    images_diverged: int = 0
    counterexamples: int = 0
    #: Events dropped by counterexample shrinking, summed
    #: (``len(eids) - len(minimized_eids)`` per counterexample).
    shrink_steps: int = 0
    wall_s: float = 0.0
    epochs: List[EpochCoverage] = field(default_factory=list)

    # -- derived ---------------------------------------------------------

    @property
    def images_recovered(self) -> int:
        return self.images_checked - self.images_diverged

    @property
    def enumeration_bound(self) -> int:
        """Candidate ideals generated across every epoch."""
        return sum(e.bound for e in self.epochs)

    @property
    def exhaustive_points(self) -> int:
        return sum(e.points for e in self.epochs if e.exhaustive)

    @property
    def sampled_points(self) -> int:
        return sum(e.points for e in self.epochs if not e.exhaustive)

    @property
    def exhaustive_images(self) -> int:
        return sum(e.images_checked for e in self.epochs if e.exhaustive)

    @property
    def sampled_images(self) -> int:
        return sum(e.images_checked for e in self.epochs if not e.exhaustive)

    def exhaustive_fraction(self) -> float:
        """Fraction of checked images that came from exhaustive epochs."""
        if not self.images_checked:
            return 1.0
        return self.exhaustive_images / self.images_checked

    def images_per_sec(self) -> float:
        """Campaign throughput; 0.0 when no wall clock was recorded."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.images_checked / self.wall_s

    @property
    def ok(self) -> bool:
        return self.counterexamples == 0 and self.images_diverged == 0

    # -- accumulation ----------------------------------------------------

    def epoch(self, num_events: int, exhaustive: bool) -> EpochCoverage:
        """The epoch bucket for ``num_events``, created on first use."""
        for existing in self.epochs:
            if existing.num_events == num_events:
                return existing
        bucket = EpochCoverage(num_events=num_events, exhaustive=exhaustive)
        self.epochs.append(bucket)
        self.epochs.sort(key=lambda e: e.num_events)
        return bucket

    def add_point(
        self,
        num_events: int,
        images_checked: int,
        images_diverged: int = 0,
        bound: int = 0,
        exhaustive: bool = True,
        crashed: bool = True,
        wall_s: float = 0.0,
        counterexamples: int = 0,
        shrink_steps: int = 0,
    ) -> None:
        """Fold one crash point (or litmus program) into the stats.

        The same accumulator serves report-side builders and the
        journal's incremental ``campaign_point`` folding, so a
        mid-campaign coverage document reconciles with the final one.
        """
        self.points += 1
        self.crashed_points += 1 if crashed else 0
        self.images_checked += images_checked
        self.images_diverged += images_diverged
        self.counterexamples += counterexamples
        self.shrink_steps += shrink_steps
        self.wall_s += wall_s
        if crashed:
            bucket = self.epoch(num_events, exhaustive)
            bucket.points += 1
            bucket.images_checked += images_checked
            bucket.images_diverged += images_diverged
            bucket.bound += bound

    # -- JSON ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "kind": self.kind,
            "points": self.points,
            "crashed_points": self.crashed_points,
            "images_checked": self.images_checked,
            "images_recovered": self.images_recovered,
            "images_diverged": self.images_diverged,
            "counterexamples": self.counterexamples,
            "shrink_steps": self.shrink_steps,
            "enumeration_bound": self.enumeration_bound,
            "exhaustive_points": self.exhaustive_points,
            "sampled_points": self.sampled_points,
            "exhaustive_images": self.exhaustive_images,
            "sampled_images": self.sampled_images,
            "exhaustive_fraction": round(self.exhaustive_fraction(), 6),
            "wall_s": round(self.wall_s, 6),
            "images_per_sec": round(self.images_per_sec(), 3),
            "epochs": [e.to_dict() for e in self.epochs],
        }

    def summary(self) -> str:
        """One human line for CLI output and progress footers."""
        split = (
            "exhaustive"
            if not self.sampled_images
            else f"{100.0 * self.exhaustive_fraction():.1f}% exhaustive"
        )
        rate = self.images_per_sec()
        rate_part = f", {rate:.0f} img/s" if rate else ""
        return (
            f"{self.label}: {self.images_checked} images over "
            f"{self.points} points ({split}, "
            f"{self.images_diverged} diverged{rate_part})"
        )


# ----------------------------------------------------------------------
# builders from the verification layer's report objects
# ----------------------------------------------------------------------


def coverage_of_crashcheck(
    report: "CrashCheckReport", label: Optional[str] = None
) -> CoverageStats:
    """Coverage of one crash-state checking campaign (one variant
    across its crash-point grid)."""
    stats = CoverageStats(
        label=label or f"{report.workload}/{report.variant}",
        kind="crashcheck",
    )
    for point in report.points:
        stats.add_point(
            num_events=point.num_events,
            images_checked=point.images_checked,
            images_diverged=point.images_diverged,
            bound=point.bound,
            exhaustive=point.exhaustive,
            crashed=point.crashed,
            wall_s=point.wall_s,
            counterexamples=len(point.counterexamples),
            shrink_steps=point.shrink_steps,
        )
    return stats


def coverage_of_litmus(verdict: "ModelVerdict") -> CoverageStats:
    """Coverage of one litmus corpus under one model.

    Litmus enumeration is always exhaustive (programs above the event
    cap are rejected outright), so each program's bound equals its
    deduplicated image count; a divergent program counts as a
    counterexample and its images as diverged.
    """
    stats = CoverageStats(label=verdict.model, kind="litmus")
    for num_events, images, divergent in verdict.program_points:
        stats.add_point(
            num_events=num_events,
            images_checked=images,
            images_diverged=images if divergent else 0,
            bound=images,
            exhaustive=True,
            crashed=True,
            counterexamples=1 if divergent else 0,
        )
    stats.wall_s = verdict.wall_s
    return stats
