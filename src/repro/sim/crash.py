"""Crash injection helpers.

A crash is modelled exactly as the paper assumes: execution stops at an
arbitrary point, all volatile state (caches, store buffers, in-flight
ops) is lost, and the NVMM image — everything the ADR-protected memory
controller accepted — survives.  Recovery code then runs on a fresh
machine whose architectural state equals that image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.machine import Machine, RunResult, ThreadGen
from repro.sim.persist import CrashStateSpace


@dataclass(frozen=True)
class CrashPlan:
    """Where to stop the run.  Exactly one trigger must be set.

    ``at_op`` stops with exactly N ops executed, before the next
    fetched op runs.  ``at_flush`` stops right after the Nth flush op
    — a persist boundary, where a just-accepted flush has no ordering
    fence behind it yet and the reachable-image set is at its widest.
    Crash-state campaigns sweep it alongside coarse ``at_op`` grids.
    """

    at_op: Optional[int] = None
    at_flush: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.at_op is None) == (self.at_flush is None):
            raise ConfigError("CrashPlan needs exactly one trigger")


def run_with_crash(
    machine: Machine,
    threads: Iterable[ThreadGen],
    plan: CrashPlan,
) -> Tuple[RunResult, Machine]:
    """Run until the crash point; return the result and the post-crash
    machine (cold caches, NVMM image as architectural state).

    If the workload finishes before the trigger fires, the run result's
    ``crashed`` flag is False and the returned machine reflects a
    graceful end (the caller decides whether to treat that as a test
    failure or a no-crash control case).
    """
    result = machine.run(
        threads, crash_at_op=plan.at_op, crash_at_flush=plan.at_flush
    )
    return result, machine.after_crash()


def run_to_crash_space(
    machine: Machine,
    threads: Iterable[ThreadGen],
    plan: CrashPlan,
) -> Tuple[RunResult, Optional[CrashStateSpace]]:
    """Run until the crash point and snapshot the *set* of reachable
    NVMM images (see :meth:`Machine.crash_state_space`).

    Returns ``(result, space)``; ``space`` is None when the workload
    finished before the trigger fired (nothing crashed, nothing to
    enumerate).  This is the model-checking counterpart of
    :func:`run_with_crash`, which commits to the single image the
    simulated schedule produced.  ``machine`` must not have run yet:
    the persist order is recorded from its first op
    (:meth:`Machine.track_persists`).
    """
    machine.track_persists()
    result = machine.run(
        threads, crash_at_op=plan.at_op, crash_at_flush=plan.at_flush
    )
    if not result.crashed:
        return result, None
    return result, machine.crash_state_space()
