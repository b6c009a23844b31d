"""Idempotent-region analysis (paper section III-E).

The paper notes that when LP regions are *idempotent* — re-executable
without changing the program's output — recovery code is trivially the
region code itself, and that such regions "can be identified through
compiler analysis" (citing de Kruijf et al.).  This module is that
analysis, applied dynamically: record a region's memory footprint and
check the idempotence criterion.

A region is idempotent iff it never **overwrites a live-in**: no
location is loaded before the region's own store to it and stored
later in the same region.  (Re-running such a region would read its
own previous output instead of the original input.)  Reads of
locations the region wrote *earlier* are fine — re-execution
regenerates them identically.

Applied to the Table V kernels this reproduces exactly the recovery
split the workloads implement:

* conv2d, fft, cholesky — idempotent regions, recompute-in-place
  recovery;
* tmm, gauss — regions overwrite live-ins (c accumulates, elimination
  updates rows in place), so recovery needs the reverse-frontier /
  replay machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.sim.isa import Load, Op, RegionMark, Store
from repro.sim.machine import Machine


@dataclass
class RegionFootprint:
    """Memory footprint of one executed region."""

    label: str
    #: Addresses loaded before this region stored them (live-ins).
    live_ins: Set[int] = field(default_factory=set)
    #: All addresses the region stored.
    stores: Set[int] = field(default_factory=set)
    loads: int = 0
    store_ops: int = 0

    @property
    def overwritten_live_ins(self) -> Set[int]:
        """Live-in locations the region also writes — the idempotence
        violations."""
        return self.live_ins & self.stores

    @property
    def is_idempotent(self) -> bool:
        return not self.overwritten_live_ins

    def observe(self, op: Op) -> None:
        """Fold one op into the footprint."""
        if isinstance(op, Load):
            self.loads += 1
            if op.addr not in self.stores:
                self.live_ins.add(op.addr)
        elif isinstance(op, Store):
            self.store_ops += 1
            self.stores.add(op.addr)


@dataclass
class IdempotenceReport:
    """Classification of every region observed in a run."""

    regions: List[RegionFootprint] = field(default_factory=list)

    @property
    def all_idempotent(self) -> bool:
        return all(r.is_idempotent for r in self.regions)

    @property
    def violating_regions(self) -> List[RegionFootprint]:
        return [r for r in self.regions if not r.is_idempotent]

    def summary(self) -> Dict[str, int]:
        """Counts of total / idempotent / violating regions."""
        return {
            "regions": len(self.regions),
            "idempotent": sum(1 for r in self.regions if r.is_idempotent),
            "violating": len(self.violating_regions),
        }


def analyze_trace(ops: Sequence[Op]) -> IdempotenceReport:
    """Split one thread's recorded ops at RegionMarks and classify
    each region.

    Ops before the first mark form an implicit preamble region only if
    they touch memory; marker-only boundaries follow the convention the
    workloads use (one RegionMark at each region *start*).
    """
    report = IdempotenceReport()
    current: Optional[RegionFootprint] = None
    for op in ops:
        if isinstance(op, RegionMark):
            current = RegionFootprint(label=op.label)
            report.regions.append(current)
            continue
        if current is None:
            if isinstance(op, (Load, Store)):
                current = RegionFootprint(label="<preamble>")
                report.regions.append(current)
            else:
                continue
        current.observe(op)
    return report


def classify_workload(
    workload,
    machine: Machine,
    variant: str = "lp",
    num_threads: int = 1,
    engine: str = "modular",
) -> IdempotenceReport:
    """Run a workload under a probe-bus recorder and classify its LP
    regions.

    Thread ``i`` runs on core ``i``, so splitting the recorded ops by
    core gives each thread's op sequence.  The checksum-table commit at
    a region's end stores to a slot the region never reads, so it
    cannot break idempotence; the data accesses decide.
    """
    from repro.obs import TraceRecorder, probed

    bound = workload.bind(machine, num_threads=num_threads, engine=engine)
    recorder = TraceRecorder()
    with probed(machine, [recorder]):
        machine.run(bound.threads(variant))
    report = IdempotenceReport()
    for core_id in range(num_threads):
        ops = [ev.op for ev in recorder.ops if ev.core_id == core_id]
        report.regions.extend(analyze_trace(ops).regions)
    return report
