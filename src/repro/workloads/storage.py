"""Persistent-storage workload family: append-only log + hashmap.

The paper's five kernels are dense numeric loops; real NVMM users run
logs, KV stores, and indexes (NVCache, "Logging vs. Paging" in
PAPERS.md).  These two workloads exercise exactly those layouts —
log-structured appends vs in-place slot updates — through the
region-declared protocol (:mod:`repro.workloads.regional`), so each is
registered once and runs under every scheme in :mod:`repro.schemes`:
base, LP, EP, WAL, write-behind, plus the deliberately broken
``wb_nojournal``.

Sharding: every thread owns private regions (its own log / its own
hashmap shard), the sharding-by-key-range story of ROADMAP's serving
scenario in miniature, and the disjointness the scheme layer's
per-thread recovery frontiers require.

* ``log`` appends fixed-width records; each region writes one record's
  payload plus the head counter.  Append-only means no coalescing:
  under write-behind the journal is pure overhead, the log-vs-in-place
  contrast the write-amplification bench shows.
* ``hashmap`` puts keys drawn from a small universe into a fixed-
  capacity open-addressed (linear-probe) table; updates rewrite the
  same slots, so write-behind's per-batch line coalescing beats EP's
  per-region flushes.  The probe loop is value-dependent — which is
  why the storage workloads are ``stream_safe = False`` and recovery
  redoes *declared* writes instead of re-executing bodies (a probe
  over a torn image could place a key in the wrong slot).
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.schemes import RegionContext, RegionDecl
from repro.sim.address import Region
from repro.sim.isa import Compute, Load
from repro.sim.machine import ThreadGen
from repro.workloads.arrays import PArray, PMatrix
from repro.workloads.regional import BoundRegionWorkload, RegionWorkload
from repro.workloads.registry import register

#: Payload values are small integers: exact in float64, so recovery
#: verification demands exact equality (same convention as the
#: kernels' integer matrices).
_VALUE_SPAN = 8

#: Per-thread seed stride (any odd prime keeps thread streams apart).
_THREAD_SEED_STRIDE = 7919


class BoundAppendLog(BoundRegionWorkload):
    def _bind_data(self, create: bool) -> None:
        spec = self.spec
        self.data: List[PMatrix] = [
            PMatrix(
                self.machine,
                f"log.data.{t}",
                spec.records,
                spec.width,
                create=create,
            )
            for t in range(self.num_threads)
        ]
        self.heads: List[Region] = [
            self.machine.scalar(f"log.head.{t}", 0.0)
            if create
            else self.machine.region(f"log.head.{t}")
            for t in range(self.num_threads)
        ]
        self.values = [
            spec.record_values(t) for t in range(self.num_threads)
        ]

    def plan(self, tid: int) -> List[RegionDecl]:
        decls = []
        for i, payload in enumerate(self.values[tid]):
            writes: Tuple[Tuple[int, float], ...] = tuple(
                (self.data[tid].addr(i, j), value)
                for j, value in enumerate(payload)
            ) + ((self.heads[tid].base, float(i + 1)),)
            decls.append(RegionDecl(seq=i, label=f"rec{i}", writes=writes))
        return decls

    def region_body(
        self, tid: int, decl: RegionDecl, ctx: RegionContext
    ) -> ThreadGen:
        head = yield Load(self.heads[tid].base)
        if int(head) != decl.seq:
            raise WorkloadError(
                f"log thread {tid}: head reads {head!r} before append "
                f"{decl.seq}"
            )
        for j, value in enumerate(self.values[tid][decl.seq]):
            yield from ctx.store(self.data[tid].addr(decl.seq, j), value)
        yield Compute(self.spec.width)
        yield from ctx.store(self.heads[tid].base, float(decl.seq + 1))

    # -- verification --------------------------------------------------------

    def reference(self) -> np.ndarray:
        parts = []
        for tid in range(self.num_threads):
            parts.append(
                np.array(self.values[tid], dtype=np.float64).reshape(-1)
            )
            parts.append(np.array([float(self.spec.records)]))
        return np.concatenate(parts)

    def output(self, persistent: bool = False) -> np.ndarray:
        parts = []
        for tid in range(self.num_threads):
            parts.append(
                self.data[tid].to_numpy(persistent=persistent).reshape(-1)
            )
            head = self.machine.read_region(
                self.heads[tid], persistent=persistent
            )[0]
            parts.append(np.array([head]))
        return np.concatenate(parts)


@register
class AppendLog(RegionWorkload):
    """Per-thread append-only log of fixed-width records."""

    name = "log"
    bound = BoundAppendLog

    def __init__(
        self,
        records: int = 16,
        width: int = 4,
        seed: int = 7,
        wb_batch: int = 4,
    ) -> None:
        if records < 1:
            raise WorkloadError(f"records must be >= 1, got {records}")
        if width < 1:
            raise WorkloadError(f"width must be >= 1, got {width}")
        if wb_batch < 1:
            raise WorkloadError(f"wb_batch must be >= 1, got {wb_batch}")
        self.records = records
        self.width = width
        self.seed = seed
        self.wb_batch = wb_batch

    def record_values(self, tid: int) -> List[List[float]]:
        """Thread ``tid``'s record payloads (deterministic per spec)."""
        rng = random.Random(self.seed + _THREAD_SEED_STRIDE * tid)
        return [
            [float(rng.randint(-_VALUE_SPAN, _VALUE_SPAN)) for _ in range(self.width)]
            for _ in range(self.records)
        ]


class BoundPersistentHashmap(BoundRegionWorkload):
    def _bind_data(self, create: bool) -> None:
        spec = self.spec
        self.slot_keys: List[PArray] = [
            PArray(self.machine, f"hashmap.keys.{t}", spec.capacity, create=create)
            for t in range(self.num_threads)
        ]
        self.slot_vals: List[PArray] = [
            PArray(self.machine, f"hashmap.vals.{t}", spec.capacity, create=create)
            for t in range(self.num_threads)
        ]
        self.put_sequences = [
            spec.puts(t) for t in range(self.num_threads)
        ]

    def plan(self, tid: int) -> List[RegionDecl]:
        decls = []
        for i, (key, value, slot) in enumerate(self.put_sequences[tid]):
            writes = (
                (self.slot_keys[tid].addr(slot), float(key)),
                (self.slot_vals[tid].addr(slot), value),
            )
            decls.append(
                RegionDecl(seq=i, label=f"put{i}", writes=writes)
            )
        return decls

    def region_body(
        self, tid: int, decl: RegionDecl, ctx: RegionContext
    ) -> ThreadGen:
        key, value, declared_slot = self.put_sequences[tid][decl.seq]
        capacity = self.spec.capacity
        slot = key % capacity
        while True:
            current = yield Load(self.slot_keys[tid].addr(slot))
            if current == 0.0 or current == float(key):
                break
            slot = (slot + 1) % capacity
        if slot != declared_slot:
            raise WorkloadError(
                f"hashmap thread {tid} put {decl.seq}: probe landed in "
                f"slot {slot}, plan declared {declared_slot}"
            )
        yield from ctx.store(self.slot_keys[tid].addr(slot), float(key))
        yield from ctx.store(self.slot_vals[tid].addr(slot), value)
        yield Compute(1)

    # -- verification --------------------------------------------------------

    def reference(self) -> np.ndarray:
        parts = []
        for tid in range(self.num_threads):
            keys = [0.0] * self.spec.capacity
            vals = [0.0] * self.spec.capacity
            for key, value, slot in self.put_sequences[tid]:
                keys[slot] = float(key)
                vals[slot] = value
            parts.append(np.array(keys + vals, dtype=np.float64))
        return np.concatenate(parts)

    def output(self, persistent: bool = False) -> np.ndarray:
        parts = []
        for tid in range(self.num_threads):
            parts.append(
                np.concatenate(
                    [
                        self.slot_keys[tid].to_numpy(persistent=persistent),
                        self.slot_vals[tid].to_numpy(persistent=persistent),
                    ]
                )
            )
        return np.concatenate(parts)


@register
class PersistentHashmap(RegionWorkload):
    """Per-thread open-addressed (linear-probe) persistent hashmap."""

    name = "hashmap"
    bound = BoundPersistentHashmap

    def __init__(
        self,
        capacity: int = 32,
        ops: int = 24,
        keys: int = 8,
        seed: int = 11,
        wb_batch: int = 4,
    ) -> None:
        if capacity < 2:
            raise WorkloadError(f"capacity must be >= 2, got {capacity}")
        if not 1 <= keys < capacity:
            raise WorkloadError(
                f"keys must be in [1, capacity), got keys={keys} "
                f"capacity={capacity}"
            )
        if ops < 1:
            raise WorkloadError(f"ops must be >= 1, got {ops}")
        if wb_batch < 1:
            raise WorkloadError(f"wb_batch must be >= 1, got {wb_batch}")
        self.capacity = capacity
        self.ops = ops
        self.keys = keys
        self.seed = seed
        self.wb_batch = wb_batch

    def puts(self, tid: int) -> List[Tuple[int, float, int]]:
        """Thread ``tid``'s (key, value, slot) sequence.

        Slots come from simulating the linear probe over the model
        table — the *declared* slot each put lands in.  The region
        body re-probes with timed loads and must agree; recovery
        never probes (blind redo of the declared writes).
        """
        rng = random.Random(self.seed + _THREAD_SEED_STRIDE * tid)
        table = [0] * self.capacity
        sequence = []
        for _ in range(self.ops):
            key = rng.randint(1, self.keys)
            value = float(rng.randint(-_VALUE_SPAN, _VALUE_SPAN))
            slot = key % self.capacity
            while table[slot] not in (0, key):
                slot = (slot + 1) % self.capacity
            table[slot] = key
            sequence.append((key, value, slot))
        return sequence
