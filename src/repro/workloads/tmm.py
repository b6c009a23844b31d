"""Tiled matrix multiplication (paper sections II-B, IV; Figures 3, 4, 8, 9).

The 6-loop tiling of Figure 4 with the paper's variant set (Table IV):

* ``base`` — no failure safety;
* ``lp``   — Lazy Persistency (Figure 8): one checksum per LP region,
  committed lazily;
* ``ep``   — EagerRecompute: persist each tile-row stride with
  clflushopt as computation goes, fence + durable progress marker per
  tile ("a transaction covers a single tile");
* ``wal``  — one durable write-ahead-logged transaction per region
  (Figure 2's sequence via :class:`repro.core.wal.WriteAheadLog`).

Beyond the defaults, this module implements the paper's secondary
design space:

* **Region granularity** (section III-C / IV): ``granularity`` may be
  ``"jj"`` (one region per (kk, ii, jj) tile — smallest, most checksum
  commits), ``"ii"`` (the paper's choice: one region per (kk, ii)
  row-block), or ``"kk"`` (one region per thread per kk pass —
  cheapest checksums, most lost work on a crash).
* **Repair optimization** (section IV): ``repair="incremental"``
  searches for an earlier kk whose checksum still matches the damaged
  block and recomputes only the difference, instead of from scratch.
* **Checksum organization** (Figure 7): ``checksum_org="embedded"``
  stores each region's checksum in extra columns appended to the c
  matrix (Figure 7a) instead of the standalone collision-free table
  (Figure 7b, the paper's choice).

Work is partitioned by row-block: thread ``t`` owns the ii tiles with
``ii_tile % num_threads == t``, so no two threads ever write the same
c element and checksum slots are thread-private (section IV).

Recovery implements Figure 9 generalised to threads: every recovery
thread scans checksums in reverse kk order for its restart frontier,
repairs its own inconsistent row-blocks from the pristine inputs
(Eager), and resumes normal execution after the frontier.  Repair +
resume is correct for *any* frontier choice — the frontier only bounds
how much work is redone — which is what makes the paper's relaxed
associativity argument (section IV) sound.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.sim.isa import Compute, Fence, Load, Op, RegionMark, Store
from repro.sim.machine import Machine, ThreadGen
from repro.core.eager import (
    durable_store,
    persist_addrs,
    persist_region,
    progress_markers,
)
from repro.core.hashtable import INVALID_CHECKSUM
from repro.core.lazy import LPRuntime
from repro.core.region import RegionChecksum
from repro.core.wal import WriteAheadLog
from repro.workloads.arrays import PMatrix
from repro.schemes import (
    SCHEME_BASE,
    SCHEME_EP,
    SCHEME_EP_NOFENCE,
    SCHEME_LP,
    SCHEME_WAL,
)
from repro.workloads.base import (
    BoundWorkload,
    Workload,
    integer_matrix,
)
from repro.workloads.registry import register

GRANULARITIES = ("jj", "ii", "kk")
REPAIR_MODES = ("scratch", "incremental")
CHECKSUM_ORGS = ("table", "embedded")

class _Region(NamedTuple):
    """One LP region of a kk pass, as recovery sees it: the row-blocks
    (ii tiles) it covers, its jj tile at ``"jj"`` granularity (None
    otherwise, when it spans every jj tile), and its checksum slot's
    address.  Its cells come from :meth:`BoundTMM._cells`, on demand."""

    blocks: Tuple[int, ...]
    jjt: Optional[int]
    slot: int


class BoundTMM(BoundWorkload):
    """A TMM instance bound to one machine."""

    def __init__(
        self,
        spec: "TiledMatMul",
        machine: Machine,
        num_threads: int,
        engine: str,
    ) -> None:
        super().__init__(spec, machine, num_threads)
        n, b, T = spec.n, spec.bsize, spec.tiles
        self.a = PMatrix(machine, "tmm.a", n, n)
        self.b = PMatrix(machine, "tmm.b", n, n)
        # Figure 7a: the embedded organization widens c by one checksum
        # column per kk tile; slot (kkt, iit) lives at row ii, col n+kkt.
        extra_cols = T if spec.checksum_org == "embedded" else 0
        self.c = PMatrix(machine, "tmm.c", n, n + extra_cols)
        if spec.checksum_org == "embedded":
            table_dims = (1,)  # engine holder only; slots live in c
        elif spec.granularity == "jj":
            table_dims = (T, T, T)
        elif spec.granularity == "ii":
            table_dims = (T, T, num_threads)
        else:  # "kk"
            table_dims = (T, num_threads)
        self.lp = LPRuntime(machine, "tmm.cktab", dims=table_dims, engine=engine)
        # EagerRecompute per-thread progress markers.
        self.markers = progress_markers(machine, "tmm", num_threads)
        # WAL logs, one per thread, sized for one region's writes plus
        # the progress marker committed inside the same transaction.
        self.logs = [
            WriteAheadLog(machine, f"tmm.log.{t}", capacity=b * n + 1)
            for t in range(num_threads)
        ]
        if not machine.post_crash:
            rng = random.Random(spec.seed)
            self.a.fill(integer_matrix(rng, n, n))
            self.b.fill(integer_matrix(rng, n, n))
            if extra_cols:
                # checksum columns start durably invalid (section IV's
                # "initialize each checksum to an invalid value")
                full = np.zeros((n, n + extra_cols))
                full[:, n:] = INVALID_CHECKSUM
                self.c.fill(full)

    # ------------------------------------------------------------------
    # work partition
    # ------------------------------------------------------------------

    def my_ii_tiles(self, tid: int) -> List[int]:
        """Row-block (ii) tiles owned by thread ``tid``."""
        return [t for t in range(self.spec.tiles) if t % self.num_threads == tid]

    def owner_of(self, ii_tile: int) -> int:
        """Owning thread of an ii tile."""
        return ii_tile % self.num_threads

    # ------------------------------------------------------------------
    # LP regions and their checksum slots (standalone table vs embedded
    # columns)
    # ------------------------------------------------------------------

    def _slot_addr(
        self, kkt: int, iit: int, jjt: Optional[int], tid: int
    ) -> int:
        spec = self.spec
        if spec.checksum_org == "embedded":
            return self.c.addr(iit * spec.bsize, spec.n + kkt)
        if spec.granularity == "jj":
            assert jjt is not None
            return self.lp.table.slot_addr(kkt, iit, jjt)
        if spec.granularity == "ii":
            return self.lp.table.slot_addr(kkt, iit, tid)
        return self.lp.table.slot_addr(kkt, tid)

    def _pass_regions(self, kkt: int) -> List[_Region]:
        """Every thread's LP regions of kk pass ``kkt``, in scan order."""
        T = self.spec.tiles
        gran = self.spec.granularity
        if gran == "kk":
            return [
                _Region(
                    tuple(self.my_ii_tiles(t)), None,
                    self._slot_addr(kkt, 0, None, t),
                )
                for t in range(self.num_threads)
            ]
        jjts = range(T) if gran == "jj" else (None,)
        return [
            _Region(
                (iit,), jjt,
                self._slot_addr(kkt, iit, jjt, self.owner_of(iit)),
            )
            for iit in range(T)
            for jjt in jjts
        ]

    def _covering(self, kkt: int, iit: int) -> List[_Region]:
        """The regions of pass ``kkt`` that cover row-block ``iit``."""
        return [r for r in self._pass_regions(kkt) if iit in r.blocks]

    def _cells(self, region: _Region) -> Iterator[int]:
        """A region's c addresses in the exact order its checksum was
        updated (Figure 8): per row-block, jj tiles outermost, then i
        rows, then j."""
        b = self.spec.bsize
        jjts = range(self.spec.tiles) if region.jjt is None else (region.jjt,)
        c_addr = self.c.addr
        for iit in region.blocks:
            for jjt in jjts:
                for i in range(iit * b, iit * b + b):
                    for j in range(jjt * b, jjt * b + b):
                        yield c_addr(i, j)

    def _all_match(
        self, regions: List[_Region]
    ) -> Generator[Op, Optional[float], bool]:
        """IsMatchingChecksum on each region, up to the first miss."""
        for region in regions:
            ok = yield from self.lp.region_matches(
                self._cells(region), region.slot
            )
            if not ok:
                return False
        return True

    # ------------------------------------------------------------------
    # normal execution
    # ------------------------------------------------------------------

    def threads(self, variant: str) -> List[ThreadGen]:
        self.spec.check_variant(variant)
        return [
            self._worker(variant, tid, start_kk_tile=0)
            for tid in range(self.num_threads)
        ]

    def _worker(
        self, variant: str, tid: int, start_kk_tile: int
    ) -> ThreadGen:
        lp_kk = variant == SCHEME_LP and self.spec.granularity == "kk"
        for kkt in range(start_kk_tile, self.spec.kk_tiles):
            yield from self.tag(f"kk{kkt}")
            outer_ck = self.lp.begin_region() if lp_kk else None
            for iit in self.my_ii_tiles(tid):
                yield from self.tag(f"ii{iit}")
                yield RegionMark(f"tmm:{variant}:kk{kkt}:ii{iit}")
                yield from self._region(variant, tid, kkt, iit, outer_ck)
                yield from self.tag()
            if lp_kk:
                assert outer_ck is not None
                yield from self.lp.commit_slot(
                    self._slot_addr(kkt, 0, None, tid), outer_ck.value,
                    eager=self.spec.eager_checksum,
                )
            yield from self.tag()

    def _region(
        self,
        variant: str,
        tid: int,
        kkt: int,
        iit: int,
        outer_ck: Optional[RegionChecksum],
    ) -> Generator[Op, Optional[float], None]:
        """One ii iteration (the Figure 8 loop body)."""
        spec = self.spec
        n, b, T = spec.n, spec.bsize, spec.tiles
        kk, ii = kkt * b, iit * b
        gran = spec.granularity
        if variant in (SCHEME_EP, SCHEME_EP_NOFENCE):
            for jjt in range(T):
                yield from self._ep_tile(variant, tid, kkt, iit, jjt)
            return
        ck: Optional[RegionChecksum] = None
        wal_writes: List[tuple] = []
        if variant == SCHEME_LP:
            if gran == "kk":
                ck = outer_ck
            elif gran == "ii":
                ck = self.lp.begin_region()  # ResetCheckSum()

        a_addr, b_addr, c_addr = self.a.addr, self.b.addr, self.c.addr
        for jjt in range(T):
            jj = jjt * b
            if variant == SCHEME_LP and gran == "jj":
                ck = self.lp.begin_region()
            for i in range(ii, ii + b):
                for j in range(jj, jj + b):
                    s = yield Load(c_addr(i, j))
                    for k in range(kk, kk + b):
                        av = yield Load(a_addr(i, k))
                        bv = yield Load(b_addr(k, j))
                        s += av * bv
                    yield Compute(2 * b)  # the k-loop multiply-adds
                    if variant == SCHEME_WAL:
                        wal_writes.append((c_addr(i, j), s))
                    else:
                        yield Store(c_addr(i, j), s)
                    if ck is not None:
                        yield ck.update(s)  # UpdateCheckSum(c[i][j])
            if variant == SCHEME_LP and gran == "jj":
                assert ck is not None
                yield from self.lp.commit_slot(
                    self._slot_addr(kkt, iit, jjt, tid), ck.value,
                    eager=self.spec.eager_checksum,
                )

        if variant == SCHEME_LP and gran == "ii":
            assert ck is not None
            yield from self.lp.commit_slot(
                self._slot_addr(kkt, iit, None, tid), ck.value,
                eager=self.spec.eager_checksum,
            )
        elif variant == SCHEME_WAL:
            # The progress marker commits inside the transaction so a
            # rollback restores it together with the data it describes.
            wal_writes.append(
                (self.markers[tid].base, float(kkt * T + iit))
            )
            yield from self.logs[tid].transaction(wal_writes)

    def _ep_tile(
        self, variant: str, tid: int, kkt: int, iit: int, jjt: int
    ) -> Generator[Op, Optional[float], None]:
        """One EagerRecompute tile: compute + flush the rows, fence the
        data, then durably bump the progress marker ("a transaction
        covers a single tile").

        ``ep_nofence`` is this tile with the data fence dropped, a
        fault-injection variant native to this kernel.  The marker's
        own flush can then persist ahead of the tile's data flushes, so
        an image exists where the marker claims a tile that is not
        durable, and marker-trusting recovery produces wrong output on
        it.  The crash checker must find and minimize exactly that
        image; the plain single-image crash path cannot, because the
        simulated schedule persists data and marker together."""
        spec = self.spec
        b, T = spec.bsize, spec.tiles
        kk, ii, jj = kkt * b, iit * b, jjt * b
        a_addr, b_addr, c_addr = self.a.addr, self.b.addr, self.c.addr
        for i in range(ii, ii + b):
            for j in range(jj, jj + b):
                s = yield Load(c_addr(i, j))
                for k in range(kk, kk + b):
                    av = yield Load(a_addr(i, k))
                    bv = yield Load(b_addr(k, j))
                    s += av * bv
                yield Compute(2 * b)  # the k-loop multiply-adds
                yield Store(c_addr(i, j), s)
            # EagerRecompute: persist the finished row stride
            # (bsize elements = one clflushopt per covered line).
            yield from persist_addrs(self.c.row_addrs(i, jj, jj + b))
        if variant == SCHEME_EP:
            # wait for the tile's flushes before claiming progress
            yield Fence()
        yield from durable_store(
            self.markers[tid].base, float(self._tile_seq(kkt, iit, jjt))
        )

    # ------------------------------------------------------------------
    # progress-marker encoding (EP and WAL recovery)
    # ------------------------------------------------------------------

    def _tile_seq(self, kkt: int, iit: int, jjt: int) -> int:
        """Marker encoding of an EP tile; strictly increasing along any
        one thread's (kkt, iit, jjt) traversal order."""
        T = self.spec.tiles
        return (kkt * T + iit) * T + jjt

    def _ep_tile_order(self, tid: int) -> List[tuple]:
        """All of ``tid``'s EP tiles, in execution order."""
        T = self.spec.tiles
        return [
            (kkt, iit, jjt)
            for kkt in range(self.spec.kk_tiles)
            for iit in self.my_ii_tiles(tid)
            for jjt in range(T)
        ]

    def _wal_region_order(self, tid: int) -> List[tuple]:
        """All of ``tid``'s WAL regions (kkt, iit), in execution order;
        the marker for region (kkt, iit) is ``kkt * tiles + iit``."""
        return [
            (kkt, iit)
            for kkt in range(self.spec.kk_tiles)
            for iit in self.my_ii_tiles(tid)
        ]

    # ------------------------------------------------------------------
    # recovery (Figure 9)
    # ------------------------------------------------------------------

    def recovery_threads(self, variant: str) -> List[ThreadGen]:
        self.spec.check_variant(variant)
        if variant in (SCHEME_EP, SCHEME_EP_NOFENCE):
            recover = self._recover_ep
        elif variant == SCHEME_WAL:
            recover = self._recover_wal
        else:
            # lp (and base, which has no recovery story of its own)
            # uses the checksum scan: it rebuilds from any reachable
            # image.
            recover = self._recover
        return [recover(tid) for tid in range(self.num_threads)]

    def _recover_ep(self, tid: int) -> ThreadGen:
        """Marker-trusting EagerRecompute recovery.

        Tiles at or before the durable marker are trusted — the data
        fence preceding the marker commit made them durable first.
        Every later tile is recomputed from the pristine inputs to its
        last marked state (its c values may be a partial mix from the
        interrupted pass), then execution resumes after the marker.
        Sound for ``ep``; deliberately unsound for ``ep_nofence``,
        whose missing data fence lets the marker outrun the data.
        """
        yield RegionMark(f"tmm:recover-ep:t{tid}")
        done = yield Load(self.markers[tid].base)
        order = self._ep_tile_order(tid)
        done_pos = sum(
            1 for t in order if self._tile_seq(*t) <= done
        )
        # Repair: recompute each unmarked (iit, jjt) tile once, from
        # a/b alone, up to its last marked kk pass.
        todo: List[tuple] = []
        for _, iit, jjt in order[done_pos:]:
            if (iit, jjt) not in todo:
                todo.append((iit, jjt))
        for iit, jjt in todo:
            last = max(
                (
                    kkt
                    for kkt, i2, j2 in order[:done_pos]
                    if i2 == iit and j2 == jjt
                ),
                default=None,
            )
            yield RegionMark(f"tmm:recover-ep:t{tid}:repair:ii{iit}:jj{jjt}")
            yield from self._ep_repair_tile(iit, jjt, last)
        # Resume EagerRecompute (with its fences) after the marker.
        for kkt, iit, jjt in order[done_pos:]:
            yield from self._ep_tile(SCHEME_EP, tid, kkt, iit, jjt)

    def _ep_repair_tile(
        self, iit: int, jjt: int, last_kkt: Optional[int]
    ) -> Generator[Op, Optional[float], None]:
        """Restore one tile to its state after kk pass ``last_kkt``
        (zero if None) without reading c; persist eagerly."""
        b = self.spec.bsize
        ii, jj = iit * b, jjt * b
        k_hi = 0 if last_kkt is None else (last_kkt + 1) * b
        a_addr, b_addr, c_addr = self.a.addr, self.b.addr, self.c.addr
        for i in range(ii, ii + b):
            for j in range(jj, jj + b):
                s = 0.0
                for k in range(k_hi):
                    av = yield Load(a_addr(i, k))
                    bv = yield Load(b_addr(k, j))
                    s += av * bv
                if k_hi:
                    yield Compute(2 * k_hi)
                yield Store(c_addr(i, j), s)
            yield from persist_addrs(self.c.row_addrs(i, jj, jj + b))
        yield Fence()

    def _recover_wal(self, tid: int) -> ThreadGen:
        """WAL recovery: roll back the interrupted transaction — which
        restores the in-transaction progress marker together with the
        data it describes — then resume from the region after the
        marker."""
        yield RegionMark(f"tmm:recover-wal:t{tid}")
        yield from self.logs[tid].recovery_ops()
        done = yield Load(self.markers[tid].base)
        T = self.spec.tiles
        for kkt, iit in self._wal_region_order(tid):
            if kkt * T + iit <= done:
                continue
            yield RegionMark(f"tmm:wal:resume:kk{kkt}:ii{iit}")
            yield from self._region(SCHEME_WAL, tid, kkt, iit, None)

    def _recover(self, tid: int) -> ThreadGen:
        """Reverse-scan, repair own blocks, resume normal execution."""
        yield RegionMark(f"tmm:recover:t{tid}:scan")

        # 1. reverse scan over kk for the restart frontier (Figure 9
        #    lines 1-15): the last pass with any matching region.
        #    Timed: post-crash arch state == NVMM image.
        frontier: Optional[int] = None
        for kkt in reversed(range(self.spec.kk_tiles)):
            for region in self._pass_regions(kkt):
                found = yield from self.lp.region_matches(
                    self._cells(region), region.slot
                )
                if found:
                    frontier = kkt
                    break
            if frontier is not None:
                break

        # 2. repair this thread's row-blocks that are not exactly at the
        #    frontier.  A frontier region is re-committed, eagerly, once
        #    all its blocks are repaired, so a crash during the rest of
        #    recovery finds it consistent; a region with a block left
        #    alone matched after the repairs before that block.
        repaired: Dict[int, float] = {}
        done: Set[int] = set()
        for iit in self.my_ii_tiles(tid):
            regions = [] if frontier is None else self._covering(frontier, iit)
            if regions:
                ok = yield from self._all_match(regions)
                if ok:
                    continue
            yield RegionMark(f"tmm:recover:t{tid}:repair:ii{iit}")
            new_values = yield from self._repair_block(iit, frontier)
            repaired.update(new_values)
            done.add(iit)
            for region in regions:
                if done.issuperset(region.blocks):
                    yield from self.lp.recommit(
                        [repaired[addr] for addr in self._cells(region)],
                        region.slot,
                    )

        # 3. resume normal (Lazy) execution after the frontier.
        resume_from = 0 if frontier is None else frontier + 1
        yield from self._worker(SCHEME_LP, tid, start_kk_tile=resume_from)

    def _repair_block(
        self, iit: int, frontier: Optional[int]
    ) -> Generator[Op, Optional[float], Dict[int, float]]:
        """Repair(ii, kk): bring a row-block to its state after the
        frontier kk, with Eager Persistency (forward progress).
        Returns the block's new values by c address."""
        spec = self.spec
        n, b = spec.n, spec.bsize
        ii = iit * b
        k_hi = 0 if frontier is None else (frontier + 1) * b

        # Section IV's optimization: find an earlier kk whose checksum
        # still matches this block and recompute only the difference.
        base_kkt: Optional[int] = None
        if (
            spec.repair == "incremental"
            and spec.granularity == "ii"
            and frontier is not None
        ):
            for kkt in reversed(range(frontier)):
                ok = yield from self._all_match(self._covering(kkt, iit))
                if ok:
                    base_kkt = kkt
                    break
        k_lo = 0 if base_kkt is None else (base_kkt + 1) * b

        new_values: Dict[int, float] = {}
        a_addr, b_addr, c_addr = self.a.addr, self.b.addr, self.c.addr
        for i in range(ii, ii + b):
            for j in range(n):
                if base_kkt is None:
                    s = 0.0
                else:
                    s = yield Load(c_addr(i, j))
                for k in range(k_lo, k_hi):
                    av = yield Load(a_addr(i, k))
                    bv = yield Load(b_addr(k, j))
                    s += av * bv
                if k_hi > k_lo:
                    yield Compute(2 * (k_hi - k_lo))
                yield Store(c_addr(i, j), s)
                new_values[c_addr(i, j)] = s
        # persist the repaired block eagerly (forward progress)
        yield from persist_region(list(new_values))
        return new_values

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def reference(self) -> np.ndarray:
        a = self.a.to_numpy()
        bmat = self.b.to_numpy()
        k_hi = self.spec.kk_tiles * self.spec.bsize
        return a[:, :k_hi] @ bmat[:k_hi, :]

    def output(self, persistent: bool = False) -> np.ndarray:
        full = self.c.to_numpy(persistent=persistent)
        return full[:, : self.spec.n]

    @property
    def checksum_space_bytes(self) -> int:
        """Footprint of the checksum metadata (Figure 7 comparison)."""
        if self.spec.checksum_org == "embedded":
            return self.spec.n * self.spec.tiles * 8
        return self.lp.space_overhead_bytes


@register
class TiledMatMul(Workload):
    """c = a @ b with bsize x bsize tiles (Figure 4)."""

    name = "tmm"
    bound = BoundTMM
    variants = (SCHEME_BASE, SCHEME_LP, SCHEME_EP, SCHEME_WAL)
    broken_variants = (SCHEME_EP_NOFENCE,)

    def __init__(
        self,
        n: int = 96,
        bsize: int = 8,
        seed: int = 7,
        kk_tiles: Optional[int] = None,
        granularity: str = "ii",
        repair: str = "scratch",
        checksum_org: str = "table",
        eager_checksum: bool = False,
    ) -> None:
        if n % bsize != 0:
            raise WorkloadError(f"n={n} not divisible by bsize={bsize}")
        if granularity not in GRANULARITIES:
            raise WorkloadError(
                f"granularity {granularity!r} not in {GRANULARITIES}"
            )
        if repair not in REPAIR_MODES:
            raise WorkloadError(f"repair {repair!r} not in {REPAIR_MODES}")
        if checksum_org not in CHECKSUM_ORGS:
            raise WorkloadError(
                f"checksum_org {checksum_org!r} not in {CHECKSUM_ORGS}"
            )
        if checksum_org == "embedded" and granularity != "ii":
            raise WorkloadError(
                "the embedded organization (Fig 7a) is defined for the "
                "paper's ii-granularity regions"
            )
        self.n = n
        self.bsize = bsize
        self.seed = seed
        self.tiles = n // bsize
        self.granularity = granularity
        self.repair = repair
        self.checksum_org = checksum_org
        #: Section III-D's alternative: persist each checksum eagerly
        #: (flush + fence at every commit).  Removes the Figure 6 "R3"
        #: false negative at the cost of paying Eager Persistency for
        #: the checksum itself; the paper chooses lazy (False).
        self.eager_checksum = eager_checksum
        #: Simulation window: number of kk tiles to execute (the paper
        #: simulates 2 of 64 for its timing runs).  None = all.
        self.kk_tiles = self.tiles if kk_tiles is None else kk_tiles
        if not 1 <= self.kk_tiles <= self.tiles:
            raise WorkloadError(f"kk_tiles={kk_tiles} out of range")
