"""The persistency-scheme registry: one name per persist protocol.

This module is the single source of truth for the variant axis.  The
string constants the workload layer, the CLI and crashcheck routing
use (``SCHEME_BASE`` .. ``SCHEME_WB_NOJOURNAL``) live here, and each
name maps to a :class:`PersistencyScheme` object carrying

* metadata — a one-line summary, whether the scheme is *sound* (has a
  crash-recovery guarantee the checker should prove on every reachable
  image) or deliberately *broken* (a fault-injection target the
  checker must flag), and whether it is *composable* (implements the
  generic region protocol of :mod:`repro.schemes.compose`; the tmm
  kernel's ``ep_nofence`` is registered for metadata/routing only and
  stays implemented natively);
* the composed forward protocol — how one declared region's stores are
  made durable;
* the generic recovery — find the scheme's restart frontier on the
  post-crash machine, reading the image only through timed loads like
  any recovery code, then blindly redo the declared writes from there
  with Eager Persistency (recovery must be eager for forward progress,
  paper section III-E).

Recovery is idempotent by construction: frontiers are recomputed from
the image, redone regions rewrite their declared values, and markers /
checksums are refinalised to the same values — running recovery twice
on one image yields an identical NVMM image (pinned by
``tests/verify/test_recovery_idempotence.py``).
"""

from __future__ import annotations

from abc import ABC
from typing import Dict, List

from repro.errors import WorkloadError
from repro.sim.isa import Fence, Flush, Load, RegionMark, Store
from repro.core.eager import (
    durable_store,
    persist_addrs,
    persist_region,
    writeback_addrs,
)
from repro.core.region import RegionChecksum
from repro.schemes.compose import RegionContext, RegionDecl

#: Scheme names (Table IV variants plus this repo's extensions).
SCHEME_BASE = "base"
SCHEME_LP = "lp"
SCHEME_EP = "ep"
SCHEME_WAL = "wal"
SCHEME_WRITE_BEHIND = "write_behind"
#: Deliberately broken schemes — fault-injection targets.
SCHEME_EP_NOFENCE = "ep_nofence"
SCHEME_WB_NOJOURNAL = "wb_nojournal"


class PersistencyScheme(ABC):
    """One named persist protocol, with composed forward + recovery."""

    #: Registry name (the CLI's ``--variant`` value).
    name: str = "abstract"
    #: One-line description for ``repro list``.
    summary: str = ""
    #: Carries a crash-consistency protocol with a bounded recovery
    #: procedure the checker should prove sound.  ``base`` is False:
    #: its only recovery is a full restart-from-scratch redo, so it is
    #: excluded from default crashcheck runs (matching the historical
    #: ``variant != "base"`` routing).
    sound: bool = False
    #: Deliberately unsound (the checker must *flag* it).
    broken: bool = False
    #: Implements the generic region protocol below.  False for
    #: schemes that exist only natively inside a kernel (ep_nofence).
    composable: bool = True

    # ------------------------------------------------------------------
    # composed forward execution
    # ------------------------------------------------------------------

    def forward_threads(self, host) -> List:
        self._require_composable(host)
        return [
            self.forward_thread(host, tid)
            for tid in range(host.num_threads)
        ]

    def forward_thread(self, host, tid: int):
        """The one region loop every scheme runs: open the region
        (provenance frame, mark), run its body under the scheme's
        context, check the declared writes, close it in the scheme's
        way, pop the frame, then run the scheme's post-region ops."""
        for decl in host.plans[tid]:
            yield from host.tag(decl.label)
            yield RegionMark(f"{host.spec.name}:{self.name}:{decl.label}")
            ctx = self._context(host)
            yield from host.region_body(tid, decl, ctx)
            self._check_writes(host, tid, decl, ctx)
            yield from self._end_region(host, tid, decl, ctx)
            yield from host.tag()
            yield from self._after_region(host, tid, decl)

    def _context(self, host) -> RegionContext:
        return RegionContext()

    def _end_region(self, host, tid: int, decl: RegionDecl, ctx):
        return
        yield  # pragma: no cover - empty generator idiom

    def _after_region(self, host, tid: int, decl: RegionDecl):
        return
        yield  # pragma: no cover - empty generator idiom

    def _check_writes(
        self, host, tid: int, decl: RegionDecl, ctx: RegionContext
    ) -> None:
        if tuple(ctx.writes) != decl.writes:
            raise WorkloadError(
                f"workload {host.spec.name!r} thread {tid} region "
                f"{decl.seq} ({decl.label}): body performed writes "
                f"{tuple(ctx.writes)!r} but declared {decl.writes!r}"
            )

    # ------------------------------------------------------------------
    # generic recovery: frontier + blind redo (Eager, section III-E)
    # ------------------------------------------------------------------

    def recovery_threads(self, host) -> List:
        self._require_composable(host)
        return [
            self.recovery_thread(host, tid)
            for tid in range(host.num_threads)
        ]

    def recovery_thread(self, host, tid: int):
        yield RegionMark(f"{host.spec.name}:{self.name}:recover:t{tid}")
        redo_from = yield from self._frontier(host, tid)
        plan = host.plans[tid]
        for decl in plan[redo_from:]:
            yield RegionMark(
                f"{host.spec.name}:{self.name}:redo:t{tid}:r{decl.seq}"
            )
            yield from self._redo_region(host, tid, decl)
        yield from self._finalize_recovery(host, tid)

    def _frontier(self, host, tid: int):
        """First region seq that must be redone (yields recovery ops).

        The base scheme has no durable progress record, so everything
        is redone — recovery degenerates to a restart-from-scratch
        replay of the declared writes.
        """
        return 0
        yield  # pragma: no cover - empty generator idiom

    def _redo_region(self, host, tid: int, decl: RegionDecl):
        """Blindly rewrite the region's declared writes, durably."""
        for addr, value in decl.writes:
            yield Store(addr, value)
        yield from persist_region(decl.addrs)
        yield from self._redo_extra(host, tid, decl)

    def _redo_extra(self, host, tid: int, decl: RegionDecl):
        return
        yield  # pragma: no cover - empty generator idiom

    def _finalize_recovery(self, host, tid: int):
        return
        yield  # pragma: no cover - empty generator idiom

    # ------------------------------------------------------------------

    def _require_composable(self, host) -> None:
        if not self.composable:
            raise WorkloadError(
                f"scheme {self.name!r} has no composed implementation; "
                f"it exists only natively inside specific kernels"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<scheme {self.name}>"


class BaseScheme(PersistencyScheme):
    """Plain stores: durability by natural eviction, no guarantee."""

    name = SCHEME_BASE
    summary = "plain stores, no persist protocol (no crash guarantee)"
    sound = False


class LazyScheme(PersistencyScheme):
    """Lazy Persistency (Figure 8): per-region running checksum,
    committed lazily; recovery rescans checksums for the frontier."""

    name = SCHEME_LP
    summary = "checksum regions, lazy commit, no flushes or fences"
    sound = True

    class _Context(RegionContext):
        def __init__(self, ck: RegionChecksum) -> None:
            super().__init__()
            self.ck = ck

        def store(self, addr, value):
            return (*super().store(addr, value), self.ck.update(float(value)))

    def _context(self, host):
        return self._Context(host.scheme_state.lp.begin_region())

    def _end_region(self, host, tid, decl, ctx):
        yield from host.scheme_state.lp.commit(ctx.ck, tid, decl.seq)

    def _frontier(self, host, tid):
        """Forward scan: first region whose slot is uncommitted or
        whose checksum, recomputed over the current values of its
        declared addresses, mismatches; recovery redoes from there.
        That is not exact when a later region overwrites an earlier
        region's address: the earlier checksum is then recomputed over
        the later value, a ``modular`` sum can collide on it
        (small-integer doubles differ in few high-word bits), and the
        earlier region passes without being redone (ROADMAP item 1).
        Workloads that write every address once never check a later
        region's value."""
        lp = host.scheme_state.lp
        for decl in host.plans[tid]:
            matches = yield from lp.region_matches(
                (addr for addr, _ in decl.writes),
                lp.table.slot_addr(tid, decl.seq),
            )
            if not matches:
                return decl.seq
        return len(host.plans[tid])

    def _redo_extra(self, host, tid, decl):
        """Recommit the redone region's checksum, eagerly."""
        lp = host.scheme_state.lp
        yield from lp.recommit(
            (value for _, value in decl.writes),
            lp.table.slot_addr(tid, decl.seq),
        )


class MarkerScheme(PersistencyScheme):
    """A scheme whose recovery trusts a durable per-thread progress
    marker (EP, WAL, write-behind): repair the thread's log, load the
    marker, redo every later region, then publish the last one."""

    def _frontier(self, host, tid):
        """Everything at or below the marker is durable."""
        yield from self._repair_log(host, tid)
        done = yield Load(host.scheme_state.markers[tid].base)
        return int(done) + 1

    def _repair_log(self, host, tid: int):
        return
        yield  # pragma: no cover - empty generator idiom

    def _finalize_recovery(self, host, tid):
        plan = host.plans[tid]
        if plan:
            marker = host.scheme_state.markers[tid]
            yield from durable_store(marker.base, float(len(plan) - 1))


class EagerScheme(MarkerScheme):
    """Eager Persistency: flush+fence every region, then a durable
    per-thread progress marker.

    A workload whose later regions re-read its output declares
    ``rereads_output``; its data lines are then written back with clwb,
    which keeps them cached, instead of clflushopt (see
    :func:`repro.core.eager.writeback_addrs`)."""

    name = SCHEME_EP
    summary = "clflushopt+sfence per region, durable progress marker"
    sound = True

    def _end_region(self, host, tid, decl, ctx):
        if host.spec.rereads_output:
            yield from writeback_addrs(decl.addrs)
        else:
            yield from persist_addrs(decl.addrs)
        yield Fence()
        marker = host.scheme_state.markers[tid]
        yield from durable_store(marker.base, float(decl.seq))


class WalScheme(MarkerScheme):
    """Write-ahead logging: every region is one durable undo-log
    transaction (Figure 2), publishing data and marker atomically."""

    name = SCHEME_WAL
    summary = "undo-log transaction per region (4 flush+fence sets)"
    sound = True

    def _context(self, host):
        return RegionContext(defer=True)

    def _end_region(self, host, tid, decl, ctx):
        marker = host.scheme_state.markers[tid]
        writes = tuple(decl.writes) + ((marker.base, float(decl.seq)),)
        yield from host.scheme_state.logs[tid].transaction(writes)

    def _repair_log(self, host, tid):
        """Roll back an interrupted transaction, which restores the
        marker it was publishing."""
        yield from host.scheme_state.logs[tid].recovery_ops()


class WriteBehindScheme(MarkerScheme):
    """Write-behind batching (the write-behind-cache pattern): stores
    coalesce in the volatile cache — the cache *is* the write-behind
    buffer — and every ``wb_batch`` regions the thread journals the
    coalesced dirty set, flushes it, and publishes a batch marker.

    Per-line cost drops when regions rewrite the same lines (one flush
    per distinct line per batch instead of per region), which is the
    coalescing win over Eager Persistency the write-amplification
    bench measures.
    """

    name = SCHEME_WRITE_BEHIND
    summary = "coalesce stores in cache, journal + flush per batch"
    sound = True
    #: Broken subclass drops the journal (and the data/marker fence).
    journal = True

    def _after_region(self, host, tid, decl):
        """Drain the batch this region completes.  Its coalesced dirty
        set is the batch's declared writes, last writer winning, which
        the region loop has checked the bodies performed."""
        plan = host.plans[tid]
        batch = host.scheme_state.wb_batch
        if (decl.seq + 1) % batch and decl.seq + 1 != len(plan):
            return
        pending: Dict[int, float] = {}
        for done in plan[decl.seq - decl.seq % batch : decl.seq + 1]:
            pending.update(done.writes)
        yield from self._drain(host, tid, decl.seq, pending)

    def _drain(self, host, tid: int, seq: int, pending: Dict[int, float]):
        """Persist one coalesced batch and publish its marker."""
        journal = host.scheme_state.journals[tid]
        marker = host.scheme_state.markers[tid]
        items = list(pending.items())
        if self.journal:
            # 1-2. journal the dirty queue (new values) and validate it.
            yield from journal.journal_batch(items, seq)
            # 3. flush the coalesced lines (data already stored by the
            #    region bodies; the cache held the write-behind buffer).
            yield from persist_region([addr for addr, _ in items])
            # 4. publish the batch and retire the journal.
            yield Store(marker.base, float(seq))
            yield Flush(marker.base)
            yield from journal.status_ops(0.0)
        else:
            # BROKEN: no journal, and the batch marker's flush races
            # the data flushes under a single trailing fence — the
            # marker can persist while batch data is still volatile
            # (the ep_nofence bug at batch granularity).
            yield Store(marker.base, float(seq))
            yield from persist_addrs([addr for addr, _ in items])
            yield Flush(marker.base)
            yield Fence()

    def _repair_log(self, host, tid):
        """Re-apply a validated in-flight batch from the journal, then
        publish the batch's marker."""
        journal = host.scheme_state.journals[tid]
        if (yield from journal.recovery_ops()):
            seq = yield Load(journal.seq_addr)
            yield from durable_store(host.scheme_state.markers[tid].base, seq)


class WriteBehindNoJournalScheme(WriteBehindScheme):
    """Deliberately broken write-behind: skips journaling its dirty
    queue, so a crash that persists a batch marker before the batch's
    data leaves recovery trusting a frontier the image never reached.
    The crash checker must flag this with a counterexample."""

    name = SCHEME_WB_NOJOURNAL
    summary = "BROKEN write-behind: batch published without a journal"
    sound = False
    broken = True
    journal = False


class EpNoFenceScheme(PersistencyScheme):
    """tmm's native fault-injection variant: Eager Persistency with
    the data fence dropped, so the progress marker's flush races the
    data flushes it is supposed to cover.  Registered for metadata and
    routing only — the implementation lives in
    :mod:`repro.workloads.tmm`."""

    name = SCHEME_EP_NOFENCE
    summary = "BROKEN eager: marker flush races unfenced data flushes"
    sound = False
    broken = True
    composable = False


_REGISTRY: Dict[str, PersistencyScheme] = {}


def _register(scheme: PersistencyScheme) -> PersistencyScheme:
    if scheme.name in _REGISTRY:  # pragma: no cover - module init
        raise WorkloadError(f"duplicate scheme name {scheme.name!r}")
    _REGISTRY[scheme.name] = scheme
    return scheme


_register(BaseScheme())
_register(LazyScheme())
_register(EagerScheme())
_register(WalScheme())
_register(WriteBehindScheme())
_register(WriteBehindNoJournalScheme())
_register(EpNoFenceScheme())


def get_scheme(name: str) -> PersistencyScheme:
    """The scheme registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown persistency scheme {name!r}; "
            f"available: {scheme_names()}"
        ) from None


def scheme_names() -> List[str]:
    """Every registered scheme name, sound and broken, sorted."""
    return sorted(_REGISTRY)


def sound_scheme_names() -> List[str]:
    """Schemes whose recovery the checker should prove, sorted."""
    return sorted(n for n, s in _REGISTRY.items() if s.sound)


def broken_scheme_names() -> List[str]:
    """Deliberate fault-injection schemes the checker must flag."""
    return sorted(n for n, s in _REGISTRY.items() if s.broken)


def composable_scheme_names() -> List[str]:
    """Schemes implementing the generic region protocol."""
    return sorted(n for n, s in _REGISTRY.items() if s.composable)
