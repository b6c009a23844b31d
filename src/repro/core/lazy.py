"""The Lazy Persistency programmer API (paper Figures 5, 8 and 9).

:class:`LPRuntime` bundles a checksum engine with a collision-free
checksum table and exposes the three-call pattern of Figure 8::

    ck = lp.begin_region()              # ResetCheckSum()
    ...
    yield Store(addr, v)
    yield ck.update(v)                  # UpdateCheckSum(v)
    ...
    yield from lp.commit(ck, ii, kk, tid)   # HashTable[h] = GetCheckSum()

Nothing is flushed and no fences are issued: both the data and the
checksum reach NVMM by natural cache eviction.

It is also the one implementation of LP's slot-level steps, forward
and recovery.  Each takes a checksum slot's element address, so it
serves a table slot (``lp.table.slot_addr(*key)``) and a checksum
embedded in the data (tmm's Figure 7a columns) alike:

* :meth:`LPRuntime.committed` — has any checksum persisted there;
* :meth:`LPRuntime.region_matches` — Figure 9's IsMatchingChecksum,
  timed on the post-crash machine;
* :meth:`LPRuntime.commit_slot` — the lazy or eager checksum store;
* :meth:`LPRuntime.recommit` — the eager re-commit after Repair that
  keeps recovery re-entrant (section III-E).
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Sequence

from repro.sim.isa import Compute, Fence, Flush, Load, Op, Store
from repro.sim.machine import Machine
from repro.core.checksum import ChecksumEngine, get_engine
from repro.core.hashtable import INVALID_CHECKSUM, ChecksumTable
from repro.core.region import RegionChecksum

#: Arithmetic cost of computing a slot index from the key.
_HASH_FLOPS = 1.0


class LPRuntime:
    """Lazy Persistency over one checksum table."""

    def __init__(
        self,
        machine: Machine,
        table_name: str,
        dims: Sequence[int],
        engine: "ChecksumEngine | str" = "modular",
        create: bool = True,
    ) -> None:
        self.engine = get_engine(engine) if isinstance(engine, str) else engine
        self.table = ChecksumTable(
            machine, table_name, dims, self.engine, create=create
        )
        self.machine = machine

    # -- normal execution ---------------------------------------------------

    def begin_region(self) -> RegionChecksum:
        """ResetCheckSum(): a fresh running checksum for a new region."""
        return RegionChecksum(self.engine)

    def commit(
        self, ck: RegionChecksum, *key: int
    ) -> Generator[Op, Optional[float], None]:
        """Store the region's checksum to its table slot, lazily."""
        yield from self.commit_slot(self.table.slot_addr(*key), ck.value)

    @staticmethod
    def commit_slot(
        slot: int, checksum: int, eager: bool = False
    ) -> Generator[Op, Optional[float], None]:
        """HashTable[h] = GetCheckSum(): one hash-index computation and
        a plain store, which reaches NVMM by natural eviction.  ``eager``
        adds clflushopt + sfence (the section III-D alternative)."""
        yield Compute(_HASH_FLOPS)
        yield Store(slot, float(checksum))
        if eager:
            yield Flush(slot)
            yield Fence()

    # -- recovery side --------------------------------------------------------

    def committed(self, slot: int) -> bool:
        """True if any checksum ever persisted at ``slot`` (untimed: it
        reads the NVMM image)."""
        return (
            self.machine.mem.persisted(slot, INVALID_CHECKSUM)
            != INVALID_CHECKSUM
        )

    def region_matches(
        self, addrs: Iterable[int], slot: int
    ) -> Generator[Op, Optional[float], bool]:
        """Figure 9's IsMatchingChecksum, timed: load the region's
        values in checksum-update order, charge the whole fold as one
        ``Compute``, load the slot and compare.

        A slot that never committed returns False at once and issues no
        op: the region needs recomputation either way.
        """
        if not self.committed(slot):
            return False
        ck = self.begin_region()
        for addr in addrs:
            value = yield Load(addr)
            ck.update(value)
        yield Compute(ck.updates * self.engine.flops_per_update)
        stored = yield Load(slot)
        return float(ck.value) == stored

    def recommit(
        self, values: Iterable[float], slot: int
    ) -> Generator[Op, Optional[float], None]:
        """Eagerly re-commit the checksum of a repaired region's known
        values, so a crash during the rest of recovery finds the region
        consistent (section III-E)."""
        ck = self.begin_region()
        for value in values:
            ck.update(value)
        yield Compute(ck.updates * self.engine.flops_per_update)
        yield from self.commit_slot(slot, ck.value, eager=True)

    @property
    def space_overhead_bytes(self) -> int:
        """Table footprint (the paper reports ~1% of the matrices)."""
        return self.table.size_bytes
