"""Durable transactions with write-ahead logging (paper Figure 2).

The ``tmm+WAL`` baseline: every transaction performs the full PMEM
sequence — create undo-log entries, flush them, fence, mark the log
valid, flush, fence, perform and flush the data stores, fence, mark
the log invalid, flush, fence.  Four flush+fence sets per transaction,
exactly the cost anatomy section II-A walks through, which is why WAL
lands at ~6x execution time and ~4x writes in Figure 10.

The log is an undo log: entries hold (address, old value).  On
recovery, a persistent status of 1 means the crash hit between log
validation and commit, so logged old values are restored (eagerly);
status 0 means the data region is either untouched or fully committed.

The scheme layer's write-behind journal is this layout used as a redo
log: its entries hold the *new* values of one coalesced batch and its
``seq`` header slot the batch's marker, and the same restore re-applies
an interrupted batch instead of rolling a transaction back (a batch
spans many regions, whose pre-images no log keeps).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.isa import Fence, Flush, Load, Op, Store
from repro.sim.machine import Machine
from repro.core.eager import persist_addrs, persist_region

#: log header slots (share one line, so one flush covers the header)
_STATUS = 0
_COUNT = 1
_SEQ = 2
_HEADER_ELEMS = 8  # pad to a full line


class WriteAheadLog:
    """A per-thread undo log with a durable status word."""

    def __init__(self, machine: Machine, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError("log capacity must be positive")
        self.capacity = capacity
        # header line + (addr, value) pairs
        self.region = machine.alloc(name, _HEADER_ELEMS + 2 * capacity)

    # -- addressing ---------------------------------------------------------

    @property
    def status_addr(self) -> int:
        return self.region.addr(_STATUS)

    @property
    def count_addr(self) -> int:
        return self.region.addr(_COUNT)

    @property
    def seq_addr(self) -> int:
        """Where a write-behind journal records its batch's marker."""
        return self.region.addr(_SEQ)

    def entry_addrs(self, i: int) -> Tuple[int, int]:
        """(address-slot, value-slot) element addresses of entry i."""
        base = _HEADER_ELEMS + 2 * i
        return self.region.addr(base), self.region.addr(base + 1)

    # -- the durable transaction (Figure 2) ----------------------------------

    def transaction(
        self, writes: Sequence[Tuple[int, float]]
    ) -> Generator[Op, Optional[float], None]:
        """Durably apply ``writes`` = [(addr, new_value), ...]."""
        if len(writes) > self.capacity:
            raise ConfigError(
                f"transaction of {len(writes)} writes exceeds log "
                f"capacity {self.capacity}"
            )

        # 1. create log entries: old values, then flush the log.
        log_addrs: List[int] = [self.count_addr]
        for i, (addr, _) in enumerate(writes):
            old = yield Load(addr)
            a_addr, v_addr = self.entry_addrs(i)
            yield Store(a_addr, addr)
            yield Store(v_addr, old)
            log_addrs.extend((a_addr, v_addr))
        yield Store(self.count_addr, float(len(writes)))
        yield from persist_region(log_addrs)  # flushes + SFENCE (set 1)

        # 2. validate the log.
        yield from self.status_ops(1.0)  # set 2

        # 3. perform and persist the data writes.
        for addr, value in writes:
            yield Store(addr, value)
        yield from persist_addrs(addr for addr, _ in writes)
        yield Fence()  # set 3

        # 4. invalidate the log.
        yield from self.status_ops(0.0)  # set 4

    def journal_batch(
        self, writes: Sequence[Tuple[int, float]], seq: int
    ) -> Generator[Op, Optional[float], None]:
        """Journal a redo batch (new values, count, ``seq``), persist and
        validate it; the caller flushes the data, then retires the log."""
        logged: List[int] = [self.count_addr, self.seq_addr]
        for i, (addr, value) in enumerate(writes):
            a_addr, v_addr = self.entry_addrs(i)
            yield Store(a_addr, float(addr))
            yield Store(v_addr, value)
            logged.extend((a_addr, v_addr))
        yield Store(self.count_addr, float(len(writes)))
        yield Store(self.seq_addr, float(seq))
        yield from persist_region(logged)
        yield from self.status_ops(1.0)

    def status_ops(self, value: float) -> Tuple[Op, Op, Op]:
        """Store, clflushopt, sfence the status word (no generator frame)."""
        return Store(self.status_addr, value), Flush(self.status_addr), Fence()

    # -- recovery -------------------------------------------------------------

    def recovery_ops(self) -> Generator[Op, Optional[float], bool]:
        """Write the logged values of an interrupted, validated
        transaction back, then retire the log (Eager, forward-safe).

        Recovery code, so the status and count are timed loads.  Rolls
        an undo log back and re-applies a redo journal; returns whether
        the log held anything to restore.
        """
        status = yield Load(self.status_addr)
        if status != 1.0:
            return False
        count = yield Load(self.count_addr)
        restored: List[int] = []
        for i in range(int(count)):
            a_addr, v_addr = self.entry_addrs(i)
            target = yield Load(a_addr)
            value = yield Load(v_addr)
            yield Store(int(target), value)
            restored.append(int(target))
        yield from persist_region(restored)
        yield from self.status_ops(0.0)
        return True
