"""Eager Persistency helpers (PMEM-style flush + fence sequences).

These are the building blocks of the paper's baselines and of LP's own
recovery code (which is deliberately Eager to guarantee forward
progress, section III-E): ``clflushopt`` every line covering a set of
addresses, then one ``sfence``; and the per-thread durable progress
markers the Eager baselines publish.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

from repro.sim.address import Region, line_of
from repro.sim.isa import Fence, Flush, FlushWB, Op, Store
from repro.sim.machine import Machine


def lines_covering(addrs: Iterable[int]) -> list:
    """Distinct line addresses covering ``addrs``, in first-seen order.

    clflushopt works on whole lines, so flushing a 16-element stride
    that spans two lines takes two flushes — this dedupe is what lets
    the paper say a bsize tile row "can be persisted using only one
    clflushopt".
    """
    seen = []
    seen_set = set()
    for addr in addrs:
        line = line_of(addr)
        if line not in seen_set:
            seen_set.add(line)
            seen.append(line)
    return seen


def persist_addrs(addrs: Iterable[int]) -> Generator[Op, Optional[float], None]:
    """clflushopt every line under ``addrs`` (no fence)."""
    for line in lines_covering(addrs):
        yield Flush(line)


def writeback_addrs(addrs: Iterable[int]) -> Generator[Op, Optional[float], None]:
    """clwb every line under ``addrs`` (no fence): persist but keep the
    lines cached.

    x86 provides clwb precisely for data that will be read again soon
    after being persisted; Eager variants of kernels that immediately
    re-read their own output (e.g. Cholesky's left-looking columns) use
    this instead of clflushopt so the eager cost is the flush + fence
    traffic itself, not an artificial invalidation-refetch storm that
    the paper's out-of-order cores would have overlapped.
    """
    for line in lines_covering(addrs):
        yield FlushWB(line)


def persist_region(addrs: Iterable[int]) -> Generator[Op, Optional[float], None]:
    """clflushopt every line under ``addrs``, then sfence.

    The canonical Eager Persistency "make this durable now" sequence.
    """
    yield from persist_addrs(addrs)
    yield Fence()


def durable_store(addr: int, value: float) -> Generator[Op, Optional[float], None]:
    """store; clflushopt; sfence — one durably ordered store."""
    yield Store(addr, value)
    yield Flush(addr)
    yield Fence()


def progress_markers(
    machine: Machine, prefix: str, num_threads: int
) -> List[Region]:
    """One durable progress marker per thread, ``{prefix}.progress.{t}``.

    Markers start at -1 (nothing done); a thread publishes progress with
    :func:`durable_store` on its marker's ``base``.  On a post-crash
    machine they are the markers already in the image, as they stand.
    """
    return [
        machine.scalar(f"{prefix}.progress.{t}", -1.0)
        for t in range(num_threads)
    ]
