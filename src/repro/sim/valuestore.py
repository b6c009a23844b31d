"""Architectural vs. persistent value state.

The simulator tracks data at element (8-byte) granularity in two maps:

* the **architectural** view — what a load returns during execution;
  updated immediately by every store.  On real hardware this is the
  union of caches and memory; it is volatile.
* the **persistent** image — what the NVMM holds.  Updated only when a
  line's data is accepted into the memory controller's ADR-protected
  write queue (natural eviction, clflushopt/clwb, or the periodic
  cleaner).

A crash discards the architectural view; the post-crash machine is
rebuilt with ``arch = copy(persistent)``, which is exactly the paper's
failure model: store values that never left the cache hierarchy are
lost, everything accepted by the MC survives.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import AddressError
from repro.sim.address import element_addrs_of_line, is_element_aligned

Value = float  # elements are numbers; ints are preserved exactly too


class MemoryState:
    """Paired architectural / persistent value maps."""

    def __init__(self) -> None:
        self.arch: Dict[int, Value] = {}
        self.persistent: Dict[int, Value] = {}
        #: Stores are durable the instant they execute (eADR-class
        #: persistency models, where the caches sit inside the
        #: persistence domain).  Set by the Machine from its
        #: :class:`~repro.sim.model.PersistencyModel`; placing the
        #: branch here makes both execution paths — heap scheduler and
        #: replay loop — inherit it through the one store entry point.
        self.persist_on_store = False

    # -- program-visible accesses ----------------------------------------

    def load(self, addr: int) -> Value:
        """Architectural load (what the program sees)."""
        # Hot path: only aligned positive addresses ever enter the map
        # (init/store validate before writing), so a present key needs
        # no re-validation; diagnose alignment only on the miss path.
        try:
            return self.arch[addr]
        except KeyError:
            self._check(addr)
            raise AddressError(f"load from unwritten address {addr:#x}") from None

    def store(self, addr: int, value: Value) -> None:
        """Architectural store (volatile until a line writeback, unless
        the persistency model puts the caches in the domain)."""
        self._check(addr)
        self.arch[addr] = value
        if self.persist_on_store:
            self.persistent[addr] = value

    # -- initialisation ---------------------------------------------------

    def init(self, addr: int, value: Value) -> None:
        """Initialise an address durably (pre-existing NVMM contents).

        Array allocation and input data are treated as already durable,
        like data loaded into a persistent heap before the kernel runs.
        """
        self._check(addr)
        self.arch[addr] = value
        self.persistent[addr] = value

    # -- persistence ------------------------------------------------------

    def persist_line(self, line_addr: int) -> None:
        """Copy a line's current architectural data into the NVMM image."""
        for addr in element_addrs_of_line(line_addr):
            if addr in self.arch:
                self.persistent[addr] = self.arch[addr]

    def persisted(self, addr: int, default: Optional[Value] = None) -> Value:
        """The NVMM-image value, or ``default`` if provided."""
        self._check(addr)
        if addr in self.persistent:
            return self.persistent[addr]
        if default is not None:
            return default
        raise AddressError(f"address {addr:#x} has no persistent value")

    def is_divergent(self, addr: int) -> bool:
        """True if the architectural value has not been persisted."""
        self._check(addr)
        return self.arch.get(addr) != self.persistent.get(addr)

    # -- crash ------------------------------------------------------------

    def crashed_copy(self) -> "MemoryState":
        """State as seen after power loss: only the NVMM image survives."""
        return MemoryState.from_image(self.persistent)

    @classmethod
    def from_image(cls, image: Dict[int, Value]) -> "MemoryState":
        """State whose NVMM holds ``image`` and nothing else survives.

        This is the post-crash construction rule in one place: the
        architectural view equals the persistent image (recovery code
        reads exactly what the NVMM kept).  Used both for the schedule
        the simulator happened to produce (:meth:`crashed_copy`) and
        for any other member of a crash's reachable-image set
        (:meth:`repro.sim.machine.Machine.after_crash_with_image`).
        """
        fresh = cls()
        fresh.persistent = dict(image)
        fresh.arch = dict(image)
        return fresh

    @staticmethod
    def _check(addr: int) -> None:
        if not is_element_aligned(addr):
            raise AddressError(f"address {addr:#x} is not 8-byte aligned")
        if addr <= 0:
            raise AddressError(f"invalid address {addr:#x}")
