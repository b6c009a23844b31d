"""Standalone checksum hash table (paper Figure 7(b)).

The paper rejects embedding checksums into the protected data structure
(space overhead, programming complexity, layout interference) in favour
of a standalone table indexed by a collision-free key: for TMM the key
is (ii, kk, thread id) and the table has exactly one slot per region,
so no locks are needed — different threads hit disjoint slots.

Slots are initialised to :data:`INVALID_CHECKSUM` so recovery can tell
"region never committed a checksum" apart from "checksum mismatch"
(section IV's NaN / -1 discussion).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.address import Region
from repro.sim.machine import Machine
from repro.core.checksum import ChecksumEngine

#: Sentinel stored in never-written slots.  Real checksums are
#: non-negative integers, so -1 is unreachable.
INVALID_CHECKSUM = -1.0


class ChecksumTable:
    """A persistent, collision-free checksum table.

    ``dims`` gives the extent of each key component; the table has
    ``prod(dims)`` slots and key ``(k0, k1, ...)`` maps to the unique
    slot ``k0*dims[1]*dims[2]*... + k1*dims[2]*... + ...`` — the
    paper's "our design eliminates hash collisions".
    """

    def __init__(
        self,
        machine: Machine,
        name: str,
        dims: Sequence[int],
        engine: ChecksumEngine,
    ) -> None:
        if not dims or any(d <= 0 for d in dims):
            raise ConfigError(f"bad checksum table dims {dims!r}")
        self.machine = machine
        self.dims = tuple(dims)
        self.engine = engine
        num_slots = 1
        for d in self.dims:
            num_slots *= d
        self.num_slots = num_slots
        self.region: Region = machine.alloc_init(name, [INVALID_CHECKSUM] * num_slots)

    # -- keying ------------------------------------------------------------

    def slot(self, *key: int) -> int:
        """Map a multi-dimensional key to its unique slot index."""
        if len(key) != len(self.dims):
            raise ConfigError(
                f"key {key!r} has {len(key)} components, table has "
                f"{len(self.dims)} dimensions"
            )
        index = 0
        for k, d in zip(key, self.dims):
            if not 0 <= k < d:
                raise ConfigError(f"key component {k} out of range [0,{d})")
            index = index * d + k
        return index

    def slot_addr(self, *key: int) -> int:
        """Element address of a key's (unique) table slot."""
        return self.region.addr(self.slot(*key))

    # -- untimed reference: reads the NVMM image, for checking recovery ----

    def persisted_checksum(self, *key: int) -> float:
        """The slot's value in the NVMM image (recovery view)."""
        return self.machine.mem.persisted(self.slot_addr(*key), INVALID_CHECKSUM)

    def is_committed(self, *key: int) -> bool:
        """True if any checksum for this region ever persisted."""
        return self.persisted_checksum(*key) != INVALID_CHECKSUM

    def matches(self, values: Iterable[float], *key: int) -> bool:
        """Recompute a checksum over ``values`` and compare (Figure 5c).

        ``values`` must be read from the persistent image in the same
        order the region originally updated its checksum.
        """
        stored = self.persisted_checksum(*key)
        if stored == INVALID_CHECKSUM:
            return False
        return float(self.engine.of_values(values)) == stored

    def committed_keys(self) -> Tuple[int, ...]:
        """Slots holding a committed checksum (diagnostics/tests)."""
        return tuple(
            i
            for i in range(self.num_slots)
            if self.machine.mem.persisted(self.region.addr(i), INVALID_CHECKSUM)
            != INVALID_CHECKSUM
        )

    @property
    def size_bytes(self) -> int:
        return self.region.size_bytes
