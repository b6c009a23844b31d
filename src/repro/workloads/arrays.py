"""Persistent array/matrix views over simulator regions.

These views allocate (or re-attach to) a workload's regions and map
element indices to addresses.  Kernels time every element access by
yielding :mod:`repro.sim.isa` ops on those addresses directly
(``v = yield Load(m.addr(i, j))``), so each goes through the simulated
cache hierarchy.  The bulk accessors are untimed and serve
initialisation, reference computation and verification only.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.sim.address import ELEMENT_BYTES, Region
from repro.sim.machine import Machine


class PArray:
    """A 1-D persistent array of 64-bit values."""

    def __init__(self, machine: Machine, name: str, n: int, create: bool = True):
        self.machine = machine
        self.name = name
        self.n = n
        self.region: Region = (
            machine.alloc(name, n) if create else machine.region(name)
        )
        if self.region.num_elements != n:
            raise WorkloadError(
                f"region {name!r} holds {self.region.num_elements} elements, "
                f"expected {n}"
            )

    def addr(self, i: int) -> int:
        """Element address of index ``i``."""
        return self.region.addr(i)

    # -- untimed bulk access --------------------------------------------------

    def values(self, persistent: bool = False) -> List[float]:
        """Untimed bulk read (validation only)."""
        return self.machine.read_region(self.region, persistent=persistent)

    def to_numpy(self, persistent: bool = False) -> np.ndarray:
        """As a numpy vector (untimed)."""
        return np.array(self.values(persistent=persistent), dtype=np.float64)

    def fill(self, values: Sequence[float]) -> None:
        """Durably initialise (pre-existing NVMM contents)."""
        if len(values) != self.n:
            raise WorkloadError(
                f"fill of {len(values)} values into array of {self.n}"
            )
        for addr, v in zip(self.region.element_addrs(), values):
            self.machine.mem.init(addr, float(v))


class PMatrix:
    """A row-major 2-D persistent matrix."""

    def __init__(
        self,
        machine: Machine,
        name: str,
        rows: int,
        cols: int,
        create: bool = True,
    ):
        self.machine = machine
        self.name = name
        self.rows = rows
        self.cols = cols
        self.region: Region = (
            machine.alloc(name, rows * cols) if create else machine.region(name)
        )
        if self.region.num_elements != rows * cols:
            raise WorkloadError(
                f"region {name!r} holds {self.region.num_elements} elements, "
                f"expected {rows * cols}"
            )

    def index(self, i: int, j: int) -> int:
        """Row-major flat index of (i, j)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise WorkloadError(
                f"({i},{j}) out of bounds for {self.rows}x{self.cols} "
                f"matrix {self.name!r}"
            )
        return i * self.cols + j

    def addr(self, i: int, j: int) -> int:
        """Element address of (i, j)."""
        # Hot path for every timed element access: one combined bounds
        # check (an in-range (i, j) is always in range for the region).
        if 0 <= i < self.rows and 0 <= j < self.cols:
            return self.region.base + (i * self.cols + j) * ELEMENT_BYTES
        raise WorkloadError(
            f"({i},{j}) out of bounds for {self.rows}x{self.cols} "
            f"matrix {self.name!r}"
        )

    # -- untimed bulk access ----------------------------------------------------

    def to_numpy(self, persistent: bool = False) -> np.ndarray:
        """As a numpy matrix (untimed)."""
        flat = self.machine.read_region(self.region, persistent=persistent)
        return np.array(flat, dtype=np.float64).reshape(self.rows, self.cols)

    def fill(self, array: np.ndarray) -> None:
        """Durably initialise from a numpy array."""
        if array.shape != (self.rows, self.cols):
            raise WorkloadError(
                f"fill shape {array.shape} != ({self.rows},{self.cols})"
            )
        flat = array.reshape(-1)
        for addr, v in zip(self.region.element_addrs(), flat):
            self.machine.mem.init(addr, float(v))

    def row_addrs(self, i: int, j0: int, j1: int) -> List[int]:
        """Element addresses of c[i][j0:j1] (contiguous: flush-friendly)."""
        return [self.addr(i, j) for j in range(j0, j1)]
