"""Unit tests for persistent array/matrix views."""

import numpy as np
import pytest

from repro.errors import AddressError, WorkloadError
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.isa import Load, Store
from repro.sim.machine import Machine
from repro.workloads.arrays import PArray, PMatrix


def tiny_machine():
    return Machine(
        MachineConfig(
            num_cores=1,
            l1=CacheConfig(512, 2, hit_cycles=2.0),
            l2=CacheConfig(4096, 2, hit_cycles=11.0),
        )
    )


class TestPArray:
    def test_read_write_roundtrip(self):
        m = tiny_machine()
        arr = PArray(m, "x", 8)

        def kernel():
            yield Store(arr.addr(3), 7.5)
            v = yield Load(arr.addr(3))
            yield Store(arr.addr(4), v * 2)

        m.run([kernel()])
        assert arr.values()[3] == 7.5
        assert arr.values()[4] == 15.0

    def test_fill_is_durable(self):
        m = tiny_machine()
        arr = PArray(m, "x", 4)
        arr.fill([1.0, 2.0, 3.0, 4.0])
        assert arr.values(persistent=True) == [1.0, 2.0, 3.0, 4.0]

    def test_fill_length_checked(self):
        m = tiny_machine()
        arr = PArray(m, "x", 4)
        with pytest.raises(WorkloadError):
            arr.fill([1.0])

    def test_rebind(self):
        m = tiny_machine()
        PArray(m, "x", 4).fill([1.0, 2.0, 3.0, 4.0])
        post = m.after_crash()
        again = PArray(post, "x", 4)
        assert again.region == m.region("x")
        assert again.values() == [1.0, 2.0, 3.0, 4.0]

    def test_rebind_size_mismatch(self):
        m = tiny_machine()
        PArray(m, "x", 4)
        with pytest.raises(AddressError):
            PArray(m.after_crash(), "x", 5)

    def test_to_numpy(self):
        m = tiny_machine()
        arr = PArray(m, "x", 3)
        arr.fill([1.0, 2.0, 3.0])
        assert np.array_equal(arr.to_numpy(), np.array([1.0, 2.0, 3.0]))


class TestPMatrix:
    def test_row_major_layout(self):
        m = tiny_machine()
        mat = PMatrix(m, "m", 3, 4)
        assert mat.index(0, 0) == 0
        assert mat.index(1, 0) == 4
        assert mat.index(2, 3) == 11

    def test_bounds_checked(self):
        m = tiny_machine()
        mat = PMatrix(m, "m", 3, 4)
        with pytest.raises(WorkloadError):
            mat.index(3, 0)
        with pytest.raises(WorkloadError):
            mat.index(0, 4)
        with pytest.raises(WorkloadError):
            mat.index(-1, 0)

    def test_fill_and_to_numpy(self):
        m = tiny_machine()
        mat = PMatrix(m, "m", 2, 2)
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        mat.fill(data)
        assert np.array_equal(mat.to_numpy(), data)
        assert np.array_equal(mat.to_numpy(persistent=True), data)

    def test_fill_shape_checked(self):
        m = tiny_machine()
        mat = PMatrix(m, "m", 2, 2)
        with pytest.raises(WorkloadError):
            mat.fill(np.zeros((3, 2)))

    def test_timed_read_write(self):
        m = tiny_machine()
        mat = PMatrix(m, "m", 2, 2)

        def kernel():
            yield Store(mat.addr(1, 1), 9.0)
            v = yield Load(mat.addr(1, 1))
            yield Store(mat.addr(0, 0), v + 1)

        m.run([kernel()])
        assert mat.to_numpy()[0, 0] == 10.0

    def test_row_addrs_contiguous(self):
        m = tiny_machine()
        mat = PMatrix(m, "m", 4, 8)
        addrs = mat.row_addrs(1, 2, 6)
        assert len(addrs) == 4
        assert all(b - a == 8 for a, b in zip(addrs, addrs[1:]))
