"""Attach/detach semantics of the probe taps."""

import pytest

from repro.errors import ConfigError
from repro.obs import (
    ProbeBus,
    TraceRecorder,
    attach_probes,
    detach_probes,
    probed,
)
from repro.sim.config import tiny_machine
from repro.sim.machine import Machine
from repro.workloads import get_workload

from tests.obs.conftest import TINY_PARAMS


def _fresh_machine():
    return Machine(tiny_machine())


class TestAttachDetach:
    def test_attach_installs_only_wanted_taps(self):
        machine = _fresh_machine()
        recorder = TraceRecorder()  # no on_mem_event -> no timer tap
        attach_probes(machine, ProbeBus([recorder]))
        assert "execute" in vars(machine.cores[0])
        assert "on_event" not in vars(machine.cores[0].timer)
        assert "accept_write_timed" in vars(machine.mc)
        detach_probes(machine)

    def test_empty_bus_installs_nothing(self):
        machine = _fresh_machine()
        attach_probes(machine, ProbeBus([]))
        for core in machine.cores:
            assert "execute" not in vars(core)
            assert "on_event" not in vars(core.timer)
        assert "accept_write_timed" not in vars(machine.mc)
        assert "read" not in vars(machine.mc)
        assert "stall" not in vars(machine.stats.ledger)
        assert "event" not in vars(machine.stats.ledger)
        detach_probes(machine)

    def test_detach_removes_every_instance_override(self):
        machine = _fresh_machine()
        attach_probes(machine, ProbeBus([TraceRecorder()]))
        detach_probes(machine)
        # Zero instance-level shadows survive: the untapped machine
        # runs the unmodified class methods (the zero-overhead claim).
        for core in machine.cores:
            assert "execute" not in vars(core)
            assert "on_event" not in vars(core.timer)
        assert "accept_write_timed" not in vars(machine.mc)
        assert "read" not in vars(machine.mc)
        assert "stall" not in vars(machine.stats.ledger)
        assert "event" not in vars(machine.stats.ledger)

    def test_detach_is_idempotent(self):
        machine = _fresh_machine()
        attach_probes(machine, ProbeBus([TraceRecorder()]))
        detach_probes(machine)
        detach_probes(machine)  # second call is a no-op

    def test_double_attach_refused(self):
        machine = _fresh_machine()
        attach_probes(machine, ProbeBus([TraceRecorder()]))
        with pytest.raises(ConfigError):
            attach_probes(machine, ProbeBus([TraceRecorder()]))
        detach_probes(machine)

    def test_reattach_after_detach_allowed(self):
        machine = _fresh_machine()
        attach_probes(machine, ProbeBus([TraceRecorder()]))
        detach_probes(machine)
        attach_probes(machine, ProbeBus([TraceRecorder()]))
        detach_probes(machine)

    def test_replay_machine_attachable_and_probed_run_records(self):
        # Probed replay machines take the general scheduling loop (the
        # _run_replay fast path checks for an active probe session), so
        # the taps see every op.
        wl = get_workload("tmm")(**TINY_PARAMS)
        machine = Machine(tiny_machine(), _replay=True)
        bound = wl.bind(machine, num_threads=2, engine="modular")
        recorder = TraceRecorder()
        with probed(machine, [recorder]):
            result = machine.run(bound.threads("lp"))
        # Barrier ops never reach a core; everything else does.
        assert 0 < len(recorder.ops) <= result.ops_executed
        # Replay machines never stall or touch the MC.
        assert recorder.stalls == []
        assert recorder.writebacks == []
        assert recorder.nvmm_reads == []

    def test_probed_replay_run_matches_unprobed_fast_path(self):
        wl = get_workload("tmm")(**TINY_PARAMS)

        plain = Machine(tiny_machine(), _replay=True)
        bound = wl.bind(plain, num_threads=2, engine="modular")
        r_plain = plain.run(bound.threads("lp"))

        tapped = Machine(tiny_machine(), _replay=True)
        bound2 = wl.bind(tapped, num_threads=2, engine="modular")
        with probed(tapped, [TraceRecorder()]):
            r_tapped = tapped.run(bound2.threads("lp"))

        assert r_plain.stats.summary() == r_tapped.stats.summary()
        assert r_plain.ops_executed == r_tapped.ops_executed
        assert plain.mem.arch == tapped.mem.arch
        assert plain.mem.persistent == tapped.mem.persistent


class TestIsolation:
    def test_tapping_one_machine_leaves_others_untouched(self):
        tapped, other = _fresh_machine(), _fresh_machine()
        attach_probes(tapped, ProbeBus([TraceRecorder()]))
        for core in other.cores:
            assert "execute" not in vars(core)
        assert "accept_write_timed" not in vars(other.mc)
        detach_probes(tapped)

    def test_untapped_run_after_traced_run_records_nothing(self):
        wl = get_workload("tmm")(**TINY_PARAMS)
        machine = _fresh_machine()
        bound = wl.bind(machine, num_threads=2, engine="modular")
        recorder = TraceRecorder()
        with probed(machine, [recorder]):
            machine.run(bound.threads("lp"))
        traced_events = len(recorder)
        assert traced_events > 0

        machine2 = _fresh_machine()
        bound2 = wl.bind(machine2, num_threads=2, engine="modular")
        machine2.run(bound2.threads("lp"))
        assert len(recorder) == traced_events


class TestProbedContext:
    def test_detaches_on_exception(self):
        machine = _fresh_machine()
        with pytest.raises(RuntimeError):
            with probed(machine, [TraceRecorder()]):
                raise RuntimeError("boom")
        for core in machine.cores:
            assert "execute" not in vars(core)

    def test_accepts_prebuilt_bus(self):
        machine = _fresh_machine()
        bus = ProbeBus([TraceRecorder()])
        with probed(machine, bus) as got:
            assert got is bus

    def test_results_identical_with_and_without_probes(self):
        wl = get_workload("tmm")(**TINY_PARAMS)

        plain = _fresh_machine()
        bound = wl.bind(plain, num_threads=2, engine="modular")
        r_plain = plain.run(bound.threads("lp"))

        tapped = _fresh_machine()
        bound2 = wl.bind(tapped, num_threads=2, engine="modular")
        with probed(tapped, [TraceRecorder()]):
            r_tapped = tapped.run(bound2.threads("lp"))

        assert r_plain.exec_cycles == r_tapped.exec_cycles
        assert r_plain.stats.summary() == r_tapped.stats.summary()
