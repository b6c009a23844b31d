"""Tests for the persist-order tracker (repro.sim.persist)."""

import pytest

from repro.errors import ConfigError
from repro.sim.address import element_addrs_of_line
from repro.sim.cleaner import PeriodicCleaner
from repro.sim.config import LINE_BYTES, tiny_machine
from repro.sim.crash import CrashPlan, run_to_crash_space
from repro.sim.machine import Machine
from repro.sim.persist import KIND_DIRTY, KIND_FLUSH, PersistOrderTracker
from repro.sim.valuestore import MemoryState
from repro.workloads import available_workloads, get_workload

LINE_A = 4 * LINE_BYTES
LINE_B = 8 * LINE_BYTES

#: Crashcheck-sized problems for every registry workload.
SMALL_PARAMS = {
    "tmm": {"n": 8, "bsize": 4, "kk_tiles": 1},
    "fft": {"n": 16},
    "gauss": {"n": 8, "row_block": 4},
    "cholesky": {"n": 8, "col_block": 4},
    "conv2d": {"n": 8, "row_block": 2},
    "log": {"records": 6, "width": 2, "wb_batch": 2},
    "hashmap": {"capacity": 8, "ops": 6, "keys": 3, "wb_batch": 2},
}

#: Every registry workload x variant, deliberately broken ones included.
ALL_VARIANTS = [
    (name, variant)
    for name in available_workloads()
    for variant in (
        get_workload(name).variants + get_workload(name).broken_variants
    )
]


def make_state(lines=(LINE_A, LINE_B)):
    mem = MemoryState()
    for line in lines:
        for addr in element_addrs_of_line(line):
            mem.init(addr, 0.0)
    return mem


def accept_flush(mem, tracker, line, core_id, time, value):
    """What the MC does for a clflushopt acceptance: notify the
    tracker (which snapshots prior persistent values), then commit."""
    for addr in element_addrs_of_line(line):
        mem.store(addr, value)
    tracker.on_accept(line, "flush", core_id, time)
    mem.persist_line(line)


class TestTrackerHooks:
    def test_flush_is_pending_until_fence(self):
        mem = make_state()
        tracker = PersistOrderTracker(mem)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        assert tracker.pending_flush_count == 1
        tracker.on_fence(core_id=0, now=20.0)
        assert tracker.pending_flush_count == 0

    def test_fence_is_per_core(self):
        mem = make_state()
        tracker = PersistOrderTracker(mem)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        accept_flush(mem, tracker, LINE_B, core_id=1, time=11.0, value=2.0)
        tracker.on_fence(core_id=0, now=20.0)
        assert tracker.pending_lines() == [LINE_B]

    def test_fence_only_covers_earlier_flushes(self):
        mem = make_state()
        tracker = PersistOrderTracker(mem)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=30.0, value=1.0)
        tracker.on_fence(core_id=0, now=20.0)  # retired before the accept
        assert tracker.pending_flush_count == 1

    def test_writeback_absorbs_pending_flush(self):
        # An eviction/cleaner writeback of the same line supersedes the
        # flush uncertainty: the line is durable either way.
        mem = make_state()
        tracker = PersistOrderTracker(mem)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        tracker.on_accept(LINE_A, "cleaner", None, 15.0)
        assert tracker.pending_flush_count == 0


class TestSnapshot:
    def test_floor_undoes_pending_flushes_newest_first(self):
        mem = make_state()
        tracker = PersistOrderTracker(mem)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=12.0, value=2.0)
        space = tracker.snapshot(dirty_line_addrs=[], crash_time=20.0)
        addr = LINE_A
        # Neither unfenced flush is guaranteed: floor keeps the init 0.0.
        assert space.floor[addr] == 0.0
        assert [ev.values[addr] for ev in space.events] == [1.0, 2.0]
        # Same-line versions chain oldest -> newest.
        assert space.edges == [(space.events[0].eid, space.events[1].eid)]

    def test_fenced_flush_is_floor_not_event(self):
        mem = make_state()
        tracker = PersistOrderTracker(mem)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=3.0)
        tracker.on_fence(core_id=0, now=11.0)
        space = tracker.snapshot(dirty_line_addrs=[], crash_time=20.0)
        assert space.num_events == 0
        assert space.floor[LINE_A] == 3.0

    def test_dirty_lines_become_events(self):
        mem = make_state()
        tracker = PersistOrderTracker(mem)
        for addr in element_addrs_of_line(LINE_B):
            mem.store(addr, 9.0)
        space = tracker.snapshot(dirty_line_addrs=[LINE_B], crash_time=30.0)
        assert space.num_events == 1
        (event,) = space.events
        assert event.kind == KIND_DIRTY
        assert event.values[LINE_B] == 9.0
        assert space.floor[LINE_B] == 0.0

    def test_image_for_applies_newest_chosen_version(self):
        mem = make_state()
        tracker = PersistOrderTracker(mem)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        accept_flush(mem, tracker, LINE_A, core_id=0, time=12.0, value=2.0)
        space = tracker.snapshot(dirty_line_addrs=[], crash_time=20.0)
        first, second = (ev.eid for ev in space.events)
        assert space.image_for([])[LINE_A] == 0.0
        assert space.image_for([first])[LINE_A] == 1.0
        assert space.image_for([first, second])[LINE_A] == 2.0

    def test_non_adr_snapshot_refused(self):
        tracker = PersistOrderTracker(make_state(), "pre_adr")
        with pytest.raises(ConfigError):
            tracker.snapshot(dirty_line_addrs=[], crash_time=0.0)


class TestMachineIntegration:
    @pytest.mark.parametrize("model", ["adr", "epoch", "eadr"])
    @pytest.mark.parametrize("cleaner", [None, 200.0], ids=["none", "cleaner"])
    @pytest.mark.parametrize("trigger", ["at_op", "at_flush"])
    @pytest.mark.parametrize(
        "name,variant", ALL_VARIANTS, ids=[f"{n}/{v}" for n, v in ALL_VARIANTS]
    )
    def test_schedule_image_matches_single_image_crash_path(
        self, name, variant, trigger, cleaner, model
    ):
        """image_for(schedule_eids) must reproduce exactly the NVMM
        image the plain crash path committed: floor + every pending
        flush, no extra dirty-line writebacks."""
        workload = get_workload(name)(**SMALL_PARAMS[name])
        config = tiny_machine().with_model(model)

        def fresh():
            machine = Machine(config)
            if cleaner is not None:
                machine.cleaner = PeriodicCleaner(cleaner)
            bound = workload.bind(machine, num_threads=2, engine="modular")
            return machine, bound.threads(variant)

        machine, threads = fresh()
        profile = machine.run(threads)
        total = profile.ops_executed if trigger == "at_op" else profile.flush_ops
        machine, threads = fresh()
        result, space = run_to_crash_space(
            machine, threads, CrashPlan(**{trigger: max(1, total // 2)})
        )
        if not total:
            # A flush trigger never fires in a run without flushes.
            assert not result.crashed and space is None
            return
        assert result.crashed and space is not None
        image = space.image_for(space.schedule_eids())
        assert image == machine.mem.persistent

    def test_flush_boundary_crash_has_pending_events(self):
        from repro.workloads.tmm import TiledMatMul

        workload = TiledMatMul(n=8, bsize=4, kk_tiles=1)
        machine = Machine(tiny_machine())
        bound = workload.bind(machine, num_threads=2, engine="modular")
        result, space = run_to_crash_space(
            machine, bound.threads("ep"), CrashPlan(at_flush=3)
        )
        assert result.crashed
        assert result.flush_ops == 3
        assert any(ev.kind == KIND_FLUSH for ev in space.events)


class TestTrackingRequest:
    """Persist order is recorded only when a run asks for it."""

    def tmm_machine(self):
        from repro.workloads.tmm import TiledMatMul

        machine = Machine(tiny_machine())
        bound = TiledMatMul(n=8, bsize=4, kk_tiles=1).bind(
            machine, num_threads=2, engine="modular"
        )
        return machine, bound

    def test_untracked_machine_refuses_crash_space(self):
        machine, bound = self.tmm_machine()
        result = machine.run(bound.threads("ep"), crash_at_flush=3)
        assert result.crashed
        assert machine.mc.tracker is None
        with pytest.raises(ConfigError, match="not requested"):
            machine.crash_state_space()

    def test_request_after_a_run_is_refused(self):
        machine, bound = self.tmm_machine()
        machine.run(bound.threads("ep"), crash_at_op=5)
        with pytest.raises(ConfigError, match="before the machine"):
            machine.track_persists()
        assert machine.mc.tracker is None

    def test_replay_machine_refuses_request(self):
        machine, _ = self.tmm_machine()
        replay = machine.after_crash_with_image(
            dict(machine.mem.persistent), replay=True
        )
        with pytest.raises(ConfigError, match="full machine"):
            replay.track_persists()

    @pytest.mark.parametrize(
        "name,variant", ALL_VARIANTS, ids=[f"{n}/{v}" for n, v in ALL_VARIANTS]
    )
    def test_tracking_leaves_the_run_unchanged(self, name, variant):
        """The tracker only reads memory state: a tracked full run and
        an untracked one simulate exactly the same machine."""
        workload = get_workload(name)(**SMALL_PARAMS[name])
        runs = []
        for track in (False, True):
            machine = Machine(tiny_machine())
            bound = workload.bind(machine, num_threads=2, engine="modular")
            if track:
                machine.track_persists()
            result = machine.run(bound.threads(variant))
            assert (machine.mc.tracker is not None) == track
            runs.append((machine, result))
        (plain, r_plain), (tracked, r_tracked) = runs
        assert r_plain.stats.summary() == r_tracked.stats.summary()
        assert [c.clock for c in plain.cores] == [
            c.clock for c in tracked.cores
        ]
        assert plain.mem.arch == tracked.mem.arch
        assert plain.mem.persistent == tracked.mem.persistent
        assert plain.stats.writes_by_cause == tracked.stats.writes_by_cause
