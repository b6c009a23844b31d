"""Tests for the pluggable persistency-model matrix (repro.sim.model).

Covers the registry itself, the config plumbing (validation,
``with_model``, cache-key back-compat), and the
observable per-model machine semantics: who owns the persistence
domain, what flush/fence mean, and which models admit crash-state
enumeration.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.sim.address import element_addrs_of_line
from repro.sim.coherence import _L1_HIT, Access
from repro.sim.config import LINE_BYTES, CacheConfig, MachineConfig
from repro.sim.isa import Fence, Flush, Store
from repro.sim.machine import Machine
from repro.sim.model import (
    DEFAULT_MODEL,
    PERSISTENCY_MODELS,
    PersistencyModel,
    enumerable_model_names,
    get_model,
    model_names,
)
from repro.sim.persist import PersistOrderTracker
from repro.sim.valuestore import MemoryState

LINE_A = 4 * LINE_BYTES
LINE_B = 8 * LINE_BYTES


def machine(model="adr"):
    """A one-core machine big enough that nothing ever evicts."""
    cfg = MachineConfig(
        num_cores=1,
        l1=CacheConfig(4096, 8, hit_cycles=2.0),
        l2=CacheConfig(16384, 8, hit_cycles=11.0),
    )
    return Machine(cfg.with_model(model))


def flushing_writer(region, n, value=5.0):
    for i in range(n):
        yield Store(region.addr(i), value)
        yield Flush(region.addr(i))
    yield Fence()


def plain_writer(region, n, value=7.0):
    for i in range(n):
        yield Store(region.addr(i), value)


class TestRegistry:
    def test_known_models(self):
        assert model_names() == [
            "adr",
            "eadr",
            "strict",
            "epoch",
            "pre_adr",
            "eadr_nofence",
        ]
        for name in model_names():
            m = get_model(name)
            assert isinstance(m, PersistencyModel)
            assert m.name == name

    def test_unknown_model_lists_available(self):
        with pytest.raises(ConfigError, match="adr.*eadr.*strict"):
            get_model("bogus")

    def test_enumerable_excludes_pre_adr(self):
        assert "pre_adr" not in enumerable_model_names()
        assert set(enumerable_model_names()) == {
            "adr",
            "eadr",
            "strict",
            "epoch",
            "eadr_nofence",
        }

    def test_litmus_models_include_the_broken_variant(self):
        assert "eadr_nofence" in enumerable_model_names()
        assert PERSISTENCY_MODELS["eadr_nofence"].broken
        # and the broken model claims a sound model's spec
        assert PERSISTENCY_MODELS["eadr_nofence"].spec == "eadr"

    def test_sound_models_are_not_broken(self):
        for name in ("adr", "eadr", "strict", "epoch", "pre_adr"):
            assert not PERSISTENCY_MODELS[name].broken

    def test_default_is_the_paper_platform(self):
        assert DEFAULT_MODEL == "adr"
        m = get_model("adr")
        assert not m.persist_on_store and m.flush_writes and m.fence_commits


class TestConfigPlumbing:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(model="bogus")

    def test_pre_adr_builds_like_with_model(self):
        """``model="pre_adr"`` is the one spelling of the pre-ADR
        platform: built directly, it equals the ``with_model`` copy and
        runs, crashes and rolls back exactly like it."""
        geometry = dict(
            num_cores=1,
            l1=CacheConfig(4096, 8, hit_cycles=2.0),
            l2=CacheConfig(16384, 8, hit_cycles=11.0),
        )
        direct = MachineConfig(model="pre_adr", **geometry)
        derived = MachineConfig(**geometry).with_model("pre_adr")
        assert direct == derived
        outcomes = []
        for cfg in (direct, derived):
            m = Machine(cfg)
            assert m.mc.model.name == "pre_adr"
            assert m.persist_tracker is None
            region = m.alloc("a", 16)
            res = m.run([flushing_writer(region, 8)], crash_at_op=12)
            post = m.after_crash()
            outcomes.append((
                res.exec_cycles,
                m.stats.nvmm_writes,
                [post.arch_value(region.addr(i)) for i in range(8)],
            ))
        assert outcomes[0] == outcomes[1]


class TestCacheKeyIsolation:
    """Satellite: model switches miss the cache; defaults keep their keys."""

    def test_default_key_omits_the_model_field(self):
        payload = json.loads(MachineConfig().cache_key())
        assert "model" not in payload

    def test_explicit_default_matches_implicit_default(self):
        assert (
            MachineConfig().with_model("adr").cache_key()
            == MachineConfig().cache_key()
        )

    def test_model_switch_changes_the_key(self):
        base = MachineConfig()
        keys = {base.cache_key()}
        for name in ("eadr", "strict", "epoch", "pre_adr", "eadr_nofence"):
            key = base.with_model(name).cache_key()
            assert json.loads(key)["model"] == name
            keys.add(key)
        assert len(keys) == 6  # all distinct: no aliasing across models

    def test_job_key_tracks_the_config_key(self):
        from repro.analysis.runner import Job
        from repro.workloads.tmm import TiledMatMul

        wl = TiledMatMul(n=8, bsize=4)
        default = Job(wl, MachineConfig(), "lp")
        explicit = Job(wl, MachineConfig().with_model("adr"), "lp")
        switched = Job(wl, MachineConfig().with_model("eadr"), "lp")
        assert default.cache_key() == explicit.cache_key()
        assert switched.cache_key() != default.cache_key()


class TestPerModelMachineSemantics:
    def test_adr_needs_flush_for_durability(self):
        m = machine("adr")
        r = m.alloc("a", 8)
        m.run([plain_writer(r, 8)])
        assert m.read_region(r, persistent=True) == [0.0] * 8
        m2 = machine("adr")
        r2 = m2.alloc("a", 8)
        m2.run([flushing_writer(r2, 8)])
        assert m2.read_region(r2, persistent=True) == [5.0] * 8
        assert m2.stats.writes_by_cause.get("flush", 0) > 0

    def test_eadr_stores_are_durable_at_once(self):
        m = machine("eadr")
        r = m.alloc("a", 8)
        m.run([plain_writer(r, 8)])
        assert m.read_region(r, persistent=True) == [7.0] * 8

    def test_eadr_flushes_produce_no_mc_traffic(self):
        m = machine("eadr")
        r = m.alloc("a", 8)
        m.run([flushing_writer(r, 8)])
        assert m.stats.writes_by_cause.get("flush", 0) == 0
        assert m.read_region(r, persistent=True) == [5.0] * 8

    def test_strict_stores_write_through(self):
        m = machine("strict")
        r = m.alloc("a", 8)
        m.run([plain_writer(r, 8)])
        assert m.read_region(r, persistent=True) == [7.0] * 8
        # one MC write per store, attributed to its own cause
        assert m.stats.writes_by_cause.get("store", 0) == 8

    def test_strict_write_through_leaves_shared_hit_unchanged(self):
        # Store hits return the shared L1-hit outcome; the write-through
        # backpressure must land on a new Access, never on that one.
        m = machine("strict")
        r = m.alloc("a", 8)
        h = m.hierarchy
        h.store(0, r.addr(0), 1.0, 0.0)  # write miss: the line is now M
        hits = [
            h.store(0, r.addr(0), 2.0, 0.0)
            for _ in range(2 * m.config.nvmm.write_queue_depth)
        ]
        assert all(a.l1_hit for a in hits)
        assert hits[-1].extra_latency > 0.0  # the MC queue backed up
        assert _L1_HIT == Access(l1_hit=True, extra_latency=0.0)
        assert h.load(0, r.addr(0), 0.0) is _L1_HIT

    def test_epoch_fences_do_not_commit(self):
        m = machine("epoch")
        r = m.alloc("a", 8)
        m.run([flushing_writer(r, 2)])
        tracker = m.persist_tracker
        assert tracker is not None
        # flushes reached the MC (durable *values* are there)...
        assert m.read_region(r, persistent=True)[:2] == [5.0, 5.0]
        # ...but the fence never committed them: both stay enumerable
        assert tracker.pending_flush_count == 2

    def test_eadr_nofence_caches_stay_volatile(self):
        m = machine("eadr_nofence")
        r = m.alloc("a", 8)
        m.run([flushing_writer(r, 8)])
        # flushes and fences are inert: nothing persisted, no traffic
        assert m.read_region(r, persistent=True) == [0.0] * 8
        assert m.stats.nvmm_writes == 0

    def test_pre_adr_machine_has_no_tracker(self):
        m = machine("pre_adr")
        assert m.persist_tracker is None
        with pytest.raises(ConfigError, match="adr, eadr, strict, epoch"):
            m.crash_state_space()


class TestTrackerModelAxis:
    def make_state(self, lines=(LINE_A, LINE_B)):
        mem = MemoryState()
        for line in lines:
            for addr in element_addrs_of_line(line):
                mem.init(addr, 0.0)
        return mem

    def accept_flush(self, mem, tracker, line, core_id, time, value):
        for addr in element_addrs_of_line(line):
            mem.store(addr, value)
        tracker.on_accept(line, "flush", core_id, time)
        mem.persist_line(line)

    def test_fence_absorbs_superseded_cross_core_flush(self):
        """Core B's fenced flush of a line supersedes core A's *older*
        still-pending flush of the same line: the committed value must
        land in the floor, and A's stale version must stop being an
        undoable event (else enumeration could roll the line back past
        a durably committed value)."""
        mem = self.make_state()
        tracker = PersistOrderTracker(mem, "adr")
        self.accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        self.accept_flush(mem, tracker, LINE_A, core_id=1, time=12.0, value=2.0)
        tracker.on_fence(core_id=1, now=20.0)  # commits the newer version
        assert tracker.pending_flush_count == 0
        space = tracker.snapshot(dirty_line_addrs=[], crash_time=30.0)
        assert space.num_events == 0
        assert space.floor[LINE_A] == 2.0

    def test_fence_keeps_newer_pending_version_on_same_line(self):
        mem = self.make_state()
        tracker = PersistOrderTracker(mem, "adr")
        self.accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        tracker.on_fence(core_id=0, now=11.0)  # 1.0 durable
        self.accept_flush(mem, tracker, LINE_A, core_id=1, time=12.0, value=2.0)
        space = tracker.snapshot(dirty_line_addrs=[], crash_time=30.0)
        assert space.floor[LINE_A] == 1.0
        assert [ev.values[LINE_A] for ev in space.events] == [2.0]

    def test_eadr_tracker_space_is_a_single_image(self):
        mem = self.make_state()
        tracker = PersistOrderTracker(mem, "eadr")
        self.accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=3.0)
        assert tracker.pending_flush_count == 0
        space = tracker.snapshot(dirty_line_addrs=[], crash_time=20.0)
        assert space.num_events == 0
        assert space.floor[LINE_A] == 3.0

    def test_epoch_edges_order_adjacent_epochs(self):
        mem = self.make_state()
        tracker = PersistOrderTracker(mem, "epoch")
        self.accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        tracker.on_fence(core_id=0, now=11.0)  # epoch boundary, no commit
        self.accept_flush(mem, tracker, LINE_B, core_id=0, time=12.0, value=2.0)
        assert tracker.pending_flush_count == 2
        space = tracker.snapshot(dirty_line_addrs=[], crash_time=30.0)
        ev_a = next(ev for ev in space.events if LINE_A in ev.values)
        ev_b = next(ev for ev in space.events if LINE_B in ev.values)
        assert (ev_a.eid, ev_b.eid) in space.edges

    def test_epoch_cores_do_not_order_each_other(self):
        mem = self.make_state()
        tracker = PersistOrderTracker(mem, "epoch")
        self.accept_flush(mem, tracker, LINE_A, core_id=0, time=10.0, value=1.0)
        tracker.on_fence(core_id=0, now=11.0)
        self.accept_flush(mem, tracker, LINE_B, core_id=1, time=12.0, value=2.0)
        space = tracker.snapshot(dirty_line_addrs=[], crash_time=30.0)
        assert space.edges == []  # different cores: no epoch ordering
