"""Unit tests for the bounded completion-time queues, and property
tests pinning the heap-ordered queue (and the MC timing built on it) to
the list-filtering code it replaced."""

from hypothesis import given, settings, strategies as st

from repro.sim.config import NVMMConfig
from repro.sim.queues import BoundedQueue
from repro.sim.timing import DetailedMCTiming


class TestBoundedQueue:
    def test_empty_is_not_full(self):
        q = BoundedQueue(2, "q")
        assert not q.full(0.0)
        assert q.earliest_free(0.0) == 0.0
        assert q.drain_time(0.0) == 0.0

    def test_fills_and_frees(self):
        q = BoundedQueue(2, "q")
        q.push(10.0)
        q.push(20.0)
        assert q.full(5.0)
        assert q.earliest_free(5.0) == 10.0
        # at t=10 the first entry has completed
        assert not q.full(10.0)

    def test_prune_drops_completed(self):
        q = BoundedQueue(4, "q")
        q.push(1.0)
        q.push(2.0)
        q.push(3.0)
        assert q.occupancy(2.0) == 1

    def test_drain_time_is_latest_completion(self):
        q = BoundedQueue(4, "q")
        q.push(5.0)
        q.push(15.0)
        assert q.drain_time(0.0) == 15.0
        assert q.drain_time(15.0) == 15.0  # entries at t complete at t

    def test_clear(self):
        q = BoundedQueue(2, "q")
        q.push(100.0)
        q.clear()
        assert q.occupancy(0.0) == 0


# ----------------------------------------------------------------------
# the heap-ordered queue against the list model it replaced
# ----------------------------------------------------------------------


class ListQueue:
    """The list-filtering ``BoundedQueue`` the heap replaced (its
    methods verbatim, plus the non-pruning ``len``): the reference
    every heap answer must equal."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._completions = []

    def __len__(self):
        return len(self._completions)

    def prune(self, now):
        self._completions = [t for t in self._completions if t > now]

    def full(self, now):
        self.prune(now)
        return len(self._completions) >= self.capacity

    def earliest_free(self, now):
        self.prune(now)
        if len(self._completions) < self.capacity:
            return now
        return min(self._completions)

    def push(self, completion):
        self._completions.append(completion)

    def drain_time(self, now):
        self.prune(now)
        if not self._completions:
            return now
        return max(self._completions)

    def occupancy(self, now):
        self.prune(now)
        return len(self._completions)

    def clear(self):
        self._completions.clear()


#: Times on a half-cycle grid, so completions tie with each other and
#: with ``now`` often; draws in any order, so ``now`` goes backwards.
times = st.integers(min_value=0, max_value=40).map(lambda t: t / 2)

queue_calls = st.lists(
    st.one_of(
        st.tuples(st.just("push"), times),
        st.tuples(
            st.sampled_from(
                ["full", "earliest_free", "occupancy", "drain_time", "prune"]
            ),
            times,
        ),
        st.tuples(st.just("clear"), st.just(0.0)),
    ),
    max_size=80,
)


@given(st.integers(min_value=1, max_value=5), queue_calls)
@settings(max_examples=200, deadline=None)
def test_heap_queue_matches_list_model(capacity, calls):
    heap, ref = BoundedQueue(capacity, "q"), ListQueue(capacity)
    for name, t in calls:
        if name == "clear":
            got, want = heap.clear(), ref.clear()
        else:
            got, want = getattr(heap, name)(t), getattr(ref, name)(t)
        assert got == want, (name, t)
        assert len(heap) == len(ref)
        assert sorted(heap._completions) == sorted(ref._completions)


class ListMCTiming:
    """``DetailedMCTiming``'s list arithmetic before its queues became
    ``BoundedQueue``s, verbatim (without the ledger)."""

    def __init__(self, config):
        self.config = config
        self._write_pipe_free = 0.0
        self._read_pipe_free = 0.0
        self._write_queue = []
        self._read_queue = []

    def read(self, now):
        self._read_queue = [t for t in self._read_queue if t > now]
        start = now
        if len(self._read_queue) >= self.config.read_queue_depth:
            start = min(self._read_queue)
        start = max(start, self._read_pipe_free)
        self._read_pipe_free = start + self.config.read_service_cycles
        completion = start + self.config.read_cycles
        self._read_queue.append(completion)
        return completion

    def write(self, now):
        accept_time = max(now, self._queue_slot_free_time(now))
        start = max(accept_time, self._write_pipe_free)
        self._write_pipe_free = start + self.config.write_service_cycles
        completion = start + self.config.write_cycles
        self._write_queue.append(completion)
        return accept_time, completion

    def _queue_slot_free_time(self, now):
        self._write_queue = [t for t in self._write_queue if t > now]
        if len(self._write_queue) < self.config.write_queue_depth:
            return now
        return min(self._write_queue)

    @property
    def write_queue_occupancy(self):
        return len(self._write_queue)


#: The MC is called at whichever core's clock issued the request, so
#: successive ``now`` values are not monotone.
mc_calls = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(min_value=0, max_value=400).map(lambda t: t / 4),
    ),
    max_size=80,
)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 7.5, 20.0]),
    st.sampled_from([0.0, 10.0, 12.25]),
    mc_calls,
)
@settings(max_examples=200, deadline=None)
def test_mc_timing_matches_list_arithmetic(
    write_depth, read_depth, write_service, read_service, calls
):
    config = NVMMConfig(
        read_cycles=30.0,
        write_cycles=60.0,
        write_service_cycles=write_service,
        read_service_cycles=read_service,
        write_queue_depth=write_depth,
        read_queue_depth=read_depth,
    )
    mc, ref = DetailedMCTiming(config), ListMCTiming(config)
    for name, now in calls:
        assert getattr(mc, name)(now) == getattr(ref, name)(now), (name, now)
        assert mc.write_queue_occupancy == ref.write_queue_occupancy
