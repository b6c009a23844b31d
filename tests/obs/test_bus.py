"""ProbeBus subscription and fan-out semantics."""

from repro.obs import ProbeBus, ProbeObserver
from repro.obs.bus import CHANNELS
from repro.obs.events import OpExecuted, WritebackAccepted
from repro.sim.isa import Compute


def _op_event():
    return OpExecuted(0, Compute(), None, 1.0, 2.0)


def _wb_event():
    return WritebackAccepted(
        line_addr=64,
        cause="flush",
        core_id=0,
        issued=1.0,
        accept_time=1.0,
        durable_time=5.0,
        queue_delay=0.0,
        queue_depth=1,
        volatility=4.0,
    )


class OpCounter(ProbeObserver):
    def __init__(self):
        self.n = 0

    def on_op(self, ev):
        self.n += 1


class EveryChannel(ProbeObserver):
    def __init__(self):
        self.calls = []

    def on_op(self, ev):
        self.calls.append("op")

    def on_mem_event(self, ev):
        self.calls.append("mem_event")

    def on_stall(self, ev):
        self.calls.append("stall")

    def on_hazard(self, ev):
        self.calls.append("hazard")

    def on_writeback(self, ev):
        self.calls.append("writeback")

    def on_nvmm_read(self, ev):
        self.calls.append("nvmm_read")

    def on_cleaner(self, ev):
        self.calls.append("cleaner")


class TestSubscription:
    def test_only_overridden_channels_subscribe(self):
        bus = ProbeBus([OpCounter()])
        assert bus.wants("op")
        for channel in CHANNELS:
            if channel != "op":
                assert not bus.wants(channel)

    def test_empty_bus_wants_nothing(self):
        bus = ProbeBus([])
        for channel in CHANNELS:
            assert not bus.wants(channel)

    def test_duck_typed_observer_subscribes(self):
        # No ProbeObserver inheritance: any class defining on_op rides
        # the op channel.
        class Duck:
            def __init__(self):
                self.seen = []

            def on_op(self, ev):
                self.seen.append(ev)

        duck = Duck()
        bus = ProbeBus([duck])
        assert bus.wants("op")
        assert not bus.wants("writeback")
        bus.op(_op_event())
        assert len(duck.seen) == 1
        # Publishing to channels the duck lacks must not raise.
        bus.writeback(_wb_event())

    def test_channels_table_matches_observer_api(self):
        for method in CHANNELS.values():
            assert callable(getattr(ProbeObserver, method))


class TestFanOut:
    def test_event_reaches_every_subscriber(self):
        a, b = OpCounter(), OpCounter()
        bus = ProbeBus([a, b])
        bus.op(_op_event())
        bus.op(_op_event())
        assert a.n == 2 and b.n == 2

    def test_publish_order_is_observer_order(self):
        order = []

        class Tagged(ProbeObserver):
            def __init__(self, tag):
                self.tag = tag

            def on_op(self, ev):
                order.append(self.tag)

        bus = ProbeBus([Tagged("first"), Tagged("second")])
        bus.op(_op_event())
        assert order == ["first", "second"]

    def test_all_channels_deliver(self):
        obs = EveryChannel()
        bus = ProbeBus([obs])
        for channel in CHANNELS:
            assert bus.wants(channel)
        bus.op(_op_event())
        bus.writeback(_wb_event())
        assert obs.calls == ["op", "writeback"]
