"""The zero-cost tracing contract (docs/PERFORMANCE.md).

Three guarantees, each pinned here:

* an unsubscribed category costs the hot call site one attribute test —
  no ``TraceChannel.emit`` call, no kwargs dict, no ``TraceRecord``;
* subscribing mid-run re-enables the category immediately (cached
  channels track the bus's merged-subscriber lists live);
* observing a run does not perturb it: state digests are byte-identical
  with and without subscribers attached during the run.
"""

import pytest

import repro.sim.tracing as tracing
from repro.net.link import Link
from repro.net.packet import data_packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus, TraceChannel, TraceRecord
from repro.snapshot import state_digest
from repro.snapshot.golden import build_golden_scenario


class _Counts:
    emits = 0
    records = 0


@pytest.fixture
def counting_shims(monkeypatch):
    """Count every TraceChannel.emit call and TraceRecord allocation.

    The compiled emit builds records from the class it captured when
    installed, so ``records`` counts only the pure path's records.  On
    either backend a channel builds a record only inside an emit call,
    which ``emits`` counts."""
    counts = _Counts()
    real_emit = TraceChannel.emit

    def counted_emit(self, time, source, **fields):
        counts.emits += 1
        return real_emit(self, time, source, **fields)

    class CountingRecord(TraceRecord):
        def __init__(self, *args, **kwargs):
            counts.records += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(TraceChannel, "emit", counted_emit)
    monkeypatch.setattr(tracing, "TraceRecord", CountingRecord)
    return counts


class TestNoSubscriberFastPath:
    def test_clean_transfer_allocates_nothing(self, counting_shims):
        # A full golden transfer with FlowStats' drop watchers being the
        # only subscriptions: the per-packet categories (tcp.send,
        # tcp.ack, tcp.cwnd, link.tx) are unsubscribed, so their call
        # sites must skip emit() entirely, and the drop categories never
        # fire (run stops before the engineered burst) — zero channel
        # emits, zero record allocations, for thousands of packets.
        scenario = build_golden_scenario("rr")
        scenario.sim.run(until=1.0)  # pre-burst: clean slow start
        assert scenario.senders[1].maxseq > 10  # traffic actually flowed
        assert counting_shims.emits == 0
        assert counting_shims.records == 0

    def test_channel_emit_without_subscriber_builds_no_record(self, counting_shims):
        ch = TraceBus().channel("tcp.cwnd")
        ch.emit(1.0, "s1", cwnd=2.0)  # unconditional call is still correct
        assert counting_shims.emits == 1  # the call happened...
        assert counting_shims.records == 0  # ...but allocated nothing

    def test_bus_emit_without_subscriber_builds_no_record(self, counting_shims):
        TraceBus().emit(1.0, "link.drop", "A->B", reason="overflow")
        assert counting_shims.records == 0


class TestMidRunSubscribe:
    def test_subscribe_mid_run_reenables_category(self):
        scenario = build_golden_scenario("rr")
        sim, bus = scenario.sim, scenario.dumbbell.net.trace
        sim.run(until=1.0)
        seen = []
        bus.subscribe("tcp.cwnd", seen.append)
        sim.run(until=2.0)
        assert seen, "cached channels must pick up mid-run subscriptions"
        assert all(r.category == "tcp.cwnd" for r in seen)

    def test_unsubscribe_mid_run_disables_again(self):
        scenario = build_golden_scenario("rr")
        sim, bus = scenario.sim, scenario.dumbbell.net.trace
        seen = []
        bus.subscribe("tcp.cwnd", seen.append)
        sim.run(until=1.0)
        n = len(seen)
        assert n > 0
        bus.unsubscribe("tcp.cwnd", seen.append)
        sim.run(until=2.0)
        assert len(seen) == n

    def test_wildcard_mid_run_reaches_cached_channels(self):
        scenario = build_golden_scenario("rr")
        sim, bus = scenario.sim, scenario.dumbbell.net.trace
        sim.run(until=1.0)
        seen = []
        bus.subscribe("*", seen.append)
        sim.run(until=2.0)
        assert any(r.category == "tcp.send" for r in seen)


class TestObservationDoesNotPerturb:
    @pytest.mark.parametrize("variant", ["reno", "rr"])
    def test_digest_identical_with_and_without_subscribers(self, variant):
        silent = build_golden_scenario(variant)
        silent.sim.run(until=6.0)
        silent_digest = state_digest(silent)

        observed = build_golden_scenario(variant)
        seen = []
        bus = observed.dumbbell.net.trace
        bus.subscribe("*", seen.append)
        observed.sim.run(until=6.0)
        bus.unsubscribe("*", seen.append)
        assert seen, "the observed run must actually have traced"
        assert state_digest(observed) == silent_digest

    def test_traceless_link_behaves_like_unsubscribed_bus(self):
        def deliveries(trace):
            sim = Simulator()
            link = Link(sim, "A->B", 8000.0, 1.0, DropTailQueue(limit=10, name="q"),
                        trace=trace)
            arrivals = []

            class Sink:
                def receive(self, packet):
                    arrivals.append((sim.now, packet.seqno))

            link.connect(Sink())
            for i in range(5):
                sim.schedule_at(float(i) * 0.4, link.send,
                                data_packet(1, "S1", "K1", i, size=1000))
            sim.run()
            return arrivals

        assert deliveries(None) == deliveries(TraceBus())
