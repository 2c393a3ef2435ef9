"""Unit tests for time-varying links (repro.net.varlink): rate
schedules, handover outages, bufferbloat presets and checkpoint
compatibility."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.packet import data_packet
from repro.net.queues import DropTailQueue
from repro.net.varlink import RateSchedule, bufferbloat_limit, bufferbloat_queue
from repro.sim.engine import Simulator


class SinkNode:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_link(sim, bandwidth_bps=8000.0, delay=0.0, limit=50):
    link = Link(sim, "A->B", bandwidth_bps, delay, DropTailQueue(limit=limit, name="q"))
    sink = SinkNode(sim)
    link.connect(sink)
    return link, sink


def pkt(seqno=0, size=1000):
    return data_packet(1, "S1", "K1", seqno, size=size)


class TestValidation:
    def test_steps_must_increase(self):
        with pytest.raises(ConfigurationError):
            RateSchedule(steps=((0.0, 1e6), (0.0, 2e6))).validate()

    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RateSchedule(steps=((0.0, 0.0),)).validate()

    def test_negative_outage_rejected(self):
        with pytest.raises(ConfigurationError):
            RateSchedule(steps=((0.0, 1e6),), outages=((1.0, -0.5),)).validate()

    def test_rate_at(self):
        sched = RateSchedule.steps_every([1e6, 2e6, 3e6], interval=10.0)
        assert sched.rate_at(-1.0, default=5e5) == 5e5
        assert sched.rate_at(0.0) == 1e6
        assert sched.rate_at(15.0) == 2e6
        assert sched.rate_at(100.0) == 3e6
        assert sched.min_rate() == 1e6


class TestApplication:
    def test_rate_step_changes_service_time(self):
        sim = Simulator()
        link, sink = make_link(sim)  # 8000 bps: 1 s per 1000 B packet
        RateSchedule(steps=((1.5, 16000.0),)).apply(link)
        link.send(pkt(0))  # served [0, 1]
        link.send(pkt(1))  # served [1, 2]: admitted before the step
        sim.run(until=10.0)
        # Packet 1 entered service at t=1 (old rate still in force when
        # its service began? no — service starts at 1.0, before the
        # 1.5 s step, so it still takes 1 s), packet 2 queued below.
        assert [t for t, _ in sink.arrivals] == pytest.approx([1.0, 2.0])
        sim2 = Simulator()
        link2, sink2 = make_link(sim2)
        RateSchedule(steps=((1.5, 16000.0),)).apply(link2)
        for i in range(3):
            link2.send(pkt(i))
        sim2.run(until=10.0)
        # Third packet starts service at t=2, after the step: 0.5 s.
        assert [t for t, _ in sink2.arrivals] == pytest.approx([1.0, 2.0, 2.5])

    def test_outage_destroys_arrivals(self):
        sim = Simulator()
        link, sink = make_link(sim)
        RateSchedule(steps=((0.0, 8000.0),), outages=((5.0, 2.0),)).apply(link)
        sim.schedule_at(6.0, link.send, pkt(0))  # inside the window
        sim.schedule_at(8.0, link.send, pkt(1))  # after it lifts
        sim.run(until=20.0)
        assert link.outage_drops == 1
        assert len(sink.arrivals) == 1

    def test_schedule_recorded_on_link(self):
        sim = Simulator()
        link, _ = make_link(sim)
        sched = RateSchedule(steps=((1.0, 1e6),))
        sched.apply(link)
        assert link.rate_schedule is sched

    def test_double_apply_rejected(self):
        sim = Simulator()
        link, _ = make_link(sim)
        RateSchedule(steps=((1.0, 1e6),)).apply(link)
        with pytest.raises(ConfigurationError):
            RateSchedule(steps=((2.0, 2e6),)).apply(link)

    def test_past_step_rejected(self):
        sim = Simulator()
        link, _ = make_link(sim)
        sim.run(until=5.0)
        with pytest.raises(ConfigurationError):
            RateSchedule(steps=((1.0, 1e6),)).apply(link)

    def test_set_bandwidth_validates(self):
        sim = Simulator()
        link, _ = make_link(sim)
        with pytest.raises(ConfigurationError):
            link.set_bandwidth(0.0)


class TestSeededGenerator:
    def test_same_seed_same_schedule(self):
        a = RateSchedule.mobile(7, duration=30.0, mean_bps=2e6, handover_period=10.0)
        b = RateSchedule.mobile(7, duration=30.0, mean_bps=2e6, handover_period=10.0)
        assert a == b

    def test_different_seed_different_schedule(self):
        a = RateSchedule.mobile(7, duration=30.0, mean_bps=2e6)
        b = RateSchedule.mobile(8, duration=30.0, mean_bps=2e6)
        assert a != b

    def test_rates_respect_spread_and_floor(self):
        sched = RateSchedule.mobile(
            3, duration=60.0, mean_bps=1e6, spread=0.5, min_bps=6e5
        )
        for _, bps in sched.steps:
            assert 6e5 <= bps <= 1.5e6

    def test_handovers_within_duration(self):
        sched = RateSchedule.mobile(
            3, duration=40.0, mean_bps=1e6, handover_period=8.0, handover_duration=0.5
        )
        assert sched.outages
        for start, duration in sched.outages:
            assert 0 <= start < 40.0
            assert duration == 0.5


class TestCheckpointCompatibility:
    def test_default_link_pickles_without_schedule_key(self):
        sim = Simulator()
        link, _ = make_link(sim)
        assert "rate_schedule" not in link.__getstate__()

    def test_scheduled_link_roundtrips(self):
        sim = Simulator()
        link, _ = make_link(sim)
        sched = RateSchedule(steps=((1.0, 1e6),), outages=((5.0, 0.5),))
        sched.apply(link)
        clone = pickle.loads(pickle.dumps(link))
        assert clone.rate_schedule == sched

    def test_restored_default_link_has_attribute(self):
        sim = Simulator()
        link, _ = make_link(sim)
        clone = pickle.loads(pickle.dumps(link))
        assert clone.rate_schedule is None


class TestBufferbloat:
    def test_limit_is_bdp_multiple(self):
        # 8 Mbps * 0.1 s = 100 kB = 100 packets of 1000 B; x10 = 1000.
        assert bufferbloat_limit(8e6, 0.1, multiple=10.0) == 1000

    def test_limit_floor(self):
        assert bufferbloat_limit(8000.0, 0.001, multiple=1.0) == 1

    def test_queue_preset(self):
        q = bufferbloat_queue(8e6, 0.1, multiple=5.0, name="bb")
        assert isinstance(q, DropTailQueue)
        assert q.limit == 500
        assert q.name == "bb"

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            bufferbloat_limit(0.0, 0.1)
