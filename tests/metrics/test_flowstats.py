"""Unit tests for the FlowStats collector."""

import pytest

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.flowstats import FlowStats
from repro.net.loss import DeterministicLoss
from repro.net.packet import data_packet
from repro.net.topology import DumbbellParams
from repro.sim.tracing import TraceBus, TraceRecord
from repro.tcp.factory import VARIANTS


class FakeSender:
    """Just enough of TcpSender for observer hooks."""

    def __init__(self):
        self.snd_una = 0
        self.recover = 0


class TestObserverHooks:
    def test_ack_series_records_progress(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        stats.on_ack(1.0, sender, 5, duplicate=False)
        stats.on_ack(2.0, sender, 9, duplicate=False)
        assert stats.ack_series == [(1.0, 5), (2.0, 9)]
        assert stats.final_ack == 9

    def test_duplicates_counted_separately(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        stats.on_ack(1.0, sender, 5, duplicate=True)
        assert stats.ack_series == []
        assert stats.dupacks_seen == 1

    def test_send_series(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        stats.on_send(1.0, sender, 3, retransmit=False)
        stats.on_send(2.0, sender, 3, retransmit=True)
        assert stats.packets_sent() == 2
        assert stats.retransmissions() == 1

    def test_recovery_episode_lifecycle(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        sender.snd_una, sender.recover = 10, 20
        stats.on_recovery_enter(1.0, sender)
        sender.snd_una = 22
        stats.on_recovery_exit(2.5, sender)
        episode = stats.episodes[0]
        assert episode.enter_ack == 10
        assert episode.recover == 20
        assert episode.exit_ack == 22
        assert episode.duration == pytest.approx(1.5)

    def test_exit_without_enter_is_safe(self):
        stats = FlowStats(flow_id=1)
        stats.on_recovery_exit(1.0, FakeSender())  # no crash
        assert stats.episodes == []

    def test_double_exit_ignored(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        stats.on_recovery_enter(1.0, sender)
        stats.on_recovery_exit(2.0, sender)
        stats.on_recovery_exit(3.0, sender)
        assert stats.episodes[0].exit_time == 2.0

    def test_timeout_times(self):
        stats = FlowStats(flow_id=1)
        stats.on_timeout(4.2, FakeSender())
        assert stats.timeouts == 1
        assert stats.timeout_times == [4.2]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_episode_exit_ack_is_the_exiting_ack(variant):
    """Every episode's ``exit_ack`` is the cumulative ACK at its exit:
    the ACK that ended it (or ``snd_una`` at a timeout), never the
    level before it.  Two loss bursts give every recovering variant
    partial ACKs and at least one full exit."""
    drops = [(1, seq) for seq in (60, 61, 63, 66, 150, 152)]
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=400)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        forward_loss=DeterministicLoss(drops),
    )
    scenario.sim.run(until=60.0)
    stats = scenario.stats[1]
    exits = [e for e in stats.episodes if e.exit_time is not None]
    if variant != "tahoe":  # Tahoe has no recovery phase
        assert exits
    for episode in exits:
        assert episode.exit_ack == stats.acked_at(episode.exit_time), episode


class TestDerivedQueries:
    def make_stats(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        for t, ack in [(1.0, 5), (2.0, 9), (3.0, 20)]:
            stats.on_ack(t, sender, ack, duplicate=False)
        return stats

    def test_acked_at_steps(self):
        stats = self.make_stats()
        assert stats.acked_at(0.5) == 0
        assert stats.acked_at(1.0) == 5
        assert stats.acked_at(2.5) == 9
        assert stats.acked_at(99.0) == 20

    def test_time_ack_reached(self):
        stats = self.make_stats()
        assert stats.time_ack_reached(9) == pytest.approx(2.0)
        assert stats.time_ack_reached(10) == pytest.approx(3.0)
        assert stats.time_ack_reached(21) is None

    def test_transfer_delay(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        stats.on_start(1.0, sender)
        stats.on_complete(7.5, sender)
        assert stats.transfer_delay() == pytest.approx(6.5)

    def test_transfer_delay_incomplete(self):
        stats = FlowStats(flow_id=1)
        stats.on_start(1.0, FakeSender())
        assert stats.transfer_delay() is None


class TestDropWatching:
    def test_counts_own_flow_data_drops(self):
        stats = FlowStats(flow_id=1)
        bus = TraceBus()
        stats.watch_drops(bus)
        own = data_packet(1, "S1", "K1", 5)
        other = data_packet(2, "S2", "K2", 5)
        bus.publish(TraceRecord(1.0, "link.drop", "q", {"packet": own}))
        bus.publish(TraceRecord(1.0, "link.drop", "q", {"packet": other}))
        bus.publish(TraceRecord(2.0, "link.injected_drop", "q", {"packet": own}))
        assert stats.drops_observed == 2
        assert stats.drop_times == [1.0, 2.0]

    def test_loss_rate(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        for i in range(10):
            stats.on_send(float(i), sender, i, retransmit=False)
        bus = TraceBus()
        stats.watch_drops(bus)
        bus.publish(
            TraceRecord(1.0, "link.drop", "q", {"packet": data_packet(1, "S", "K", 1)})
        )
        assert stats.loss_rate() == pytest.approx(0.1)

    def test_loss_rate_idle_flow(self):
        assert FlowStats(flow_id=1).loss_rate() == 0.0
