"""Unit tests for the shared sender machinery (window accounting, slow
start, congestion avoidance, RTO handling).

These run against RenoSender — the simplest concrete variant — but only
exercise code paths implemented in the base class.
"""

import pytest

from repro.config import TcpConfig
from repro.errors import ProtocolError
from repro.tcp.reno import RenoSender
from tests.conftest import SenderHarness


def make(config=None) -> SenderHarness:
    return SenderHarness(RenoSender, config=config)


class TestSlowStart:
    def test_initial_window_is_one(self):
        harness = make()
        harness.start()
        assert harness.host.data_seqs() == [0]

    def test_window_doubles_per_rtt(self):
        harness = make()
        harness.start()
        harness.ack(1)
        assert harness.sender.cwnd == pytest.approx(2.0)
        assert harness.host.data_seqs() == [0, 1, 2]
        harness.ack(2)
        harness.ack(3)
        assert harness.sender.cwnd == pytest.approx(4.0)
        assert harness.host.data_seqs() == [0, 1, 2, 3, 4, 5, 6]

    def test_starts_only_once(self):
        harness = make()
        harness.start()
        harness.start()
        assert harness.host.data_seqs() == [0]


class TestCongestionAvoidance:
    def test_linear_growth_above_ssthresh(self):
        harness = make(TcpConfig(initial_ssthresh=2.0))
        harness.start()
        harness.ack(1)  # slow start: cwnd 2
        cwnd_before = harness.sender.cwnd
        harness.ack(2)  # now at/above ssthresh -> +1/cwnd
        assert harness.sender.cwnd == pytest.approx(cwnd_before + 1.0 / cwnd_before)

    def test_receiver_window_caps_sending(self):
        harness = make(TcpConfig(receiver_window=4, initial_ssthresh=64))
        harness.start()
        for ack in range(1, 10):
            harness.ack(ack)
        # flight never exceeds rwnd
        assert harness.sender.flight() <= 4


class TestDataLimit:
    def test_stops_at_limit(self):
        harness = make()
        harness.sender.set_data_limit(3)
        harness.start()
        harness.ack(1)
        harness.ack(2)
        harness.ack(3)
        assert harness.host.data_seqs() == [0, 1, 2]

    def test_completion_recorded(self):
        harness = make()
        harness.sender.set_data_limit(2)
        harness.start()
        harness.ack(1)
        harness.ack(2)
        assert harness.sender.completed
        assert harness.sender.complete_time == harness.sim.now

    def test_completion_callback(self):
        harness = make()
        times = []
        harness.sender.completion_callbacks.append(times.append)
        harness.sender.set_data_limit(1)
        harness.start()
        harness.ack(1)
        assert len(times) == 1

    def test_acks_after_completion_ignored(self):
        harness = make()
        harness.sender.set_data_limit(1)
        harness.start()
        harness.ack(1)
        harness.ack(1)  # no crash, no sends
        assert harness.host.data_seqs() == [0]

    def test_invalid_limit_rejected(self):
        harness = make()
        with pytest.raises(ProtocolError):
            harness.sender.set_data_limit(0)


class TestAckHandling:
    def test_cumulative_ack_advances_una(self):
        harness = make()
        harness.start()
        harness.ack(1)
        assert harness.sender.snd_una == 1

    def test_stale_ack_ignored(self):
        harness = make()
        harness.start()
        harness.ack(1)
        harness.host.clear()
        harness.ack(0)  # stale
        assert harness.host.sent == []
        assert harness.sender.snd_una == 1

    def test_dupack_counting(self):
        harness = make(TcpConfig(initial_cwnd=4.0))
        harness.start()
        harness.dupacks(0, 2)
        assert harness.sender.dupacks == 2

    def test_new_ack_resets_dupacks(self):
        harness = make(TcpConfig(initial_cwnd=4.0))
        harness.start()
        harness.dupacks(0, 2)
        harness.ack(1)
        assert harness.sender.dupacks == 0

    def test_dupack_with_no_outstanding_data_ignored(self):
        harness = make()
        harness.sender.set_data_limit(1)
        harness.start()
        harness.ack(1)
        harness.ack(1)
        assert harness.sender.dupacks == 0


class TestTimeout:
    def test_timeout_collapses_window(self):
        harness = make(TcpConfig(initial_cwnd=8.0, min_rto=1.0))
        harness.start()  # 8 packets out
        harness.advance(5.0)  # RTO fires
        assert harness.sender.timeouts == 1
        assert harness.sender.cwnd == pytest.approx(1.0)
        assert harness.sender.ssthresh == pytest.approx(4.0)

    def test_timeout_triggers_go_back_n(self):
        harness = make(TcpConfig(initial_cwnd=4.0, min_rto=1.0))
        harness.start()
        harness.host.clear()
        harness.advance(5.0)
        # After collapse, one packet (the first unacked) is resent.
        assert harness.host.data_seqs() == [0]
        assert harness.host.sent[0].is_retransmit

    def test_backoff_doubles_rto(self):
        harness = make(TcpConfig(initial_cwnd=2.0, min_rto=1.0, initial_rto=1.0))
        harness.start()
        harness.advance(2.0)  # first RTO fires at t=1.0
        assert harness.sender.timeouts == 1
        # Backed-off RTO is 2.0 s from the t=1.0 restart -> fires at 3.0.
        harness.advance(0.9)  # t=2.9: not yet
        assert harness.sender.timeouts == 1
        harness.advance(0.2)  # t=3.1: fired
        assert harness.sender.timeouts == 2

    def test_no_timeout_without_outstanding_data(self):
        harness = make()
        harness.sender.set_data_limit(1)
        harness.start()
        harness.ack(1)
        harness.advance(100.0)
        assert harness.sender.timeouts == 0

    def test_ack_restarts_timer(self):
        harness = make(TcpConfig(initial_cwnd=2.0, min_rto=1.0, initial_rto=1.0))
        harness.start()
        harness.advance(0.6)
        harness.ack(1)  # restart
        harness.advance(0.6)  # total 1.2 but timer restarted at 0.6
        assert harness.sender.timeouts == 0


class TestRttSampling:
    def test_sample_taken_from_ack(self):
        harness = make()
        harness.start()
        harness.advance(0.25)
        harness.ack(1)
        assert harness.sender.rto.samples == 1
        assert harness.sender.rto.srtt == pytest.approx(0.25)

    def test_karn_rule_skips_retransmitted(self):
        harness = make(TcpConfig(initial_cwnd=2.0, min_rto=1.0, initial_rto=1.0))
        harness.start()
        harness.advance(2.0)  # timeout, packet 0 retransmitted
        harness.ack(1)
        # The sample for packet 0 must have been abandoned.
        assert harness.sender.rto.samples == 0

    def test_one_sample_per_window(self):
        harness = make(TcpConfig(initial_cwnd=4.0))
        harness.start()  # 4 packets, sample armed on packet 0
        harness.advance(0.1)
        harness.ack(1)
        harness.ack(2)
        assert harness.sender.rto.samples == 1  # second ack not sampled yet


class TestCounters:
    def test_packets_sent_counter(self):
        harness = make(TcpConfig(initial_cwnd=3.0))
        harness.start()
        assert harness.sender.packets_sent == 3

    def test_flight_accounting(self):
        harness = make(TcpConfig(initial_cwnd=3.0))
        harness.start()
        assert harness.sender.flight() == 3
        harness.ack(2)
        assert harness.sender.flight() >= 1  # new sends may refill


class TestUnattached:
    def test_start_without_a_host_raises_topology_error(self):
        from repro.errors import TopologyError
        from repro.sim.engine import Simulator

        sender = RenoSender(Simulator(), 1, "K1")
        with pytest.raises(TopologyError, match="not attached"):
            sender.start()
