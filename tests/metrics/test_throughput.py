"""Unit tests for throughput/goodput metrics."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.flowstats import FlowStats
from repro.metrics.throughput import (
    effective_throughput_bps,
    goodput_bps,
    loss_recovery_span,
    loss_recovery_throughput,
)


class FakeSender:
    snd_una = 0
    recover = 0


def stats_with_acks(acks, sends=None):
    stats = FlowStats(flow_id=1)
    sender = FakeSender()
    stats.on_start(0.0, sender)
    for t, seq, retransmit in sends or []:
        stats.on_send(t, sender, seq, retransmit)
    for t, ack in acks:
        stats.on_ack(t, sender, ack, duplicate=False)
    return stats


class TestGoodput:
    def test_basic_rate(self):
        stats = stats_with_acks([(1.0, 0), (2.0, 10)])
        # 10 packets * 1000 B * 8 over 1 s
        assert goodput_bps(stats, 1.0, 2.0) == pytest.approx(80_000.0)

    def test_window_with_no_progress_is_zero(self):
        stats = stats_with_acks([(1.0, 10)])
        assert goodput_bps(stats, 2.0, 3.0) == 0.0

    def test_invalid_window_rejected(self):
        stats = stats_with_acks([(1.0, 10)])
        with pytest.raises(ConfigurationError):
            goodput_bps(stats, 2.0, 2.0)

    def test_custom_mss(self):
        stats = stats_with_acks([(0.0, 0), (1.0, 5)])
        assert goodput_bps(stats, 0.0, 1.0, mss_bytes=500) == pytest.approx(20_000.0)


class TestEffectiveThroughput:
    def test_uses_completion_time(self):
        stats = stats_with_acks([(1.0, 5), (4.0, 20)])
        stats.on_complete(4.0, FakeSender())
        assert effective_throughput_bps(stats) == pytest.approx(20 * 8000 / 4.0)

    def test_explicit_until(self):
        stats = stats_with_acks([(1.0, 5), (4.0, 20)])
        assert effective_throughput_bps(stats, until=2.0) == pytest.approx(
            5 * 8000 / 2.0
        )

    def test_unstarted_flow_is_zero(self):
        assert effective_throughput_bps(FlowStats(flow_id=1)) == 0.0


class TestLossRecoverySpan:
    def test_no_retransmissions_means_no_span(self):
        stats = stats_with_acks([(1.0, 10)], sends=[(0.0, 0, False)])
        assert loss_recovery_span(stats) is None
        assert loss_recovery_throughput(stats) is None

    def test_span_from_first_retransmission(self):
        sends = [(0.0, 0, False), (0.1, 1, False), (0.2, 2, False), (1.0, 0, True)]
        acks = [(0.5, 0), (2.0, 3)]
        stats = stats_with_acks(acks, sends=sends)
        span = loss_recovery_span(stats)
        assert span is not None
        t_start, t_end, target = span
        assert t_start == pytest.approx(1.0)
        assert target == 3  # everything sent before the retransmission
        assert t_end == pytest.approx(2.0)

    def test_throughput_over_span(self):
        sends = [(0.0, 0, False), (0.1, 1, False), (1.0, 0, True)]
        acks = [(2.0, 2)]
        stats = stats_with_acks(acks, sends=sends)
        assert loss_recovery_throughput(stats) == pytest.approx(2 * 8000 / 1.0)

    def test_unrecovered_span_is_none(self):
        sends = [(0.0, 0, False), (1.0, 0, True)]
        stats = stats_with_acks([], sends=sends)
        assert loss_recovery_span(stats) is None

