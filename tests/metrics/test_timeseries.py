"""Unit tests for sequence-number time series extraction."""

import pytest

from repro.metrics.flowstats import FlowStats
from repro.metrics.timeseries import SequenceTracer


class FakeSender:
    snd_una = 0
    recover = 0


def populated_stats():
    stats = FlowStats(flow_id=1)
    sender = FakeSender()
    stats.on_send(0.0, sender, 0, retransmit=False)
    stats.on_send(0.5, sender, 1, retransmit=False)
    stats.on_send(1.0, sender, 0, retransmit=True)
    stats.on_ack(0.4, sender, 1, duplicate=False)
    stats.on_ack(2.0, sender, 2, duplicate=False)
    return stats


class TestTrace:
    def test_series_split_by_kind(self):
        trace = SequenceTracer(populated_stats()).trace()
        assert trace.sends == [(0.0, 0), (0.5, 1)]
        assert trace.retransmits == [(1.0, 0)]
        assert trace.acks == [(0.4, 1), (2.0, 2)]

    def test_time_window_filter(self):
        trace = SequenceTracer(populated_stats()).trace(t_start=0.4, t_end=1.0)
        assert trace.sends == [(0.5, 1)]
        assert trace.retransmits == [(1.0, 0)]
        assert trace.acks == [(0.4, 1)]


class TestStalls:
    def test_detects_long_gap(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        for t, ack in [(0.0, 1), (0.1, 2), (3.0, 3), (3.1, 4)]:
            stats.on_ack(t, sender, ack, duplicate=False)
        stalls = SequenceTracer(stats).stall_periods(threshold=1.0)
        assert stalls == [(0.1, 3.0)]

    def test_no_stalls_when_smooth(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        for i in range(10):
            stats.on_ack(i * 0.1, sender, i, duplicate=False)
        assert SequenceTracer(stats).stall_periods(threshold=1.0) == []

    def test_trailing_stall_reported_with_t_end(self):
        # A flow that goes quiet: last ACK at 2.0, window ends at 6.0 —
        # the timeout plateau Figure 6(a) ends on.
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        for t, ack in [(0.0, 1), (1.0, 2), (2.0, 3)]:
            stats.on_ack(t, sender, ack, duplicate=False)
        tracer = SequenceTracer(stats)
        assert tracer.stall_periods(threshold=2.0) == []
        assert tracer.stall_periods(threshold=2.0, t_end=6.0) == [(2.0, 6.0)]

    def test_trailing_stall_below_threshold_not_reported(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        stats.on_ack(5.5, sender, 1, duplicate=False)
        assert SequenceTracer(stats).stall_periods(threshold=1.0, t_end=6.0) == []

    def test_both_interior_and_trailing_stalls(self):
        stats = FlowStats(flow_id=1)
        sender = FakeSender()
        for t, ack in [(0.0, 1), (3.0, 2), (3.2, 3)]:
            stats.on_ack(t, sender, ack, duplicate=False)
        stalls = SequenceTracer(stats).stall_periods(threshold=1.0, t_end=6.0)
        assert stalls == [(0.0, 3.0), (3.2, 6.0)]

    def test_no_acks_counts_as_stalled_from_zero(self):
        tracer = SequenceTracer(FlowStats(flow_id=1))
        assert tracer.stall_periods(threshold=1.0, t_end=6.0) == [(0.0, 6.0)]
        assert tracer.stall_periods(threshold=1.0) == []
