"""Throughput metrics.

"The performance evaluation is based on effective throughput, which is
a commonly-used metric for end-to-end protocols" (Section 3) —
effective throughput is *goodput*: new data acknowledged per unit time
(retransmissions of already-delivered packets do not count, because the
cumulative ACK only advances on new data).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.metrics.flowstats import FlowStats


def goodput_bps(
    stats: FlowStats,
    t_start: float,
    t_end: float,
    mss_bytes: int = 1000,
) -> float:
    """Goodput (bits/second) of one flow over [t_start, t_end]."""
    if t_end <= t_start:
        raise ConfigurationError("need t_end > t_start")
    acked = stats.acked_at(t_end) - stats.acked_at(t_start)
    return acked * mss_bytes * 8.0 / (t_end - t_start)


def effective_throughput_bps(
    stats: FlowStats,
    mss_bytes: int = 1000,
    until: Optional[float] = None,
) -> float:
    """Whole-connection effective throughput: data acked / elapsed time
    from flow start to completion (or ``until``)."""
    if stats.start_time is None:
        return 0.0
    t_end = until
    if t_end is None:
        t_end = stats.complete_time if stats.complete_time is not None else (
            stats.ack_series[-1][0] if stats.ack_series else None
        )
    if t_end is None or t_end <= stats.start_time:
        return 0.0
    return stats.acked_at(t_end) * mss_bytes * 8.0 / (t_end - stats.start_time)


def loss_recovery_span(stats: FlowStats) -> Optional[Tuple[float, float, int]]:
    """Variant-independent recovery span.

    Works even for Tahoe, which has no recovery *phase*: the span
    starts at the flow's first retransmission (= first loss detection)
    and ends when the cumulative ACK first covers everything that had
    been sent by that moment.  Returns ``(t_start, t_end, target)`` or
    None if no retransmission happened / the target was never reached.
    """
    first_rtx = next(
        ((t, seq) for t, seq, retransmit in stats.send_series if retransmit), None
    )
    if first_rtx is None:
        return None
    t_start = first_rtx[0]
    sent_before = [seq for t, seq, _ in stats.send_series if t <= t_start]
    target = max(sent_before) + 1
    t_end = stats.time_ack_reached(target)
    if t_end is None or t_end <= t_start:
        return None
    return t_start, t_end, target


def loss_recovery_throughput(stats: FlowStats, mss_bytes: int = 1000) -> Optional[float]:
    """Goodput (bits/second) over :func:`loss_recovery_span`."""
    span = loss_recovery_span(stats)
    if span is None:
        return None
    t_start, t_end, _ = span
    return goodput_bps(stats, t_start, t_end, mss_bytes)

