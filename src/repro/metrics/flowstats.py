"""Per-flow statistics collector.

:class:`FlowStats` plugs into a sender as its
:class:`~repro.tcp.base.SenderObserver` and records everything the
experiments need: the cumulative-ACK time series (goodput), the send
trace (for sequence plots), cwnd samples, timeouts and recovery
episodes.  Drops *observed in the network* are counted separately by
subscribing to ``link.drop`` / ``link.injected_drop`` trace records.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from repro._record import Record, field
from repro.sim.tracing import TraceBus, TraceRecord
from repro.tcp.base import SenderObserver, TcpSender


class RecoveryEpisode(Record):
    """One stay in the congestion-recovery phase."""

    enter_time: float
    enter_ack: int         # snd_una when recovery started
    recover: int           # original exit threshold (maxseq at entry)
    exit_time: Optional[float] = None
    exit_ack: Optional[int] = None

    @property
    def duration(self) -> Optional[float]:
        if self.exit_time is None:
            return None
        return self.exit_time - self.enter_time


class FlowStats(SenderObserver, Record):
    """Collects one flow's sender-side events."""

    flow_id: int = 0
    start_time: Optional[float] = None
    complete_time: Optional[float] = None

    # (time, ackno) at every cumulative-ACK advance
    ack_series: List[Tuple[float, int]] = field(default_factory=list)
    # (time, seqno, retransmit_flag) for every transmission
    send_series: List[Tuple[float, int, bool]] = field(default_factory=list)
    # (time, cwnd)
    cwnd_series: List[Tuple[float, float]] = field(default_factory=list)
    timeout_times: List[float] = field(default_factory=list)
    episodes: List[RecoveryEpisode] = field(default_factory=list)
    dupacks_seen: int = 0
    drops_observed: int = 0
    drop_times: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    # SenderObserver hooks
    # ------------------------------------------------------------------
    def on_start(self, t: float, sender: TcpSender) -> None:
        self.start_time = t

    def on_send(self, t: float, sender: TcpSender, seqno: int, retransmit: bool) -> None:
        self.send_series.append((t, seqno, retransmit))

    def on_ack(self, t: float, sender: TcpSender, ackno: int, duplicate: bool) -> None:
        if duplicate:
            self.dupacks_seen += 1
        else:
            self.ack_series.append((t, ackno))

    def on_cwnd(self, t: float, sender: TcpSender, cwnd: float) -> None:
        self.cwnd_series.append((t, cwnd))

    def on_timeout(self, t: float, sender: TcpSender) -> None:
        self.timeout_times.append(t)

    def on_recovery_enter(self, t: float, sender: TcpSender) -> None:
        self.episodes.append(
            RecoveryEpisode(enter_time=t, enter_ack=sender.snd_una, recover=sender.recover)
        )

    def on_recovery_exit(self, t: float, sender: TcpSender) -> None:
        if self.episodes and self.episodes[-1].exit_time is None:
            episode = self.episodes[-1]
            episode.exit_time = t
            episode.exit_ack = sender.snd_una

    def on_complete(self, t: float, sender: TcpSender) -> None:
        self.complete_time = t

    # ------------------------------------------------------------------
    # network-side drop accounting (via trace bus)
    # ------------------------------------------------------------------
    def watch_drops(self, trace: TraceBus) -> None:
        """Subscribe to the trace bus and count this flow's data-packet
        drops (queue overflows, RED drops, injected losses)."""
        trace.subscribe("link.drop", self._on_drop_record)
        trace.subscribe("link.injected_drop", self._on_drop_record)

    def _on_drop_record(self, record: TraceRecord) -> None:
        packet = record.fields.get("packet")
        if packet is not None and packet.is_data and packet.flow_id == self.flow_id:
            self.drops_observed += 1
            self.drop_times.append(record.time)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def timeouts(self) -> int:
        return len(self.timeout_times)

    @property
    def final_ack(self) -> int:
        return self.ack_series[-1][1] if self.ack_series else 0

    def acked_at(self, t: float) -> int:
        """Cumulative ACK level at time ``t`` (stepwise interpolation)."""
        if not self.ack_series:
            return 0
        times = [p[0] for p in self.ack_series]
        i = bisect.bisect_right(times, t) - 1
        return self.ack_series[i][1] if i >= 0 else 0

    def time_ack_reached(self, level: int) -> Optional[float]:
        """First time the cumulative ACK reached ``level`` (None if never)."""
        for t, ackno in self.ack_series:
            if ackno >= level:
                return t
        return None

    def transfer_delay(self) -> Optional[float]:
        if self.start_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.start_time

    def packets_sent(self) -> int:
        return len(self.send_series)

    def retransmissions(self) -> int:
        return sum(1 for _, _, retransmit in self.send_series if retransmit)

    def loss_rate(self) -> float:
        """Observed network drops over packets sent (0 when idle)."""
        sent = self.packets_sent()
        return self.drops_observed / sent if sent else 0.0


class LeanFlowStats(SenderObserver, Record):
    """Scalar-only per-flow statistics for thousand-flow scenes.

    :class:`FlowStats` keeps full time series (and its drop watcher
    subscribes every flow to the trace bus, an O(flows) cost per drop)
    — perfect for the paper's 10-flow plots, ruinous at scene scale.
    This observer keeps the cheap trace features that still identify a
    flow's behavior (final ACK, send/retransmit/timeout counts, last
    cwnd, recovery entries) in O(1) memory per flow; scene-wide drop
    accounting comes from the bottleneck queue counters instead of
    per-flow subscriptions.
    """

    flow_id: int = 0
    start_time: Optional[float] = None
    complete_time: Optional[float] = None
    final_ack: int = 0
    packets_sent: int = 0
    retransmits: int = 0
    dupacks_seen: int = 0
    timeouts: int = 0
    recoveries: int = 0
    last_cwnd: float = 0.0

    def on_start(self, t: float, sender: TcpSender) -> None:
        self.start_time = t

    def on_send(self, t: float, sender: TcpSender, seqno: int, retransmit: bool) -> None:
        self.packets_sent += 1
        if retransmit:
            self.retransmits += 1

    def on_ack(self, t: float, sender: TcpSender, ackno: int, duplicate: bool) -> None:
        if duplicate:
            self.dupacks_seen += 1
        elif ackno > self.final_ack:
            self.final_ack = ackno

    def on_cwnd(self, t: float, sender: TcpSender, cwnd: float) -> None:
        self.last_cwnd = cwnd

    def on_timeout(self, t: float, sender: TcpSender) -> None:
        self.timeouts += 1

    def on_recovery_enter(self, t: float, sender: TcpSender) -> None:
        self.recoveries += 1

    def on_complete(self, t: float, sender: TcpSender) -> None:
        self.complete_time = t
