"""Shared configuration records.

:class:`TcpConfig` gathers every tunable of the TCP agents.  Defaults
match the paper's evaluation setup: 1000-byte data packets, 40-byte
ACKs, an ACK for every received packet (delayed ACKs off — Section 2.2
relies on immediate ACKs for out-of-order data), windows and buffers
measured in packets.
"""

from __future__ import annotations

from repro._record import Record
from repro.errors import ConfigurationError


class TcpConfig(Record, frozen=True):
    """TCP agent tunables (packet-unit convention, see DESIGN.md §3).

    Attributes
    ----------
    mss_bytes:
        Data packet size on the wire (paper: 1000 bytes).
    ack_bytes:
        ACK packet size (paper: 40 bytes).
    initial_cwnd:
        Initial congestion window, packets.
    initial_ssthresh:
        Initial slow-start threshold, packets (effectively "large").
    receiver_window:
        Advertised window, packets.
    dupack_threshold:
        Duplicate ACKs that trigger fast retransmit (3, as everywhere).
    initial_rto:
        RTO before the first RTT sample (RFC 6298 suggests 1-3 s).
    min_rto / max_rto:
        RTO clamp.
    timer_granularity:
        Coarse timer tick in seconds (0 = exact timers).  The classic
        100 ms tick reproduces the visibly coarse timeouts of Fig. 6(a).
    max_burst:
        Packets a New-Reno/SACK sender may emit per incoming ACK while
        in recovery (the paper's "maxburst"; 0 disables the limit).
    delayed_ack:
        Enable RFC 1122 delayed ACKs at the receiver.  Off by default:
        the paper's receivers ACK every packet.
    delayed_ack_timeout:
        Delayed-ACK timer, seconds.
    sack_block_limit:
        Max SACK blocks carried per ACK (RFC 2018 allows 3-4).
    ecn_enabled:
        Negotiate ECN: data packets carry the ECT codepoint and the
        sender halves its window (at most once per RTT) on an echoed
        congestion mark instead of waiting for a loss.  Off by default
        — the paper predates deployed ECN; provided as an extension.
    slow_start_restart:
        RFC 2581 §4.1: after the connection has been idle for more
        than one RTO, collapse cwnd back to the initial window before
        sending again, so an on/off source cannot blast a stale full
        window into the path.  Off by default (the paper's sources are
        never idle).
    """

    mss_bytes: int = 1000
    ack_bytes: int = 40
    initial_cwnd: float = 1.0
    initial_ssthresh: float = 64.0
    receiver_window: int = 64
    dupack_threshold: int = 3
    initial_rto: float = 3.0
    min_rto: float = 1.0
    max_rto: float = 64.0
    timer_granularity: float = 0.1
    max_burst: int = 4
    delayed_ack: bool = False
    delayed_ack_timeout: float = 0.2
    sack_block_limit: int = 3
    ecn_enabled: bool = False
    slow_start_restart: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.mss_bytes < 1 or self.ack_bytes < 1:
            raise ConfigurationError("packet sizes must be positive")
        if self.initial_cwnd < 1:
            raise ConfigurationError("initial cwnd must be >= 1 packet")
        if self.receiver_window < 1:
            raise ConfigurationError("receiver window must be >= 1 packet")
        if self.dupack_threshold < 1:
            raise ConfigurationError("dupack threshold must be >= 1")
        if not 0 < self.min_rto <= self.max_rto:
            raise ConfigurationError("need 0 < min_rto <= max_rto")
        if self.initial_rto <= 0:
            raise ConfigurationError("initial_rto must be positive")
        if self.timer_granularity < 0:
            raise ConfigurationError("timer granularity must be >= 0")
        if self.max_burst < 0:
            raise ConfigurationError("max_burst must be >= 0")
        if self.sack_block_limit < 1:
            raise ConfigurationError("sack_block_limit must be >= 1")
