"""TCP SACK: selective-acknowledgment recovery with a scoreboard and a
``pipe`` estimator.

Two pipe algorithms are provided:

* ``"sack1"`` (default) — the Fall & Floyd '96 / ns-2 ``Sack1`` agent
  that the paper's evaluation used: ``pipe`` is maintained
  *incrementally* (decremented by one per duplicate ACK, by two per
  partial ACK, incremented per transmission) and the sender transmits
  whenever ``pipe < cwnd`` with ``cwnd`` halved for the whole episode.
  Holes (un-SACKed packets below the highest SACKed one) are
  retransmitted before new data.

* ``"rfc3517"`` — the modern conservative recovery: ``pipe`` is
  *recomputed* from the scoreboard on every ACK (``SetPipe``), and only
  packets the IsLost predicate deems lost are retransmitted.  This is
  measurably stronger than sack1; the reproduction keeps both so the
  benchmarks can show how much of the paper's "RR beats SACK" margin is
  really "RR beats *1996* SACK" (see EXPERIMENTS.md).

Either way, this is the variable the paper contrasts ``actnum`` with in
Section 2.1: "the variable pipe just passively estimates the number of
outstanding packets in the path" while cwnd keeps the control role —
and SACK needs a cooperating receiver, which RR does not.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.tcp.base import TcpSender
from repro.tcp.scoreboard import Scoreboard


class SackSender(TcpSender):
    """SACK-based loss recovery (requires a SACK-capable receiver)."""

    variant = "sack"

    #: "sack1" (paper-era, default) or "rfc3517" (modern conservative).
    pipe_algorithm = "sack1"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scoreboard = Scoreboard(self.config.dupack_threshold)
        # The RFC 2582 guard (TcpSender._no_retransmit_below).
        self._no_retransmit_below = -1
        self._pipe = 0  # incremental estimate (sack1 mode only)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _process_new_ack(self, packet: Packet) -> None:
        self.scoreboard.update(packet.ackno, packet.sack_blocks)
        super()._process_new_ack(packet)

    def _process_dupack(self, packet: Packet) -> None:
        self.scoreboard.update(packet.ackno, packet.sack_blocks)
        super()._process_dupack(packet)

    def _cut_window(self) -> None:
        self.ssthresh = self._halved_ssthresh()
        self.cwnd = self.ssthresh
        self._note_cwnd()
        # sack1: the three duplicate ACKs mean three packets have left
        # the network.
        self._pipe = max(self.flight() - self.config.dupack_threshold, 0)

    def _fast_retransmit(self, packet: Packet) -> None:
        super()._fast_retransmit(packet)
        if self.in_recovery:  # entered: fill the pipe, holes first
            self._send_limited()

    def _recovery_dupack(self, packet: Packet) -> None:
        self.dupacks += 1
        self._pipe = max(self._pipe - 1, 0)
        self._send_limited()

    def _recovery_new_ack(self, packet: Packet) -> None:
        ackno = packet.ackno
        self._ack_common(ackno)
        if ackno >= self.recover:
            self._exit_recovery_common()
            self._no_retransmit_below = self.recover
            self.send_available()
            return
        self._timer.restart(self.rto.current())
        # Fall & Floyd: a partial ACK implies both the original and its
        # retransmission have left the pipe.
        self._pipe = max(self._pipe - 2, 0)
        if self.pipe_algorithm == "rfc3517":
            # A partial ACK pinpoints the next hole even when fewer
            # than DupThresh SACKed packets sit above it: retransmit it
            # directly (as ns-2 does) rather than stalling into an RTO.
            if not self.scoreboard.is_sacked(self.snd_una) and not self.scoreboard.was_retransmitted(self.snd_una):
                self._retransmit(self.snd_una)
        self._send_limited()

    # ------------------------------------------------------------------
    # pipe-driven transmission
    # ------------------------------------------------------------------
    def current_pipe(self) -> int:
        """The in-path estimate the send decision uses."""
        if self.pipe_algorithm == "rfc3517":
            return self.scoreboard.pipe(self.snd_una, self.snd_nxt)
        return self._pipe

    def _retransmit(self, seqno: int) -> None:
        super()._retransmit(seqno)
        self.scoreboard.mark_retransmitted(seqno)
        self._pipe += 1

    def _next_hole(self):
        if self.pipe_algorithm == "rfc3517":
            return self.scoreboard.next_retransmission(self.snd_una, self.snd_nxt)
        # sack1: first un-SACKed, not-yet-retransmitted packet below the
        # highest SACKed one.
        for seqno in range(self.snd_una, self.snd_nxt):
            if self.scoreboard.is_sacked(seqno) or self.scoreboard.was_retransmitted(seqno):
                continue
            if self.scoreboard.highest_sacked() > seqno:
                return seqno
            return None  # beyond the highest SACKed packet: not a hole
        return None

    def _send_window(self, max_packets=None) -> int:
        """Transmit while ``pipe < cwnd``: scoreboard holes first, then
        new data, at most ``max_packets``."""
        sent = 0
        while max_packets is None or sent < max_packets:
            if self.current_pipe() + 1 > int(self.cwnd):
                break
            hole = self._next_hole()
            if hole is not None:
                self._retransmit(hole)
            elif self._send_one_new():
                self._pipe += 1
            else:
                break
            sent += 1
        return sent

    def _on_timeout_reset(self) -> None:
        super()._on_timeout_reset()
        self.scoreboard.clear()
        self._pipe = 0


class SackRfc3517Sender(SackSender):
    """SACK with the modern RFC 3517 pipe algorithm (extension)."""

    variant = "sack3517"
    pipe_algorithm = "rfc3517"
