"""TCP Tahoe.

Fast retransmit exists but there is no fast recovery: three duplicate
ACKs retransmit the lost packet and then the sender behaves exactly as
after a timeout — ``cwnd`` collapses to one packet and slow start
rebuilds the window, resending from ``snd_una`` (go-back-N).  The
paper's Figure 5 shows Tahoe beating New-Reno under heavy bursty loss
precisely because this blunt reaction resends everything instead of
stalling.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.tcp.base import TcpSender


class TahoeSender(TcpSender):
    """Tahoe: fast retransmit + slow start restart."""

    variant = "tahoe"

    def _fast_retransmit(self, packet: Packet) -> None:
        self.ssthresh = self._halved_ssthresh()
        self.cwnd = 1.0
        self._note_cwnd()
        # Go-back-N from the hole; the retransmission below is the
        # first packet of the new slow start.
        self.snd_nxt = self.snd_una
        self._rtt_seq = None
        self._timer.restart(self.rto.current())
        self.send_available()

    # No recovery phase: ``in_recovery`` is never set, so the base
    # class's dup-ACK path triggers on exactly the threshold, ignores
    # later duplicates of the same window, and never reaches the
    # ``_recovery_*`` hooks.

    def _on_timeout_reset(self) -> None:
        pass  # no recovery point or guard to rewind
