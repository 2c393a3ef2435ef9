"""TCP Reno: fast retransmit + classic fast recovery (RFC 2581).

On the third duplicate ACK the sender halves its window
(``ssthresh = flight/2``), retransmits the hole and inflates
``cwnd = ssthresh + 3``; each further duplicate ACK inflates ``cwnd``
by one packet, releasing new data once the inflated window exceeds the
(frozen) flight size.  *Any* new ACK — even a partial one — deflates
``cwnd`` to ``ssthresh`` and exits recovery.

That exit-on-partial-ACK is Reno's documented weakness with bursty
losses: each remaining hole needs a fresh fast retransmit (halving the
window again) or a timeout.  The paper leans on this to motivate both
New-Reno and RR.

Entry is the base class's skeleton with its guard left open: Reno has
no stale-duplicate protection, and no ``maxburst`` cap.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.tcp.base import TcpSender


class RenoSender(TcpSender):
    """Reno fast recovery, including its multiple-halving pathology."""

    variant = "reno"

    def _recovery_dupack(self, packet: Packet) -> None:
        self.dupacks += 1
        self.cwnd += 1.0  # window inflation
        self._note_cwnd()
        self.send_available()

    def _recovery_new_ack(self, packet: Packet) -> None:
        # Reno exits on ANY new ACK, partial or full: deflate and resume
        # congestion avoidance.
        self._deflate_full()
        self._ack_common(packet.ackno)
        self._exit_recovery_common()
        self.send_available()

    def _on_timeout_reset(self) -> None:
        pass  # no guard, and no recovery point anything reads
