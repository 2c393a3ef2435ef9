"""Two recovery tweaks discussed in the paper's introduction, included
as extra baselines for ablation studies.

* **Right-edge recovery** (Balakrishnan et al., INFOCOM'98 [1]): during
  fast recovery "one new data packet is sent out upon receipt of each
  duplicate ACK, instead of two duplicate ACKs" — it keeps the ACK
  clock alive under tiny windows, but (the paper argues) refuses to
  drain congestion because the packet-conservation rule is violated
  right when the network is overloaded.

* **Lin–Kung** (INFOCOM'98 [12]): a new data packet is generated upon
  each of the *first two* duplicate ACKs, i.e. before fast retransmit
  even triggers, retaining aggressiveness when the duplicates turn out
  to be reordering rather than loss.

Both are implemented as deltas over New-Reno, which is how the
literature frames them.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.tcp.newreno import NewRenoSender


class RightEdgeSender(NewRenoSender):
    """New-Reno whose recovery sends one new packet per duplicate ACK."""

    variant = "rightedge"

    def _recovery_dupack(self, packet: Packet) -> None:
        self.dupacks += 1
        # Bypass window inflation arithmetic: each duplicate ACK means a
        # packet left the network, so transmit one new packet directly
        # (respecting only the receiver window and data availability).
        self._send_one_new()


class LinKungSender(NewRenoSender):
    """New-Reno that also sends new data on the first two duplicate ACKs."""

    variant = "linkung"

    def _process_dupack(self, packet: Packet) -> None:
        if not self.in_recovery and self.dupacks < 2:
            self._send_one_new()
        super()._process_dupack(packet)
