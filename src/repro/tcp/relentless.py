"""Relentless TCP (Mathis, draft-mathis-iccrg-relentless-tcp): the
no-multiplicative-backoff rival.

The defining rule: on loss, reduce ``cwnd`` by *exactly the number of
segments lost* — never halve.  Growth stays AIMD's +1/RTT, so under a
random per-packet loss rate ``p`` the window equilibrates where the
per-RTT gain (1) equals the per-RTT loss (``p * W``):

    W* = 1 / p            (vs Reno's  W* = sqrt(3/2) / sqrt(p))

— the 1/p scaling Diana & Lochin derive analytically
(:mod:`repro.models.relentless` implements their model as the oracle
for this sender).  Relentless is deliberately *not* TCP-friendly: it
only sheds what the network actually destroyed, so against AIMD flows
it converges to a much larger share — the paper's friendliness tables
assume everyone halves.

Implementation: New-Reno partial-ACK recovery supplies loss detection,
hole retransmission and ACK-clock maintenance (dup-ACK inflation is
kept purely as pipe bookkeeping); the differences are confined to the
window arithmetic:

* entry does **not** halve — it pins ``ssthresh`` one segment below
  the entry window (losses are repaid, not discounted);
* every retransmitted hole counts one lost segment;
* congestion avoidance *continues through recovery* (the draft's
  other half: without it, a flow at the 1/p equilibrium — which sees
  one loss event per RTT and so lives in recovery — would never grow).
  Each in-recovery ACK tallies growth at the entry-window CA rate
  (``1/entry_cwnd``), applied at exit;
* the *full* ACK deflates to
  ``entry_cwnd + tallied_growth - lost_segments`` and sets
  ``ssthresh`` to the same value, so the sender resumes congestion
  avoidance (never slow start) after recovery;
* retransmission timeouts keep the full conservative response
  (ssthresh = flight/2, cwnd = 1, go-back-N): per the draft, losing
  the ACK clock entirely still warrants a real backoff.

Observable signature (for ``repro.ident``): sawtooth teeth of depth
~``#lost`` instead of ``W/2`` in ``tcp.cwnd``, recovery exits that
barely dent the window, and a near-constant send rate across loss
episodes.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.tcp.newreno import NewRenoSender


class RelentlessSender(NewRenoSender):
    """Mathis-style Relentless congestion control."""

    variant = "relentless"

    #: Partial ACKs deflate by what they acknowledged (RFC 2582).
    partial_window_deflation = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Window at recovery entry, lost segments repaired during the
        # current episode (= retransmissions: the entry hole plus one
        # per partial ACK), and congestion-avoidance growth tallied
        # across the episode (1/entry_cwnd per in-recovery ACK).
        self._entry_cwnd: float = 0.0
        self._episode_losses: int = 0
        self._episode_growth: float = 0.0

    def _cut_window(self) -> None:
        self._entry_cwnd = self.cwnd
        self._episode_losses = 1
        self._episode_growth = 0.0
        # No halving: park ssthresh just below the entry window so the
        # post-recovery sender is in congestion avoidance, and keep the
        # usual +dupack_threshold inflation for ACK clocking.
        self.ssthresh = max(self.cwnd - 1.0, 2.0)
        self.cwnd = self.ssthresh + self.config.dupack_threshold
        self._note_cwnd()

    def _recovery_dupack(self, packet: Packet) -> None:
        # CA keeps running through recovery: one delivered packet's
        # worth of growth, at the entry-window rate.
        self._episode_growth += 1.0 / max(self._entry_cwnd, 1.0)
        super()._recovery_dupack(packet)

    def _recovery_new_ack(self, packet: Packet) -> None:
        self._episode_growth += 1.0 / max(self._entry_cwnd, 1.0)
        super()._recovery_new_ack(packet)

    def _deflate_full(self) -> None:
        # Give back exactly the segments the path lost, keep the growth
        # CA earned meanwhile.
        self.cwnd = max(self._entry_cwnd + self._episode_growth - self._episode_losses, 2.0)
        self.ssthresh = self.cwnd
        self._note_cwnd()

    def _deflate_partial(self, newly_acked: int) -> None:
        # One more hole = one more lost segment.  Deflate RFC 2582-style
        # (acked amount minus the one retransmission) so the ACK clock
        # keeps ticking.
        self._episode_losses += 1
        super()._deflate_partial(newly_acked)
