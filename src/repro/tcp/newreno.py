"""TCP New-Reno: fast recovery with partial-ACK retransmission
(RFC 2582, the variant the paper benchmarks against).

Differences from Reno:

* ``recover`` notes the highest sequence outstanding when recovery
  starts; a *partial* ACK (``ackno < recover``) retransmits the next
  hole immediately and stays in recovery, deflating the inflated window
  by the amount of new data acknowledged (plus one packet);
* only the *full* ACK (``ackno >= recover``) exits recovery;
* the "avoid multiple fast retransmits" guard: three duplicate ACKs
  arriving while ``snd_una < recover`` from a previous episode do not
  re-enter recovery;
* a ``maxburst`` limit caps packets released per incoming ACK during
  recovery (the knob the paper criticises in Section 2.2.3: "it only
  limits burstiness but doesn't remove it").

Partial-ACK deflation comes in two flavours, selected by
``partial_window_deflation``:

* ``False`` (default — the ns-2 behaviour of the paper's era): each
  partial ACK deflates the window all the way back to ``ssthresh``,
  discarding the accumulated dup-ACK inflation.  New data then flows
  only after enough duplicates re-inflate past the (frozen) flight
  size, so the new-data rate *halves every RTT* — exactly the
  "decreases exponentially ... during the entire congestion-recovery
  period" weakness Section 1 of the paper attacks.
* ``True`` (RFC 2582's "partial window deflation"): deflate by the
  amount acknowledged plus one packet, a much milder reaction.

The structural weakness the paper targets remains faithfully present
either way: one loss is repaired per RTT, and with full deflation a
long burst of losses starves the ACK clock into a coarse timeout.

The recovery skeleton itself (the guard, hole repair, full-ACK exit
and ``maxburst``) is :class:`~repro.tcp.base.TcpSender`'s; New-Reno
adds only its partial-ACK deflation and the guard's field.
"""

from __future__ import annotations

from repro.tcp.base import TcpSender


class NewRenoSender(TcpSender):
    """New-Reno partial-ACK fast recovery: the base class's recovery
    skeleton plus its partial-ACK deflation."""

    variant = "newreno"

    #: False = ns-2 classic full deflation (paper era); True = RFC 2582.
    partial_window_deflation = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The RFC 2582 §3 guard (TcpSender._no_retransmit_below), moved
        # by every exit and timeout.
        self._no_retransmit_below = -1

    def _deflate_partial(self, newly_acked: int) -> None:
        if self.partial_window_deflation:
            # RFC 2582: remove what the partial ACK took out of the
            # pipe, then add one packet for the retransmission.
            self.cwnd = max(self.cwnd - newly_acked + 1.0, 1.0)
        else:
            # ns-2 classic: discard all dup-ACK inflation; the next
            # RTT's duplicates must re-inflate from ssthresh before any
            # new data flows (per-RTT exponential decay).
            self.cwnd = self.ssthresh
        self._note_cwnd()
