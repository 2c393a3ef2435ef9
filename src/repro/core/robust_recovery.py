"""Robust Recovery (RR) — the paper's contribution.

RR replaces fast recovery with a two-sub-phase scheme driven by an
accurate estimate of the data actually in flight (Section 2):

**Entry** (fast retransmit, Fig. 2): on the third duplicate ACK the
sender records the exit threshold (``recover = maxseq``), halves
``ssthresh``, retransmits the first lost packet — and *leaves cwnd
untouched*: congestion control during recovery is handed to ``actnum``.

**Retreat sub-phase** (first RTT only): exponential back-off, exactly
one new packet per two duplicate ACKs (like New-Reno's first RTT);
``actnum`` stays 0 — the test ``actnum == 0`` is how the sender
distinguishes the sub-phases.  The retreat ends at the first
non-duplicate ACK, when ``actnum := ndup/2`` (the number of new packets
sent during the retreat, i.e. what is now in flight) and control
transfers to ``actnum``.

**Probe sub-phase** (each subsequent RTT, delimited by partial ACKs):
every duplicate ACK triggers one new data packet, so ``ndup`` — the
count of duplicate ACKs this RTT — equals the number of last-RTT new
packets that *arrived*.  At the RTT boundary (a partial ACK):

* ``ndup == actnum``  → no further loss: ``actnum += 1`` and one extra
  new packet goes out (linear growth, congestion-avoidance-like);
* ``ndup <  actnum``  → further data loss, detected *without* another
  fast retransmit or timeout: ``actnum := ndup`` (linear shrink — the
  burst was already answered by the retreat's exponential back-off) and
  the exit threshold advances to the current ``maxseq`` so the new
  losses are repaired before leaving recovery.

Either way the partial ACK's hole is retransmitted immediately.

**Exit** (a new ACK at or beyond ``recover``): control returns to
``cwnd = actnum × MSS`` (packet units: ``cwnd = actnum``).  Because
that value is an accurate in-flight count, the exit ACK clocks out a
single new packet — the "big ACK" burst of New-Reno/SACK is eliminated
and no ``maxburst`` clamp is needed.  We additionally set
``ssthresh = max(2, actnum)`` so the sender continues in congestion
avoidance, realising the paper's "seamlessly switched to congestion
avoidance" (see DESIGN.md for this interpretation choice).

ACK losses (Section 2.3) make ``ndup`` undercount and thus look like
further data losses; the penalty is only the linear shrink — this is
deliberate, and the ablation benchmarks quantify it.  Retransmission
losses are handled by the usual RTO (go-back-N in the base class).
"""

from __future__ import annotations

import enum

from repro.net.packet import Packet
from repro.tcp.base import TcpSender


class RrPhase(enum.Enum):
    """RR sender phase (Fig. 1 of the paper)."""

    NORMAL = "normal"      # slow start / congestion avoidance
    RETREAT = "retreat"    # first RTT of recovery: exponential back-off
    PROBE = "probe"        # later RTTs: linear probing for equilibrium


class RobustRecoverySender(TcpSender):
    """TCP sender using the paper's Robust Recovery algorithm.

    Public state mirroring Table 2 of the paper:

    Attributes
    ----------
    actnum:
        Number of new data packets in flight during recovery — the
        congestion-control variable while recovering (0 in retreat).
    ndup:
        Duplicate ACKs received in the current recovery RTT.
    recover:
        Exit threshold (inherited from the base class); advanced when
        further losses are detected.
    phase:
        Current :class:`RrPhase`.
    """

    variant = "rr"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.phase = RrPhase.NORMAL
        self.actnum: int = 0
        self.ndup: int = 0
        self._retreat_sent: int = 0
        # New-data packets actually sent in the current recovery RTT
        # and in the one before it.  A packet sent during RTT k returns
        # its duplicate ACK during RTT k+1, so the further-loss test at
        # the k+1 boundary compares ndup against the *previous* RTT's
        # sends.  That count equals actnum whenever the sender is
        # unconstrained (the paper's assumption); it diverges when the
        # receiver window or the application limits sending, in which
        # case we compare against what really went out rather than
        # inventing losses (see DESIGN.md §4).
        self._sent_this_rtt: int = 0
        self._sent_last_rtt: int = 0
        # The RFC 2582 guard (TcpSender._no_retransmit_below), moved
        # only by timeouts: RR exits only once snd_una reaches recover,
        # so a guard set at exit could never block a later entry.
        self._no_retransmit_below = -1
        # Diagnostics for experiments/tests:
        self.further_losses_detected = 0
        self.exit_extensions = 0
        self.recovery_episodes = 0

    # ------------------------------------------------------------------
    # entry: fast retransmit
    # ------------------------------------------------------------------
    def _cut_window(self) -> None:
        # Fig. 2, entry box: ssthresh = win/2 (the base class sets
        # recover = maxseq and retransmits the first lost packet).  cwnd
        # is NOT changed — it is simply out of the control loop until
        # exit.
        self.ssthresh = self._halved_ssthresh()
        self.phase = RrPhase.RETREAT
        self.actnum = 0
        self.ndup = 0
        self._retreat_sent = 0
        self._sent_this_rtt = 0
        self._sent_last_rtt = 0
        self.recovery_episodes += 1

    def _enter_recovery_common(self) -> None:
        super()._enter_recovery_common()
        self._emit_rr_state()

    def _emit_rr_state(self) -> None:
        """Publish the RR control variables for online invariant
        checking (``actnum >= 0``, ``recover`` only advances, ...)."""
        self._emit(
            "tcp.rr",
            phase=self.phase.value,
            actnum=self.actnum,
            ndup=self.ndup,
            recover=self.recover,
        )

    # ------------------------------------------------------------------
    # duplicate ACKs
    # ------------------------------------------------------------------
    def _recovery_dupack(self, packet: Packet) -> None:
        self.ndup += 1
        if self.phase is RrPhase.RETREAT:
            # Exponential back-off: one new packet per two duplicate ACKs.
            if self.ndup % 2 == 0:
                sent = self._send_one_new()
                self._retreat_sent += sent
                self._sent_this_rtt += sent
        else:
            # Probe: each duplicate ACK clocks out one new packet.
            self._sent_this_rtt += self._send_one_new()

    # ------------------------------------------------------------------
    # non-duplicate ACKs during recovery
    # ------------------------------------------------------------------
    def _recovery_new_ack(self, packet: Packet) -> None:
        ackno = packet.ackno
        if self.phase is RrPhase.RETREAT:
            self._end_retreat(ackno)
        elif ackno >= self.recover:
            self._ack_common(ackno)
            self._exit_recovery()
        else:
            self._probe_rtt_boundary(ackno)

    def _end_retreat(self, ackno: int) -> None:
        """First non-duplicate ACK: the retreat sub-phase is over and
        actnum assumes congestion control (Section 2.2.1)."""
        # Paper: actnum = ndup * 1/2, "the number of new data packets
        # sent out during the retreat sub-phase".  When the application
        # ran out of data fewer were actually sent; take the honest
        # in-flight count in that case (see DESIGN.md).
        self.actnum = min(self.ndup // 2, self._retreat_sent)
        self.ndup = 0
        self._emit_rr_state()
        self._ack_common(ackno)
        if ackno >= self.recover:
            # Single packet loss within the window: recovery is done.
            self._exit_recovery()
            return
        # Multiple losses: enter the probe sub-phase; the partial ACK
        # triggers an immediate retransmission (Fig. 2).  The retreat's
        # new packets return their duplicates during the first probe
        # RTT, so they are the "last RTT" sends for its boundary test.
        self.phase = RrPhase.PROBE
        self._sent_last_rtt = self._retreat_sent
        self._sent_this_rtt = 0
        self._repair_hole()

    def _probe_rtt_boundary(self, ackno: int) -> None:
        """A partial ACK in the probe sub-phase: end of one RTT, start
        of the next (Section 2.2.2/2.2.3)."""
        self._ack_common(ackno)
        # What the last RTT really put in flight: actnum when the
        # sender was unconstrained, less when flow-control bound it.
        expected = min(self.actnum, self._sent_last_rtt)
        self._sent_last_rtt = self._sent_this_rtt
        self._sent_this_rtt = 0
        if self.ndup >= expected:
            self._grow_on_clean_rtt()
        else:
            # Further data loss: ndup < actnum, the difference being the
            # number of packets lost last RTT.  Back off and extend the
            # exit point to cover the new losses.
            self.further_losses_detected += expected - self.ndup
            self.actnum = self._actnum_after_loss()
            if self.maxseq > self.recover:
                self.recover = self.maxseq
                self.exit_extensions += 1
        self.ndup = 0
        self._repair_hole()
        self._emit_rr_state()

    def _grow_on_clean_rtt(self) -> None:
        """No further data loss last RTT: linear growth — one extra new
        packet this RTT and ``actnum += 1``.

        The extra goes out *before* the boundary's retransmission so its
        duplicate ACK returns ahead of the next partial ACK; otherwise
        ndup would systematically undercount by one and every clean RTT
        would read as a further loss (the §2.2.3 equality "ndup should
        be equal to actnum" requires this ordering)."""
        if self._send_one_new():
            self._sent_this_rtt += 1
            self.actnum += 1

    def _actnum_after_loss(self) -> int:
        """actnum after a further loss: ``ndup``, the packets that did
        arrive (linear shrink — the burst was already answered by the
        retreat's exponential back-off)."""
        return self.ndup

    # ------------------------------------------------------------------
    # exit
    # ------------------------------------------------------------------
    def _exit_cwnd(self) -> int:
        """The window handed back at exit (Fig. 2 exit box):
        ``cwnd = actnum × MSS`` (packet units: actnum).

        One refinement over the literal formula: at a saturated
        bottleneck the exiting ACK can arrive through an in-order
        staircase that has already drained part of the last RTT's
        sends, leaving ``flight < actnum``.  Setting cwnd to the raw
        actnum would then release a burst — the very "big ACK problem"
        RR sets out to eliminate.  Since §2.2.3's justification is that
        "the reset value of cwnd accurately measures the amount of data
        packets in flight", we cap the hand-over at flight+1 (identical
        to actnum whenever the idealised Fig.-3 timing holds)."""
        return max(1, min(self.actnum, self.flight() + 1))

    def _exit_recovery(self) -> None:
        """Seamless hand-over back to cwnd, then actnum returns to 0 and
        congestion avoidance resumes."""
        self.cwnd = float(self._exit_cwnd())
        # ssthresh is NOT touched — the Fig. 2 exit box only reassigns
        # cwnd.  It keeps the value halved at entry (win/2), so in the
        # paper's regime (actnum ~ win/2) the sender continues straight
        # into congestion avoidance ("seamlessly switched"), while after
        # a lossy recovery that left actnum small it slow-starts back up
        # to the halved level exactly as New-Reno/SACK would.
        self.actnum = 0
        self.ndup = 0
        self.phase = RrPhase.NORMAL
        self._note_cwnd()
        self._emit_rr_state()
        self._exit_recovery_common()
        # The exiting ACK observes packet conservation: with cwnd equal
        # to the true in-flight count this releases at most one packet.
        self.send_available()

    # ------------------------------------------------------------------
    # timeout
    # ------------------------------------------------------------------
    def _on_timeout_reset(self) -> None:
        # Retransmission losses are handled by timeouts "as is usually
        # done" (Section 1): collapse to slow start, abandon RR state.
        super()._on_timeout_reset()
        self.phase = RrPhase.NORMAL
        self.actnum = 0
        self.ndup = 0
