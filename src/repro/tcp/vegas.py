"""TCP Vegas (Brakmo, O'Malley & Peterson, SIGCOMM'94) — the §1 foil.

The paper's introduction cites Hengartner et al. [8]: "the performance
gain of TCP Vegas over TCP Reno is due mainly to TCP Vegas' new
techniques for slow-start and congestion recovery ... not the
innovative congestion-avoidance mechanism".  Having Vegas in the same
harness lets a user replay that decomposition (see the ablation knobs
below).

Implemented mechanisms:

* **baseRTT tracking** — the minimum RTT ever observed is the
  propagation estimate;
* **congestion-avoidance adjustment** — once per RTT compare the
  expected throughput ``cwnd/baseRTT`` with the actual ``cwnd/RTT``;
  the backlog estimate ``diff = (expected - actual) * baseRTT`` is held
  between ``alpha`` and ``beta`` packets by ±1 adjustments;
* **modified slow start** — the window doubles only every *other* RTT,
  and slow start ends early once ``diff`` exceeds ``gamma``;
* **expedited retransmission** — on the first and second duplicate
  ACKs, retransmit immediately if the oldest outstanding packet has
  been out longer than the fine-grained timeout (srtt + 4·rttvar),
  instead of waiting for the third duplicate;
* recovery itself is Reno-style fast recovery (entered either via the
  expedited check or the usual third duplicate ACK) — per [8], that
  recovery is where Vegas' gain lives.

The per-mechanism switches (``enable_vegas_ca``, ``enable_vegas_ss``,
``enable_expedited_rtx``) default to on; turning them off one at a time
reproduces the [8] decomposition.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.packet import Packet
from repro.tcp.reno import RenoSender

ALPHA = 1.0   # packets of backlog below which cwnd grows
BETA = 3.0    # packets of backlog above which cwnd shrinks
GAMMA = 1.0   # slow-start exit threshold (packets of backlog)


class VegasSender(RenoSender):
    """TCP Vegas sender (delay-based CA + expedited retransmit)."""

    variant = "vegas"

    enable_vegas_ca = True
    enable_vegas_ss = True
    enable_expedited_rtx = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.base_rtt: Optional[float] = None
        self.last_rtt: Optional[float] = None
        self._send_times: Dict[int, float] = {}
        # Per-RTT adjustment bookkeeping: adjust when snd_una passes
        # the marker recorded at the previous adjustment.
        self._adjust_marker = 0
        self._ss_grow_this_round = True
        self.ca_adjustments = 0
        self.expedited_retransmits = 0

    # ------------------------------------------------------------------
    # RTT bookkeeping (per-packet, Vegas' fine-grained clock)
    # ------------------------------------------------------------------
    def _transmit(self, seqno: int, retransmit: bool) -> None:
        if not retransmit:
            self._send_times[seqno] = self.sim.now
        super()._transmit(seqno, retransmit)

    def _ack_common(self, ackno: int) -> None:
        super()._ack_common(ackno)
        self._record_rtt(ackno)

    def _record_rtt(self, ackno: int) -> None:
        sent_at = self._send_times.get(ackno - 1)
        if sent_at is not None:
            rtt = self.sim.now - sent_at
            self.last_rtt = rtt
            if self.base_rtt is None or rtt < self.base_rtt:
                self.base_rtt = rtt
        for seqno in [s for s in self._send_times if s < ackno]:
            del self._send_times[seqno]

    def _fine_timeout(self) -> float:
        """Vegas' fine-grained RTO estimate."""
        if self.rto.srtt is None:
            return self.rto.current()
        return self.rto.srtt + 4.0 * (self.rto.rttvar or 0.0)

    # ------------------------------------------------------------------
    # congestion avoidance / slow start
    # ------------------------------------------------------------------
    def backlog_estimate(self) -> Optional[float]:
        """diff = (expected - actual) * baseRTT, in packets."""
        if self.base_rtt is None or self.last_rtt is None or self.last_rtt <= 0:
            return None
        expected = self.cwnd / self.base_rtt
        actual = self.cwnd / self.last_rtt
        return (expected - actual) * self.base_rtt

    def _open_cwnd(self) -> None:
        if not (self.enable_vegas_ca or self.enable_vegas_ss):
            super()._open_cwnd()
            return
        in_slow_start = self.cwnd < self.ssthresh
        if in_slow_start and self.enable_vegas_ss:
            self._vegas_slow_start()
        elif in_slow_start:
            self.cwnd += 1.0
            self._note_cwnd()
        elif self.enable_vegas_ca:
            self._vegas_adjust()
        else:
            super()._open_cwnd()

    def _vegas_slow_start(self) -> None:
        diff = self.backlog_estimate()
        if diff is not None and diff > GAMMA:
            # Leave slow start early: the pipe is filling.
            self.ssthresh = max(2.0, self.cwnd)
            self._vegas_adjust()
            return
        if self._ss_grow_this_round:
            self.cwnd += 1.0
            self._note_cwnd()
        self._maybe_rotate_round()

    def _vegas_adjust(self) -> None:
        if self.snd_una < self._adjust_marker:
            return  # not a full RTT yet
        diff = self.backlog_estimate()
        self._adjust_marker = self.snd_nxt
        if diff is None:
            return
        if diff < ALPHA:
            self.cwnd += 1.0
        elif diff > BETA:
            self.cwnd = max(self.cwnd - 1.0, 2.0)
        self.ca_adjustments += 1
        self._note_cwnd()

    def _maybe_rotate_round(self) -> None:
        if self.snd_una >= self._adjust_marker:
            self._adjust_marker = self.snd_nxt
            self._ss_grow_this_round = not self._ss_grow_this_round

    # ------------------------------------------------------------------
    # recovery (RenoSender's fast recovery + expedited entry)
    # ------------------------------------------------------------------
    def _process_dupack(self, packet: Packet) -> None:
        super()._process_dupack(packet)
        if self.enable_expedited_rtx and not self.in_recovery and self.dupacks in (1, 2):
            sent_at = self._send_times.get(self.snd_una)
            if sent_at is not None and self.sim.now - sent_at > self._fine_timeout():
                self.expedited_retransmits += 1
                self._fast_retransmit(packet)

    def _on_timeout_reset(self) -> None:
        self._send_times.clear()
        self._adjust_marker = self.snd_una
