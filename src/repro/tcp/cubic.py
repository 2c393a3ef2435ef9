"""TCP CUBIC (RFC 8312): the default congestion control of Linux and
a "modern rival" the paper never met.

Growth is a cubic function of *time since the last congestion event*
rather than of ACK arrivals, so the window ramps aggressively far from
the last loss point and plateaus near it:

    W_cubic(t) = C * (t - K)^3 + W_max,   K = cbrt(W_max * (1-beta) / C)

where ``W_max`` is the window just before the last reduction.  Three
RFC 8312 behaviours are modelled:

* **beta = 0.7 multiplicative decrease** on every congestion signal
  (fast retransmit, timeout-derived ssthresh, ECN echo) instead of
  Reno's 0.5 — CUBIC gives back less when it backs off;
* **fast convergence**: when a new loss arrives *below* the previous
  ``W_max`` the flow is losing capacity to a newcomer, so ``W_max`` is
  shrunk an extra ``(2-beta)/2`` to release bandwidth faster;
* **TCP-friendly region**: per ACK, the window never grows slower than
  the AIMD(3(1-beta)/(1+beta), beta) estimate ``W_est`` — in
  short-RTT/high-loss regimes CUBIC degrades to Reno-equivalence
  rather than below it.

Loss *detection and repair* reuse the New-Reno partial-ACK machinery
(RFC 6582 is what Linux CUBIC runs over, minus SACK scoreboards): only
the window-adjustment rules differ.  The cubic clock reads
``sim.now`` and the smoothed RTT estimate, both deterministic, so runs
stay bit-identical across backends; epoch state lives in plain float
attributes and pickles with the sender.

Observable signature (for ``repro.ident`` feature extraction): concave
ramp toward ``W_max`` then convex probing beyond it in the ``tcp.cwnd``
series, 0.7-factor drops at ``tcp.recovery_enter``, and inter-loss
spacing that *shortens* as the link empties (time-based probing).
"""

from __future__ import annotations

from repro.tcp.newreno import NewRenoSender

#: RFC 8312 §5: the cubic coefficient (units: packets/second^3).
CUBIC_C = 0.4
#: RFC 8312 §4.5: multiplicative decrease factor.
CUBIC_BETA = 0.7


class CubicSender(NewRenoSender):
    """CUBIC window growth over New-Reno recovery machinery."""

    variant = "cubic"

    #: RFC 2582 partial window deflation (the milder, modern reaction).
    partial_window_deflation = True
    #: Class-level so tests can subclass with fast convergence off.
    fast_convergence = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Window just before the last congestion event; the plateau the
        # cubic curve aims back at.  0 = no congestion seen yet.
        self._w_max: float = 0.0
        # Congestion-avoidance epoch: time the current cubic curve was
        # anchored, the window it started from, and K (seconds from
        # anchor to plateau).  ``None`` start = anchor on the next
        # congestion-avoidance ACK.
        self._epoch_start = None  # type: float | None
        self._w_epoch: float = 0.0
        self._k: float = 0.0

    # ------------------------------------------------------------------
    # multiplicative decrease (shared by fast retransmit / RTO / ECN)
    # ------------------------------------------------------------------
    def _halved_ssthresh(self) -> float:
        """CUBIC's decrease: remember ``W_max`` (with fast convergence),
        reset the cubic epoch, and cut by ``beta`` = 0.7.

        Overriding this hook routes *every* congestion signal — the
        New-Reno fast retransmit, the base-class timeout ssthresh, and
        the ECN echo reaction — through the CUBIC reduction rule.
        """
        w = max(self.cwnd, 1.0)
        if self.fast_convergence and w < self._w_max:
            # Losing ground: release capacity faster (RFC 8312 §4.6).
            self._w_max = w * (2.0 - CUBIC_BETA) / 2.0
        else:
            self._w_max = w
        self._epoch_start = None
        return max(w * CUBIC_BETA, 2.0)

    # ------------------------------------------------------------------
    # cubic growth
    # ------------------------------------------------------------------
    def _srtt_estimate(self) -> float:
        """Smoothed RTT, or the initial RTO as a pre-sample stand-in."""
        srtt = self.rto.srtt
        if srtt is None or srtt <= 0.0:
            return self.config.initial_rto
        return srtt

    def _open_cwnd(self) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0  # slow start, unchanged from Reno
            self._note_cwnd()
            return
        now = self.sim.now
        rtt = self._srtt_estimate()
        if self._epoch_start is None:
            # Anchor a new cubic curve at the current window.
            self._epoch_start = now
            self._w_epoch = self.cwnd
            if self._w_max > self.cwnd:
                self._k = ((self._w_max - self.cwnd) / CUBIC_C) ** (1.0 / 3.0)
            else:
                # Already past the old plateau (or none): pure convex
                # probing from here.
                self._w_max = self.cwnd
                self._k = 0.0
        t = now - self._epoch_start
        target = CUBIC_C * (t - self._k) ** 3 + self._w_max
        # RFC 8312 §4.2: AIMD-equivalent estimate with the same beta —
        # grows 3(1-beta)/(1+beta) ~ 0.53 packets per RTT from the
        # epoch anchor.
        w_est = self._w_epoch + (
            3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
        ) * (t / rtt)
        if target < w_est:
            # TCP-friendly region: track the AIMD estimate.
            if w_est > self.cwnd:
                self.cwnd = w_est
        elif target > self.cwnd:
            # Concave/convex region: close a 1/cwnd fraction of the gap
            # per ACK — reaches ``target`` within one RTT of ACKs.
            self.cwnd += (target - self.cwnd) / self.cwnd
        else:
            # At/above target (e.g. just after the friendly region
            # handed over): minimal probing so the curve can catch up.
            self.cwnd += 1.0 / (100.0 * self.cwnd)
        self._note_cwnd()

    # ------------------------------------------------------------------
    # recovery hooks (the skeleton is the base class's; the reduction
    # itself is routed through _halved_ssthresh above)
    # ------------------------------------------------------------------
    def _on_timeout_reset(self) -> None:
        super()._on_timeout_reset()
        # The base class took ssthresh through _halved_ssthresh (which
        # reset the epoch); slow start will now climb back to it.
        self._epoch_start = None
