"""Analytic throughput model of Relentless TCP (Diana & Lochin).

Diana & Lochin (*An Analytical Model of TCP Relentless Congestion
Control*, PAPERS.md) model Mathis-style Relentless — decrease ``cwnd``
only by the number of lost segments — under random per-packet loss.
The fluid balance is immediate: congestion avoidance adds one segment
per RTT while loss removes ``p * W`` segments per RTT (each of the
``W`` packets of a round dies independently with probability ``p`` and
costs exactly one segment of window), so the window settles where the
two cancel:

    1 = p * W*        =>        W* = 1 / p      (capped by Wmax)

and throughput is ``W* * MSS / RTT``.  Contrast Reno's
``W* = sqrt(3/2) / sqrt(p)`` (:mod:`repro.models.mathis`): Relentless
scales as ``1/p``, not ``1/sqrt(p)`` — at ``p = 1%`` the model gives a
100-packet window where Reno sustains ~12.  This is the reference
model the tests check :class:`repro.tcp.relentless.RelentlessSender`
against: a solo Relentless flow under a periodic loss of rate ``p``
must settle near ``relentless_window(p)``.

Validity limits: the fluid model ignores timeouts, slow start and the
dupack-threshold detection floor, so it is an *upper* anchor at high
loss (where three dup ACKs get scarce) and exact only in the
loss-limited regime ``1/p < Wmax``.
"""

from __future__ import annotations

from repro._record import Record
from repro.errors import ConfigurationError


class RelentlessModelParams(Record, frozen=True):
    """Inputs: one Relentless flow over a fixed-rate lossy path."""

    loss_rate: float          # per-packet drop probability p, in (0, 1)
    base_rtt: float           # propagation RTT, seconds
    bandwidth_bps: float      # bottleneck rate (caps the prediction)
    mss_bytes: int = 1000
    max_window: float = 64.0  # receiver-window cap, packets

    def validate(self) -> None:
        if not 0.0 < self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in (0, 1), got {self.loss_rate}"
            )
        if self.base_rtt <= 0:
            raise ConfigurationError("base_rtt must be positive")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.mss_bytes < 1:
            raise ConfigurationError("mss_bytes must be >= 1")
        if self.max_window <= 0:
            raise ConfigurationError("max_window must be positive")


class RelentlessPrediction(Record, frozen=True):
    """The model's equilibrium operating point."""

    window_pkts: float       # W* = min(1/p, Wmax)
    throughput_bps: float    # W* * MSS * 8 / RTT, capped at capacity
    # "loss-limited" (W* = 1/p), "window-limited" (receiver window
    # binds) or "capacity-limited" (the link rate binds first).
    regime: str


def relentless_window(loss_rate: float, max_window: float = float("inf")) -> float:
    """Diana & Lochin equilibrium window: ``min(1/p, Wmax)``."""
    if not 0.0 < loss_rate < 1.0:
        raise ConfigurationError(f"loss_rate must be in (0, 1), got {loss_rate}")
    return min(1.0 / loss_rate, max_window)


def relentless_prediction(params: RelentlessModelParams) -> RelentlessPrediction:
    """Evaluate the model at ``params`` (see module docstring)."""
    params.validate()
    w_star = relentless_window(params.loss_rate, params.max_window)
    regime = "window-limited" if w_star >= params.max_window else "loss-limited"
    # RTT: propagation only — a solo flow at equilibrium (W* below the
    # BDP) never fills its DropTail buffer, so queueing delay is
    # second-order.
    demand_bps = w_star * params.mss_bytes * 8.0 / params.base_rtt
    if demand_bps >= params.bandwidth_bps:
        # The delivered rate rides the link; the standing queue then
        # stretches the RTT, but throughput is simply capacity.
        return RelentlessPrediction(
            window_pkts=w_star,
            throughput_bps=params.bandwidth_bps,
            regime="capacity-limited",
        )
    return RelentlessPrediction(
        window_pkts=w_star, throughput_bps=demand_bps, regime=regime
    )
