"""Mean-field model of many TCP flows through one RED bottleneck.

McDonald & Reynier ("Mean field convergence of a model of multiple TCP
connections through a buffer implementing RED", see PAPERS.md) prove
that as the flow count grows, the coupled system (many AIMD windows,
one shared RED queue) converges to a deterministic fixed point: the
queue average settles where the aggregate Mathis-style demand of the
flows exactly fills the link.  That fixed point is an *analytic*
oracle for big scenes — a scale where no golden digests exist — and is
what ``python -m repro.experiments manyflow`` checks the simulator
against (see docs/SCENARIOS.md for the tolerance discussion).

The balance equation solved by :func:`meanfield_fixed_point`:

    N * W(p_eff(q)) / RTT(q) = C        [packets / second]

with

* ``W(p) = min(c / sqrt(p), Wmax)`` — the Mathis window under loss
  rate ``p``, capped by the receiver window;
* ``p_eff(q)`` — the per-packet drop probability of a RED gateway
  whose average queue sits at ``q``.  RED's count mechanism spaces
  early drops uniformly (the number of accepted packets between drops
  is ~Uniform{1..1/p_b}), so the effective drop rate is about twice
  the raw curve: ``p_eff = 2 p_b / (1 + p_b)``;
* ``RTT(q) = base_rtt + q * pkt_time`` — propagation plus the queueing
  delay behind ``q`` packets;
* ``C`` — bottleneck capacity in packets per second.

The left side is strictly decreasing in ``q`` (windows shrink, RTTs
grow), so the root is found by bisection.  Three regimes come out:

* ``window-limited`` — even at zero loss the flows cannot fill the
  link (receiver-window bound); queue sits below ``min_th``;
* ``early-drop`` — the fixed point lands on RED's linear ramp
  (the regime the mean-field theorem describes);
* ``early-drop-corner`` — the fixed point lands in the bottom
  :data:`CORNER_RAMP_FRACTION` of the ramp.  A steep effective slope
  there makes the closed loop oscillatory (the control-theoretic RED
  stability results): the averaged queue repeatedly dips below
  ``min_th`` and drops arrive in bursts during the excursions, so the
  *time-average* queue sits well below the quasi-static fixed point
  while the loss rate still matches (demand, not RED detail, sets it).
  The fixed point is then an upper envelope, and the oracle gates the
  queue one-sidedly;
* ``forced`` — demand exceeds capacity even at ``max_p``; the average
  rides the forced-drop cliff at ``max_th`` (or ``2*max_th`` when
  gentle) and loss is set by capacity sharing alone.
"""

from __future__ import annotations

import math
from typing import Optional

from repro._record import Record, field
from repro.errors import ConfigurationError
from repro.models.mathis import MATHIS_C_ACK_EVERY_PACKET
from repro.net.red import RedParams, red_drop_curve


class MeanFieldParams(Record, frozen=True):
    """Inputs of the fixed point (one bottleneck, N homogeneous flows)."""

    n_flows: int
    bandwidth_bps: float
    base_rtt: float
    red: RedParams = field(default_factory=RedParams)
    mss_bytes: int = 1000
    #: Receiver-window cap on the per-flow window, packets.
    max_window: float = 64.0
    #: Mathis constant; sqrt(3/2) for the ACK-every-packet receivers
    #: the paper (and this repo's default TcpConfig) uses.
    mathis_c: float = MATHIS_C_ACK_EVERY_PACKET
    #: Model RED's uniformized drop spacing (the count mechanism) as a
    #: doubled effective drop rate.  Disable to compare against the raw
    #: p_b curve.
    uniformized_drops: bool = True

    def validate(self) -> None:
        if self.n_flows < 1:
            raise ConfigurationError("mean field needs at least one flow")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.base_rtt <= 0:
            raise ConfigurationError("base_rtt must be positive")
        if self.mss_bytes < 1:
            raise ConfigurationError("mss_bytes must be >= 1")
        if self.max_window <= 0:
            raise ConfigurationError("max_window must be positive")
        self.red.validate()


class MeanFieldPrediction(Record, frozen=True):
    """The fixed point: where the many-flow system settles."""

    queue_pkts: float        # average queue occupancy at the bottleneck
    loss_prob: float         # effective per-packet drop probability
    rtt: float               # base_rtt + queueing delay
    per_flow_window: float   # packets in flight per flow
    per_flow_bps: float      # goodput share per flow
    utilization: float       # aggregate demand / capacity, <= 1
    # "window-limited" | "early-drop" | "early-drop-corner" | "forced"
    regime: str


def effective_drop_probability(
    avg: float, red: RedParams, uniformized: bool = True
) -> float:
    """Per-packet drop probability at average queue ``avg``, including
    the count-mechanism correction (see module docstring)."""
    pb = red_drop_curve(avg, red)
    if not uniformized or pb >= 1.0:
        return pb
    return min(1.0, 2.0 * pb / (1.0 + pb))


#: Fixed points landing below this fraction of the RED ramp are flagged
#: ``early-drop-corner``: so close to ``min_th`` that the effective
#: ramp slope (``max_p`` spread over the shallow usable span) is steep
#: and the loop oscillates rather than settling.  Calibrated against
#: swept dumbbells at 50-100 flows: operating points >= ~0.16 of the
#: ramp track the fixed point within the two-sided band, points at
#: ~0.10 and below undershoot it by 40-50%.
CORNER_RAMP_FRACTION = 0.15


def meanfield_fixed_point(
    params: MeanFieldParams, iterations: int = 200
) -> MeanFieldPrediction:
    """Solve the balance equation by bisection (see module docstring)."""
    params.validate()
    red = params.red
    pkt_time = params.mss_bytes * 8.0 / params.bandwidth_bps
    capacity_pps = 1.0 / pkt_time
    n = params.n_flows
    c = params.mathis_c
    w_max = params.max_window

    def window(p: float) -> float:
        if p <= 0.0:
            return w_max
        return min(w_max, c / math.sqrt(p))

    def demand_pps(q: float) -> float:
        p = effective_drop_probability(q, red, params.uniformized_drops)
        return n * window(p) / (params.base_rtt + q * pkt_time)

    def prediction(q: float, regime: str) -> MeanFieldPrediction:
        p = effective_drop_probability(q, red, params.uniformized_drops)
        rtt = params.base_rtt + q * pkt_time
        share_pps = min(demand_pps(q), capacity_pps) / n
        return MeanFieldPrediction(
            queue_pkts=q,
            loss_prob=p,
            rtt=rtt,
            per_flow_window=share_pps * rtt,
            per_flow_bps=share_pps * params.mss_bytes * 8.0,
            utilization=min(1.0, demand_pps(q) / capacity_pps),
            regime=regime,
        )

    # Window-limited: flows cannot fill the link even loss-free.  The
    # standing queue (if any) absorbs the excess of N*Wmax over the
    # bandwidth-delay product and must stay below min_th for the
    # loss-free assumption to hold.
    q_standing = (n * w_max / capacity_pps - params.base_rtt) / pkt_time
    if q_standing < red.min_th:
        return prediction(max(0.0, q_standing), "window-limited")

    # Early-drop: bisect on RED's ramp (plus the gentle ramp, which
    # keeps the curve continuous up to 2*max_th).
    q_hi = 2.0 * red.max_th if red.gentle else red.max_th
    if demand_pps(q_hi - 1e-9) > capacity_pps:
        # Forced regime: the average rides the cliff; capacity sharing
        # alone sets the loss rate (invert Mathis at the fair share).
        rtt = params.base_rtt + q_hi * pkt_time
        w_star = capacity_pps * rtt / n
        p_star = 1.0 if w_star <= c else (c / w_star) ** 2
        return MeanFieldPrediction(
            queue_pkts=q_hi,
            loss_prob=min(1.0, p_star),
            rtt=rtt,
            per_flow_window=w_star,
            per_flow_bps=capacity_pps / n * params.mss_bytes * 8.0,
            utilization=1.0,
            regime="forced",
        )

    lo, hi = red.min_th, q_hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if demand_pps(mid) > capacity_pps:
            lo = mid
        else:
            hi = mid
    q_star = 0.5 * (lo + hi)
    fraction = (q_star - red.min_th) / (red.max_th - red.min_th)
    regime = "early-drop-corner" if fraction < CORNER_RAMP_FRACTION else "early-drop"
    return prediction(q_star, regime)


# ----------------------------------------------------------------------
# oracle verdict
# ----------------------------------------------------------------------

#: Default tolerances for the manyflow oracle (docs/SCENARIOS.md
#: explains the calibration: the mean-field limit is exact only as
#: N -> infinity and the Mathis model ignores timeouts/slow start, so
#: finite scenes sit within a band, not on the curve).
QUEUE_REL_TOL = 0.35
QUEUE_ABS_TOL = 4.0       # packets
LOSS_REL_TOL = 0.50
LOSS_ABS_TOL = 0.01       # absolute drop-probability floor


class OracleVerdict(Record, frozen=True):
    """Pass/fail comparison of a measured scene against the fixed point."""

    passed: bool
    queue_ok: bool
    loss_ok: bool
    measured_queue: float
    predicted_queue: float
    measured_loss: float
    predicted_loss: float
    regime: str

    def format(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"oracle {mark} [{self.regime}]: "
            f"queue {self.measured_queue:.1f} vs {self.predicted_queue:.1f} pkts "
            f"({'ok' if self.queue_ok else 'OUT'}), "
            f"loss {self.measured_loss:.4f} vs {self.predicted_loss:.4f} "
            f"({'ok' if self.loss_ok else 'OUT'})"
        )


def _within(measured: float, predicted: float, rel: float, abs_floor: float) -> bool:
    return abs(measured - predicted) <= max(abs_floor, rel * predicted)


def oracle_verdict(
    prediction: MeanFieldPrediction,
    measured_queue: float,
    measured_loss: float,
    queue_rel_tol: float = QUEUE_REL_TOL,
    queue_abs_tol: float = QUEUE_ABS_TOL,
    loss_rel_tol: float = LOSS_REL_TOL,
    loss_abs_tol: float = LOSS_ABS_TOL,
) -> OracleVerdict:
    """Compare measured queue occupancy / loss rate against the fixed
    point under the documented tolerances (pass = both within band).

    In the ``early-drop-corner`` regime the fixed point is an upper
    envelope (the oscillating loop spends time below ``min_th``), so
    the queue band is one-sided: undershoot is expected, overshoot past
    the band still fails.
    """
    queue_band = max(queue_abs_tol, queue_rel_tol * prediction.queue_pkts)
    if prediction.regime == "early-drop-corner":
        queue_ok = measured_queue <= prediction.queue_pkts + queue_band
    else:
        queue_ok = _within(
            measured_queue, prediction.queue_pkts, queue_rel_tol, queue_abs_tol
        )
    loss_ok = _within(measured_loss, prediction.loss_prob, loss_rel_tol, loss_abs_tol)
    return OracleVerdict(
        passed=queue_ok and loss_ok,
        queue_ok=queue_ok,
        loss_ok=loss_ok,
        measured_queue=measured_queue,
        predicted_queue=prediction.queue_pkts,
        measured_loss=measured_loss,
        predicted_loss=prediction.loss_prob,
        regime=prediction.regime,
    )
