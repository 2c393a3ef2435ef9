"""Tests for the Diana & Lochin Relentless model: the 1/p law, regime
classification — and a cross-validation run driving the simulator's
RelentlessSender with the model's own loss process."""

import pytest

from repro.config import TcpConfig
from repro.errors import ConfigurationError
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.models.relentless import (
    RelentlessModelParams,
    relentless_prediction,
    relentless_window,
)
from repro.net.loss import PeriodicLoss
from repro.net.topology import DumbbellParams


class TestWindowLaw:
    def test_one_over_p(self):
        assert relentless_window(0.02) == pytest.approx(50.0)
        assert relentless_window(0.001) == pytest.approx(1000.0)

    def test_receiver_window_cap(self):
        assert relentless_window(0.001, max_window=64.0) == 64.0

    def test_invalid_loss_rate(self):
        with pytest.raises(ConfigurationError):
            relentless_window(0.0)
        with pytest.raises(ConfigurationError):
            relentless_window(1.0)

    def test_scales_as_inverse_p_not_sqrt(self):
        # Quadrupling the loss rate quarters the window (Reno would
        # only halve it).
        assert relentless_window(0.04) == pytest.approx(relentless_window(0.01) / 4)


class TestPrediction:
    def make(self, **kw):
        defaults = dict(
            loss_rate=0.02, base_rtt=0.2, bandwidth_bps=10e6, max_window=400.0
        )
        defaults.update(kw)
        return RelentlessModelParams(**defaults)

    def test_loss_limited_regime(self):
        pred = relentless_prediction(self.make())
        assert pred.regime == "loss-limited"
        assert pred.window_pkts == pytest.approx(50.0)
        assert pred.throughput_bps == pytest.approx(50.0 * 8000.0 / 0.2)

    def test_window_limited_regime(self):
        pred = relentless_prediction(self.make(loss_rate=0.001, max_window=64.0))
        assert pred.regime == "window-limited"
        assert pred.window_pkts == 64.0

    def test_capacity_limited_regime(self):
        pred = relentless_prediction(self.make(bandwidth_bps=500e3))
        assert pred.regime == "capacity-limited"
        assert pred.throughput_bps == 500e3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            relentless_prediction(self.make(base_rtt=0.0))


class TestSimulatorCrossValidation:
    def test_solo_relentless_lands_on_model(self):
        """One Relentless flow under one-loss-per-60-packets: the
        equilibrium window must sit near the model's W* = 1/p = 60."""
        period = 60
        params = DumbbellParams(
            n_pairs=1,
            bottleneck_bandwidth_bps=10e6,  # RTT stays propagation-bound
            bottleneck_delay=0.097,
            side_bandwidth_bps=100e6,
            buffer_packets=400,
        )
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant="relentless", amount_packets=None)],
            params=params,
            default_config=TcpConfig(receiver_window=400, initial_ssthresh=30.0),
            forward_loss=PeriodicLoss(period, offset=period // 2),
        )
        duration, warmup = 200.0, 60.0
        scenario.sim.run(until=duration)
        _, stats = scenario.flow(1)
        acked = stats.acked_at(duration) - stats.acked_at(warmup)
        bw_bps = acked * 8000.0 / (duration - warmup)
        measured_window = bw_bps * 0.2 / 8000.0
        assert measured_window == pytest.approx(
            relentless_window(1 / period), rel=0.25
        )

    def test_relentless_beats_newreno_at_same_loss(self):
        """The defining behavioral contrast: under identical loss,
        Relentless sustains a much larger window than New-Reno."""

        def window_for(variant):
            params = DumbbellParams(
                n_pairs=1,
                bottleneck_bandwidth_bps=10e6,
                bottleneck_delay=0.097,
                side_bandwidth_bps=100e6,
                buffer_packets=400,
            )
            scenario = build_dumbbell_scenario(
                flows=[FlowSpec(variant=variant, amount_packets=None)],
                params=params,
                default_config=TcpConfig(receiver_window=400, initial_ssthresh=30.0),
                forward_loss=PeriodicLoss(400, offset=200),
            )
            scenario.sim.run(until=200.0)
            _, stats = scenario.flow(1)
            acked = stats.acked_at(200.0) - stats.acked_at(60.0)
            return acked * 8000.0 / 140.0 * 0.2 / 8000.0

        assert window_for("relentless") > 1.5 * window_for("newreno")
