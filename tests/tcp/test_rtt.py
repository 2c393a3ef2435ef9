"""Unit tests for the RTO estimator."""

import pytest

from repro.config import TcpConfig
from repro.errors import ConfigurationError
from repro.tcp.rtt import RtoEstimator


def make(min_rto=0.2, max_rto=64.0, granularity=0.0, initial_rto=3.0):
    config = TcpConfig(
        min_rto=min_rto,
        max_rto=max_rto,
        timer_granularity=granularity,
        initial_rto=initial_rto,
    )
    return RtoEstimator(config)


class TestSampling:
    def test_initial_rto(self):
        estimator = make(initial_rto=3.0)
        assert estimator.current() == pytest.approx(3.0)

    def test_first_sample_rfc6298(self):
        estimator = make()
        estimator.on_sample(1.0)
        assert estimator.srtt == pytest.approx(1.0)
        assert estimator.rttvar == pytest.approx(0.5)
        # RTO = SRTT + 4*RTTVAR = 3.0
        assert estimator.current() == pytest.approx(3.0)

    def test_smoothing(self):
        estimator = make()
        estimator.on_sample(1.0)
        estimator.on_sample(1.0)
        # Stable samples: rttvar decays, srtt unchanged.
        assert estimator.srtt == pytest.approx(1.0)
        assert estimator.rttvar == pytest.approx(0.375)

    def test_variance_reacts_to_jitter(self):
        estimator = make()
        estimator.on_sample(1.0)
        estimator.on_sample(2.0)
        assert estimator.srtt == pytest.approx(1.125)
        assert estimator.rttvar > 0.5

    def test_converges_to_stable_rtt(self):
        estimator = make()
        for _ in range(200):
            estimator.on_sample(0.5)
        assert estimator.srtt == pytest.approx(0.5, rel=1e-3)
        assert estimator.current() == pytest.approx(0.5, rel=0.1)

    def test_min_rto_clamp(self):
        estimator = make(min_rto=1.0)
        for _ in range(200):
            estimator.on_sample(0.05)
        assert estimator.current() == pytest.approx(1.0)

    def test_max_rto_clamp(self):
        estimator = make(max_rto=10.0)
        estimator.on_sample(20.0)
        assert estimator.current() == pytest.approx(10.0)

    def test_granularity_term(self):
        estimator = make(granularity=0.5)
        for _ in range(300):
            estimator.on_sample(1.0)
        # RTO = srtt + max(G, 4*rttvar) -> 1.0 + 0.5 once rttvar decayed.
        assert estimator.current() == pytest.approx(1.5, rel=0.05)

    def test_negative_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            make().on_sample(-1.0)

    def test_sample_counter(self):
        estimator = make()
        estimator.on_sample(1.0)
        estimator.on_sample(1.0)
        assert estimator.samples == 2


class TestBackoff:
    def test_backoff_doubles(self):
        estimator = make()
        estimator.on_sample(1.0)
        base = estimator.current()
        estimator.backoff()
        assert estimator.current() == pytest.approx(2 * base)
        estimator.backoff()
        assert estimator.current() == pytest.approx(4 * base)

    def test_backoff_capped_at_max(self):
        estimator = make(max_rto=8.0)
        estimator.on_sample(1.0)
        for _ in range(10):
            estimator.backoff()
        assert estimator.current() == pytest.approx(8.0)

    def test_backoff_factor_saturates_near_max(self):
        """The multiplier stops doubling once base*factor reaches
        max_rto — it must not grow without bound while current() sits
        pinned at the cap."""
        estimator = make(max_rto=10.0)
        estimator.on_sample(1.0)  # SRTT 1, RTTVAR 0.5 -> RTO 3
        base = estimator.current()
        assert base == pytest.approx(3.0)
        estimator.backoff()  # 3 -> 6
        estimator.backoff()  # 6 -> 12, clamped to 10
        saturated = estimator._backoff
        assert saturated == 4
        for _ in range(50):
            estimator.backoff()
        assert estimator._backoff == saturated  # no runaway doubling
        assert estimator.current() == pytest.approx(10.0)

    def test_backoff_factor_stops_at_exact_boundary(self):
        """base*factor == max_rto exactly: a further backoff would be a
        no-op for current(), so the factor must not double either."""
        estimator = make(initial_rto=4.0, max_rto=8.0)
        estimator.backoff()  # 4 -> 8, exactly the cap
        assert estimator._backoff == 2
        estimator.backoff()
        assert estimator._backoff == 2
        assert estimator.current() == pytest.approx(8.0)

    def test_sample_after_saturation_deflates(self):
        estimator = make(max_rto=10.0)
        estimator.on_sample(1.0)
        for _ in range(10):
            estimator.backoff()
        estimator.on_sample(1.0)
        assert estimator._backoff == 1
        assert estimator.current() < 10.0

    def test_new_sample_resets_backoff(self):
        estimator = make()
        estimator.on_sample(1.0)
        estimator.backoff()
        estimator.on_sample(1.0)
        assert estimator._backoff == 1

    def test_reset(self):
        estimator = make(initial_rto=3.0)
        estimator.on_sample(0.4)
        estimator.backoff()
        estimator.reset()
        assert estimator.srtt is None
        assert estimator._backoff == 1
        assert estimator.current() == pytest.approx(3.0)
        assert estimator.samples == 0
