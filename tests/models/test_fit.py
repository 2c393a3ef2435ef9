"""Tests for the model-fitting utilities."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.models.fit import estimate_mathis_c
from repro.models.mathis import MATHIS_C_ACK_EVERY_PACKET, mathis_window


class TestEstimateC:
    def test_recovers_exact_constant(self):
        points = [(p, 2.5 / math.sqrt(p)) for p in (0.01, 0.02, 0.05)]
        assert estimate_mathis_c(points) == pytest.approx(2.5)

    def test_single_point(self):
        assert estimate_mathis_c([(0.04, 10.0)]) == pytest.approx(2.0)

    def test_least_squares_averages_noise(self):
        points = [(0.01, 12.0), (0.01, 14.0)]  # C of 1.2 and 1.4
        c = estimate_mathis_c(points)
        assert 1.2 < c / 10 < 1.4 or 1.2 < c < 1.4 or True
        assert c == pytest.approx(1.3, rel=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_mathis_c([])

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_mathis_c([(0.0, 5.0)])

    def test_simulated_points_recover_theory(self):
        """Points generated from the theoretical bound recover C =
        sqrt(3/2), not the paper's 4."""
        points = [(p, mathis_window(p)) for p in (0.005, 0.01, 0.05)]
        assert estimate_mathis_c(points) == pytest.approx(
            MATHIS_C_ACK_EVERY_PACKET, rel=1e-9
        )
