"""Unit tests for the Mathis square-root model."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.models.mathis import MATHIS_C_ACK_EVERY_PACKET, PAPER_C, mathis_window


class TestWindow:
    def test_inverse_square_root_scaling(self):
        assert mathis_window(0.01) == pytest.approx(mathis_window(0.04) * 2)

    def test_standard_constant(self):
        assert MATHIS_C_ACK_EVERY_PACKET == pytest.approx(math.sqrt(1.5))

    def test_known_value(self):
        # W = sqrt(3/2)/sqrt(0.01) = 12.247
        assert mathis_window(0.01) == pytest.approx(12.247, rel=1e-3)

    def test_paper_constant(self):
        assert mathis_window(0.01, c=PAPER_C) == pytest.approx(40.0)

    def test_monotone_decreasing_in_p(self):
        values = [mathis_window(p) for p in (0.001, 0.01, 0.1, 1.0)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.1])
    def test_invalid_loss_rate(self, p):
        with pytest.raises(ConfigurationError):
            mathis_window(p)
