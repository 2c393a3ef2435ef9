"""Unit tests for fairness indices."""

import pytest

from repro.metrics.fairness import jain_index


class TestJainIndex:
    def test_equal_allocations_are_perfectly_fair(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_flow_is_fair(self):
        assert jain_index([42.0]) == pytest.approx(1.0)

    def test_total_starvation_bound(self):
        # one flow hogs everything among n flows -> index = 1/n
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_moderate_skew(self):
        index = jain_index([1.0, 2.0, 3.0])
        assert 0.8 < index < 1.0

    def test_empty_is_vacuously_fair(self):
        assert jain_index([]) == 1.0

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_scale_invariance(self):
        xs = [1.0, 3.0, 5.0]
        assert jain_index(xs) == pytest.approx(jain_index([10 * x for x in xs]))
