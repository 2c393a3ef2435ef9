"""Tests for the multi-seed replication helpers."""

import pytest

from repro.experiments.replication import replicate, summarize


class TestSummarize:
    def test_single_value(self):
        summary = summarize([5.0])
        assert summary.mean == 5.0
        assert summary.stdev == 0.0
        assert summary.ci_half_width == 0.0
        assert summary.n == 1

    def test_mean_and_bounds(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0

    def test_ci_formula(self):
        values = [10.0, 12.0, 14.0, 16.0]
        summary = summarize(values, confidence=0.95)
        import statistics, math

        # Student t with n - 1 = 3 degrees of freedom, not z = 1.96
        expected = 3.1824 * statistics.stdev(values) / math.sqrt(4)
        assert summary.ci_half_width == pytest.approx(expected, rel=1e-3)
        assert summary.ci_low == pytest.approx(summary.mean - expected, rel=1e-3)
        assert summary.ci_high == pytest.approx(summary.mean + expected, rel=1e-3)

    @pytest.mark.parametrize(
        "confidence, n, quantile",
        [(0.95, 5, 2.7764), (0.90, 10, 1.8331), (0.99, 30, 2.7564), (0.95, 121, 1.9799)],
    )
    def test_half_width_uses_student_t(self, confidence, n, quantile):
        import statistics, math

        values = [float(i * i % 7) for i in range(n)]
        summary = summarize(values, confidence=confidence)
        scale = statistics.stdev(values) / math.sqrt(n)
        assert summary.ci_half_width / scale == pytest.approx(quantile, abs=5e-4)

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 5.0, 9.0]
        assert (
            summarize(values, 0.99).ci_half_width
            > summarize(values, 0.90).ci_half_width
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_unknown_confidence_rejected(self):
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], confidence=0.5)

    def test_str_rendering(self):
        text = str(summarize([1.0, 2.0, 3.0]))
        assert "n=3" in text and "±" in text


class TestReplicate:
    def test_runs_every_seed(self):
        seen = []

        def run(seed):
            seen.append(seed)
            return {"metric": float(seed)}

        result = replicate(run, seeds=[1, 2, 3])
        assert seen == [1, 2, 3]
        assert result["metric"].mean == pytest.approx(2.0)

    def test_multiple_metrics(self):
        result = replicate(
            lambda seed: {"a": seed, "b": seed * 10}, seeds=[1, 2]
        )
        assert set(result) == {"a", "b"}
        assert result["b"].mean == pytest.approx(15.0)

    def test_mismatched_keys_rejected(self):
        def run(seed):
            return {"a": 1.0} if seed == 1 else {"b": 2.0}

        with pytest.raises(ValueError):
            replicate(run, seeds=[1, 2])

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: {"a": 1.0}, seeds=[])

    def test_with_real_scenario(self):
        """Replicate a tiny random-loss run: the summary must cover the
        per-seed spread."""
        from repro.experiments.common import FlowSpec, build_dumbbell_scenario
        from repro.net.loss import UniformLoss
        from repro.net.topology import DumbbellParams
        from repro.sim.rng import RngStream

        def run(seed):
            loss = UniformLoss(0.02, RngStream(seed, "loss"))
            scenario = build_dumbbell_scenario(
                flows=[FlowSpec(variant="rr", amount_packets=80)],
                params=DumbbellParams(n_pairs=1, buffer_packets=50),
                forward_loss=loss,
            )
            scenario.sim.run(until=300.0)
            sender, _ = scenario.flow(1)
            assert sender.completed
            return {"complete_time": sender.complete_time}

        result = replicate(run, seeds=[1, 2, 3, 4])
        summary = result["complete_time"]
        assert summary.n == 4
        assert summary.minimum <= summary.mean <= summary.maximum
