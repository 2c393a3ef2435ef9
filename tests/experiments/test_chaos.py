"""Tests for the chaos harness experiment."""

import pytest

from repro.errors import InvariantViolation
from repro.experiments.chaos import (
    ChaosConfig,
    format_report,
    run_chaos,
)
from repro.experiments.cli import main
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.faults.campaign import CampaignSpec
from repro.net.topology import DumbbellParams
from repro.sim.invariants import InvariantSuite
from repro.tcp.newreno import NewRenoSender


def small_config(**overrides):
    defaults = dict(
        variants=("newreno", "rr"),
        seeds=2,
        transfer_packets=400,
        campaign=CampaignSpec(
            horizon=10.0, warmup=1.0, max_actions=2, episode_max=5.0
        ),
    )
    defaults.update(overrides)
    return ChaosConfig(**defaults)


class TestCampaignRuns:
    def test_small_campaign_survives_cleanly(self):
        result = run_chaos(small_config())
        assert len(result.runs) == 4  # 2 variants x 2 seeds
        assert result.clean
        for run in result.runs:
            # The acceptance contract: exactly-once in-order delivery,
            # no invariant violations, no watchdog aborts.
            assert run.completed
            assert run.delivered == 400
            assert run.violation is None
            assert run.crash is None
            assert run.records_checked > 0
        for variant in ("newreno", "rr"):
            summary = result.summary(variant)
            assert summary.survived == summary.runs
            assert summary.baseline_time > 0.0
            assert 0.0 < summary.goodput_vs_baseline <= 1.01

    def test_runs_are_reproducible(self):
        config = small_config(variants=("rr",), seeds=1)
        a = run_chaos(config)
        b = run_chaos(config)
        assert a.runs[0].finish_time == b.runs[0].finish_time
        assert a.runs[0].plan == b.runs[0].plan

    def test_report_renders(self):
        result = run_chaos(small_config(variants=("rr",), seeds=1))
        report = format_report(result)
        assert "Chaos harness" in report
        assert "rr" in report
        assert "all runs survived" in report


class BrokenAckSender(NewRenoSender):
    """Test fixture: a sender that publishes a regressing cumulative
    ACK level once the transfer is under way — the corruption the
    online checkers exist to catch."""

    variant = "newreno"

    def receive(self, packet):
        super().receive(packet)
        if self.snd_una >= 20:
            self._emit("tcp.ack", ackno=0, snd_una=self.snd_una, snd_nxt=self.snd_nxt)


class TestBrokenVariantIsCaught:
    def test_ack_monotonicity_violation_carries_trace_tail(self):
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant="newreno", amount_packets=200)],
            params=DumbbellParams(n_pairs=1, buffer_packets=25),
            sender_overrides={1: BrokenAckSender},
        )
        suite = InvariantSuite.standard()
        suite.install(scenario.dumbbell.net.trace)
        with pytest.raises(InvariantViolation) as excinfo:
            scenario.sim.run(until=300.0)
        violation = excinfo.value
        assert violation.invariant == "ack-monotonic"
        assert len(violation.tail) > 0
        assert violation.tail[-1] is violation.record
        # The engine annotated the escaping error with clock context.
        assert violation.sim_context["sim_time"] == scenario.sim.now


class TestCli:
    def test_chaos_cli_quick(self, capsys):
        assert main(["chaos", "--quick", "--seeds", "1", "--variants", "rr"]) == 0
        out = capsys.readouterr().out
        assert "===== chaos =====" in out
        assert "Chaos harness" in out
        assert "all runs survived" in out
