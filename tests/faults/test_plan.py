"""Unit tests for declarative fault plans."""

import pytest

from repro.errors import TopologyError
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.faults.plan import (
    AckLossEpisode,
    FaultContext,
    FaultPlan,
    LinkFlap,
    LinkOutage,
    PacketCorruption,
    PacketDuplication,
    RouterBlackout,
    TimerSkew,
)
from repro.net.loss import Composite, WindowedLoss
from repro.net.topology import DumbbellParams


def scenario(variant="rr", packets=200):
    return build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
    )


class TestFaultContext:
    def test_unknown_link_raises(self):
        ctx = FaultContext.from_scenario(scenario())
        with pytest.raises(TopologyError):
            ctx.link("R9->R10")

    def test_unknown_node_raises(self):
        ctx = FaultContext.from_scenario(scenario())
        with pytest.raises(TopologyError):
            ctx.links_of("R9")

    def test_links_of_router_covers_both_directions(self):
        ctx = FaultContext.from_scenario(scenario())
        names = sorted(l.name for l in ctx.links_of("R1"))
        assert names == ["R1->R2", "R1->S1", "R2->R1", "S1->R1"]

    def test_loss_composition_chains(self):
        result = scenario()
        ctx = FaultContext.from_scenario(result)
        link = ctx.link("S1->R1")
        plan = FaultPlan(seed=3).add(
            AckLossEpisode(link="S1->R1", rate=0.1, start=0.0, end=1.0)
        ).add(AckLossEpisode(link="S1->R1", rate=0.1, start=2.0, end=3.0))
        plan.install(ctx)
        assert isinstance(link.loss, Composite)
        assert len(link.loss.modules) == 2
        assert all(isinstance(m, WindowedLoss) for m in link.loss.modules)


class TestActions:
    def test_outage_installs_and_transfer_survives(self):
        result = scenario()
        plan = FaultPlan(seed=5).add(LinkOutage(link="R1->R2", start=1.0, duration=0.2))
        plan.install(FaultContext.from_scenario(result))
        result.sim.run(until=300.0)
        assert result.senders[1].completed
        assert result.dumbbell.forward_link.outage_drops > 0

    def test_flap_schedules_count_outages(self):
        result = scenario()
        FaultPlan(seed=5).add(
            LinkFlap(link="R1->R2", start=1.0, count=3, down=0.05, up=0.5)
        ).install(FaultContext.from_scenario(result))
        link = result.dumbbell.forward_link
        downs = []
        result.dumbbell.net.trace.subscribe("link.down", lambda r: downs.append(r.time))
        result.sim.run(until=300.0)
        assert len(downs) == 3
        assert result.senders[1].completed

    def test_router_blackout_darkens_every_adjacent_link(self):
        result = scenario()
        FaultPlan(seed=5).add(
            RouterBlackout(router="R1", start=1.0, duration=0.2)
        ).install(FaultContext.from_scenario(result))
        downs = []
        result.dumbbell.net.trace.subscribe("link.down", lambda r: downs.append(r.source))
        result.sim.run(until=300.0)
        assert sorted(downs) == ["R1->R2", "R1->S1", "R2->R1", "S1->R1"]
        assert result.senders[1].completed

    def test_timer_skew_scales_granularity(self):
        result = scenario()
        before = result.senders[1].timer_granularity
        FaultPlan(seed=5).add(TimerSkew(factor=2.5)).install(FaultContext.from_scenario(result))
        assert result.senders[1].timer_granularity == pytest.approx(before * 2.5)

    def test_duplication_survives_exactly_once_delivery(self):
        result = scenario(packets=300)
        FaultPlan(seed=9).add(
            PacketDuplication(link="S1->R1", rate=0.2, start=0.0, end=20.0)
        ).install(FaultContext.from_scenario(result))
        result.sim.run(until=300.0)
        link = result.dumbbell.net.links["S1->R1"]
        assert link.tamper.duplicated > 0
        assert result.senders[1].completed
        # Duplicates reached the receiver but the app saw each packet once.
        assert result.receivers[1].delivered == 300
        assert result.receivers[1].duplicates_received > 0

    def test_corruption_survives(self):
        result = scenario(packets=300)
        FaultPlan(seed=9).add(
            PacketCorruption(link="S1->R1", rate=0.05, start=0.0, end=20.0)
        ).install(FaultContext.from_scenario(result))
        result.sim.run(until=300.0)
        assert result.dumbbell.net.links["S1->R1"].tamper.corrupted > 0
        assert result.senders[1].completed
        assert result.receivers[1].delivered == 300


class TestPlanMechanics:
    def test_same_plan_same_behaviour(self):
        """Installing one plan onto two identical worlds gives
        bit-identical outcomes (per-action derived streams)."""
        finish = []
        for _ in range(2):
            result = scenario(packets=300)
            FaultPlan(seed=77, name="det").add(
                AckLossEpisode(link="R2->R1", rate=0.3, start=0.0, end=15.0)
            ).add(
                PacketCorruption(link="S1->R1", rate=0.05, start=0.0, end=15.0)
            ).install(FaultContext.from_scenario(result))
            result.sim.run(until=300.0)
            assert result.senders[1].completed
            finish.append(result.senders[1].complete_time)
        assert finish[0] == finish[1]

    def test_composition_concatenates_actions(self):
        a = FaultPlan(seed=1, name="a").add(LinkOutage("R1->R2", 1.0, 0.1))
        b = FaultPlan(seed=2, name="b").add(TimerSkew(factor=2.0))
        combined = a + b
        assert len(combined) == 2
        assert combined.seed == 1 and combined.name == "a"
        assert len(a) == 1 and len(b) == 1  # originals untouched

    def test_describe_mentions_every_action(self):
        plan = FaultPlan(seed=1, name="demo").add(
            LinkOutage("R1->R2", 1.0, 0.1)
        ).add(TimerSkew(factor=2.0))
        text = plan.describe()
        assert "demo" in text and "outage R1->R2" in text and "timer-skew" in text
