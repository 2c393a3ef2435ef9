"""Integration tests: full transfers through the simulated network.

Every variant must reliably deliver a bounded transfer under a range of
network conditions — clean paths, engineered bursts, random loss, RED
congestion and ACK loss — because whatever the recovery scheme does,
TCP's contract is reliable in-order delivery.
"""

import pytest

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.loss import AckLoss, DeterministicLoss, UniformLoss
from repro.net.red import RedParams, RedQueue
from repro.net.topology import DumbbellParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream

ALL_VARIANTS = [
    "tahoe", "reno", "newreno", "sack", "sack3517", "rr",
    "rightedge", "linkung", "vegas",
]
PAPER_VARIANTS = ["tahoe", "newreno", "sack", "rr"]


def run_transfer(
    variant,
    packets=200,
    forward_loss=None,
    reverse_loss=None,
    buffer_packets=25,
    duration=200.0,
    config=None,
    n_flows=1,
):
    flows = [FlowSpec(variant=variant, amount_packets=packets)]
    for _ in range(n_flows - 1):
        flows.append(FlowSpec(variant=variant, amount_packets=None))
    scenario = build_dumbbell_scenario(
        flows=flows,
        params=DumbbellParams(n_pairs=len(flows), buffer_packets=buffer_packets),
        default_config=config,
        forward_loss=forward_loss,
        reverse_loss=reverse_loss,
    )
    scenario.sim.run(until=duration)
    return scenario


class TestCleanPath:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_transfer_completes_without_retransmissions(self, variant):
        scenario = run_transfer(variant, packets=100, buffer_packets=200)
        sender, stats = scenario.flow(1)
        assert sender.completed
        assert sender.retransmits == 0
        assert sender.timeouts == 0

    @pytest.mark.parametrize("variant", PAPER_VARIANTS)
    def test_receiver_got_everything_in_order(self, variant):
        scenario = run_transfer(variant, packets=100, buffer_packets=200)
        receiver = scenario.receivers[1]
        assert receiver.delivered == 100
        assert not receiver._out_of_order


class TestBurstLoss:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("n_drops", [1, 3, 6])
    def test_recovers_from_burst(self, variant, n_drops):
        loss = DeterministicLoss([(1, 50 + i) for i in range(n_drops)])
        scenario = run_transfer(variant, packets=200, forward_loss=loss)
        sender, stats = scenario.flow(1)
        assert sender.completed, f"{variant} did not finish after {n_drops} drops"
        assert scenario.receivers[1].delivered == 200

    @pytest.mark.parametrize("variant", ["sack", "rr"])
    def test_robust_schemes_avoid_timeouts_on_bursts(self, variant):
        config = TcpConfig(receiver_window=64, initial_ssthresh=20.0)
        loss = DeterministicLoss([(1, 100 + i) for i in range(6)])
        scenario = run_transfer(variant, packets=400, forward_loss=loss, config=config)
        sender, _ = scenario.flow(1)
        assert sender.completed
        assert sender.timeouts == 0


class TestRandomLoss:
    @pytest.mark.parametrize("variant", PAPER_VARIANTS)
    @pytest.mark.parametrize("rate", [0.01, 0.05])
    def test_completes_under_random_loss(self, variant, rate):
        loss = UniformLoss(rate, RngStream(5, f"{variant}-{rate}"))
        scenario = run_transfer(variant, packets=300, forward_loss=loss, duration=500.0)
        sender, _ = scenario.flow(1)
        assert sender.completed
        assert scenario.receivers[1].delivered == 300


class TestAckLossPath:
    @pytest.mark.parametrize("variant", PAPER_VARIANTS)
    def test_completes_under_ack_loss(self, variant):
        reverse = AckLoss(rate=0.2, rng=RngStream(9, variant))
        scenario = run_transfer(variant, packets=200, reverse_loss=reverse, duration=500.0)
        sender, _ = scenario.flow(1)
        assert sender.completed


class TestRedCongestion:
    @pytest.mark.parametrize("variant", PAPER_VARIANTS)
    def test_completes_through_congested_red(self, variant):
        sim = Simulator()
        rng = RngStream(3, f"red-{variant}")
        flows = [FlowSpec(variant=variant, amount_packets=150)]
        flows += [FlowSpec(variant=variant, amount_packets=None) for _ in range(4)]
        scenario = build_dumbbell_scenario(
            flows=flows,
            params=DumbbellParams(n_pairs=5, buffer_packets=25),
            bottleneck_queue_factory=lambda name: RedQueue(
                sim, RedParams(), rng.substream(name), name=name
            ),
            sim=sim,
        )
        scenario.sim.run(until=300.0)
        sender, _ = scenario.flow(1)
        assert sender.completed
        assert scenario.receivers[1].delivered == 150


class TestSharedBottleneck:
    def test_competing_flows_all_progress(self):
        scenario = run_transfer("rr", packets=100, n_flows=3, duration=300.0)
        for flow_id in range(2, 4):
            assert scenario.stats[flow_id].final_ack > 20

    def test_mixed_variants_coexist(self):
        flows = [
            FlowSpec(variant="rr", amount_packets=100),
            FlowSpec(variant="reno", amount_packets=100),
            FlowSpec(variant="sack", amount_packets=100),
        ]
        scenario = build_dumbbell_scenario(
            flows=flows, params=DumbbellParams(n_pairs=3, buffer_packets=25)
        )
        scenario.sim.run(until=300.0)
        for flow_id in (1, 2, 3):
            assert scenario.senders[flow_id].completed
