"""Each ablation changes exactly one RR decision and nothing else.

Driven by hand (a stub host, ACKs fed directly) the way
tests/core/test_robust_recovery.py drives RR: 16 packets out, three
duplicate ACKs enter recovery, six more end the retreat with
``actnum = 3``.
"""

from repro.config import TcpConfig
from repro.core.robust_recovery import RobustRecoverySender
from repro.experiments.ablation import RrBurstExit, RrNoProbeGrowth, RrResetOnLoss
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.flowstats import FlowStats
from repro.net.loss import DeterministicLoss
from repro.net.topology import DumbbellParams
from tests.conftest import SenderHarness


def in_probe(cls, **cfg):
    """A sender one partial ACK into the probe sub-phase, actnum 3."""
    config = TcpConfig(initial_cwnd=16.0, initial_ssthresh=64, **cfg)
    harness = SenderHarness(cls, config)
    harness.start()
    harness.dupacks(0, 9)  # fast retransmit + 6 retreat dups: 16, 17, 18
    harness.ack(1)  # retreat ends: actnum = 3
    assert harness.sender.actnum == 3
    return harness


class TestNoProbeGrowth:
    def test_a_clean_boundary_sends_only_the_retransmission(self):
        for cls, extra, actnum in ((RobustRecoverySender, [22], 4), (RrNoProbeGrowth, [], 3)):
            harness = in_probe(cls)
            harness.dupacks(1, 3)  # all of last RTT's packets arrived
            harness.host.clear()
            harness.ack(2)
            assert harness.host.data_seqs() == extra + [2], cls.variant
            assert harness.sender.actnum == actnum, cls.variant

    def test_its_send_series_differs_from_rr_on_the_ablation_cell(self):
        def send_series(cls):
            scenario = build_dumbbell_scenario(
                flows=[FlowSpec(variant="rr", amount_packets=300)],
                params=DumbbellParams(n_pairs=1, buffer_packets=25),
                default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
                forward_loss=DeterministicLoss([(1, 100 + i) for i in range(6)]),
                sender_overrides={1: cls},
            )
            scenario.sim.run(until=30.0)
            return scenario.stats[1].send_series

        assert send_series(RrNoProbeGrowth) != send_series(RobustRecoverySender)


class TestResetOnLoss:
    def test_a_flow_limited_clean_rtt_is_not_a_further_loss(self):
        # The receiver window (19) lets only one of three duplicates
        # release a packet, so the next RTT returns one duplicate: fewer
        # than actnum, but all that went out.  RR's test reads that as a
        # clean RTT; so must the ablation, which differs only in what a
        # real further loss does to actnum.
        for cls in (RobustRecoverySender, RrResetOnLoss):
            harness = in_probe(cls, receiver_window=19)
            harness.dupacks(1, 3)
            harness.ack(2)  # clean: actnum 4
            harness.dupacks(2, 1)
            harness.ack(3)  # ndup 1 < actnum 4, but 1 was sent
            assert harness.sender.further_losses_detected == 0, cls.variant
            assert harness.sender.actnum == 5, cls.variant

    def test_a_further_loss_collapses_actnum(self):
        rr, ablation = in_probe(RobustRecoverySender), in_probe(RrResetOnLoss)
        for harness in (rr, ablation):
            harness.dupacks(1, 2)  # one of last RTT's three packets lost
            harness.ack(2)
            assert harness.sender.further_losses_detected == 1
        assert (rr.sender.actnum, ablation.sender.actnum) == (2, 0)


class TestBurstExit:
    def test_the_exit_window_is_ssthresh_and_is_recorded(self):
        harness = in_probe(RrBurstExit)
        stats = FlowStats(flow_id=1)
        harness.sender.observer = stats
        harness.ack(16)  # full ACK
        sender = harness.sender
        assert not sender.in_recovery
        assert sender.cwnd == sender.ssthresh == 8.0
        assert stats.cwnd_series[-1][1] == 8.0
