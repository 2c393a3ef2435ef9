"""The crown-jewel property: **reliable delivery under arbitrary finite
loss**.

Whatever the recovery scheme — Tahoe's bluntness, RR's probing, SACK's
scoreboard — TCP must deliver every packet, in order, exactly once, for
*any* finite pattern of data losses, ACK losses, or both.  Hypothesis
explores the loss-pattern space; the assertion is the TCP contract.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.loss import AckLoss, Composite, DeterministicLoss
from repro.net.topology import DumbbellParams

TRANSFER = 60  # packets per transfer; keep runs fast

VARIANTS = ["tahoe", "reno", "newreno", "sack", "rr", "vegas"]

# Patterns of data packets to kill on first transmission.
drop_sets = st.sets(st.integers(min_value=0, max_value=TRANSFER - 1), max_size=12)
# Patterns of ACK arrival indices to kill.
ack_drop_sets = st.sets(st.integers(min_value=0, max_value=80), max_size=10)

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_with_losses(variant, data_drops, ack_drops=frozenset()):
    forward = DeterministicLoss([(1, s) for s in data_drops])
    reverse = AckLoss(drop_indices=ack_drops) if ack_drops else None
    # Adversarial patterns (every first transmission of a packet doomed
    # AND its ACKs dropped) legitimately degenerate to pure RTO cycles
    # with Karn blocking every new sample; cap the exponential back-off
    # so convergence fits the simulated horizon.
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=TRANSFER)],
        params=DumbbellParams(n_pairs=1, buffer_packets=100),
        default_config=TcpConfig(receiver_window=64, max_rto=8.0),
        forward_loss=forward,
        reverse_loss=reverse,
    )
    scenario.sim.run(until=600.0)
    return scenario


@pytest.mark.parametrize("variant", VARIANTS)
class TestReliableDelivery:
    @RELAXED
    @given(drops=drop_sets)
    def test_arbitrary_data_loss(self, variant, drops):
        scenario = run_with_losses(variant, drops)
        sender, _ = scenario.flow(1)
        receiver = scenario.receivers[1]
        assert sender.completed, f"{variant} stalled with drops={sorted(drops)}"
        assert receiver.delivered == TRANSFER
        assert not receiver._out_of_order

    @RELAXED
    @given(ack_drops=ack_drop_sets)
    def test_arbitrary_ack_loss(self, variant, ack_drops):
        scenario = run_with_losses(variant, frozenset(), frozenset(ack_drops))
        sender, _ = scenario.flow(1)
        assert sender.completed
        assert scenario.receivers[1].delivered == TRANSFER

    @RELAXED
    @given(drops=drop_sets, ack_drops=ack_drop_sets)
    def test_combined_loss(self, variant, drops, ack_drops):
        scenario = run_with_losses(variant, drops, frozenset(ack_drops))
        sender, _ = scenario.flow(1)
        assert sender.completed
        assert scenario.receivers[1].delivered == TRANSFER

    @RELAXED
    @given(
        drops=drop_sets,
        reorder_targets=st.sets(
            st.integers(min_value=0, max_value=TRANSFER - 1), max_size=6
        ),
    )
    def test_loss_plus_reordering(self, variant, drops, reorder_targets):
        """Arbitrary drops AND arbitrary packet displacements together
        must still yield complete in-order delivery."""
        from repro.net.reorder import DeterministicReorderer

        forward = DeterministicLoss([(1, s) for s in drops])
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant=variant, amount_packets=TRANSFER)],
            params=DumbbellParams(n_pairs=1, buffer_packets=100),
            default_config=TcpConfig(receiver_window=64),
            forward_loss=forward,
        )
        scenario.dumbbell.forward_link.reorder = DeterministicReorderer(
            [(1, s) for s in reorder_targets], delay=0.04
        )
        scenario.sim.run(until=600.0)
        sender, _ = scenario.flow(1)
        assert sender.completed
        assert scenario.receivers[1].delivered == TRANSFER
        assert not scenario.receivers[1]._out_of_order


@pytest.mark.parametrize("variant", VARIANTS)
class TestSenderInvariants:
    @RELAXED
    @given(drops=drop_sets)
    def test_ack_monotone_and_window_sane(self, variant, drops):
        forward = DeterministicLoss([(1, s) for s in drops])
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant=variant, amount_packets=TRANSFER)],
            params=DumbbellParams(n_pairs=1, buffer_packets=100),
            forward_loss=forward,
        )
        sender, stats = scenario.flow(1)
        scenario.sim.run(until=600.0)
        # snd_una advanced monotonically (ack series is the record).
        acks = [a for _, a in stats.ack_series]
        assert acks == sorted(acks)
        # Final state invariants.
        assert sender.snd_una <= sender.snd_nxt <= sender.maxseq
        assert sender.cwnd >= 1.0
        assert sender.ssthresh >= 2.0
