"""System-level conservation invariants after chaotic runs.

Whatever happens — losses, reordering, outages, recoveries — the
plumbing must balance its books:

* per queue: enqueues == dequeues + still-queued  (drops counted apart);
* per flow: packets sent == packets received + drops observed +
  still-in-transit (a small bounded residue at the cut-off instant);
* the receiver never delivers a packet twice.
"""

import pytest

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.loss import GilbertElliott, UniformLoss
from repro.net.reorder import RandomReorderer
from repro.net.topology import DumbbellParams
from repro.sim.rng import RngStream


def chaotic_scenario(seed=3):
    rng = RngStream(seed, "chaos")
    scenario = build_dumbbell_scenario(
        flows=[
            FlowSpec(variant="rr", amount_packets=250),
            FlowSpec(variant="newreno", amount_packets=250, start_time=0.3),
            FlowSpec(variant="sack", amount_packets=250, start_time=0.6),
        ],
        params=DumbbellParams(n_pairs=3, buffer_packets=15),
        default_config=TcpConfig(receiver_window=64),
        forward_loss=UniformLoss(0.02, rng.substream("loss")),
    )
    scenario.dumbbell.forward_link.reorder = RandomReorderer(
        rng.substream("reorder"), probability=0.02, delay=0.02
    )
    scenario.dumbbell.forward_link.schedule_outage(start=2.0, duration=0.1)
    scenario.sim.run(until=600.0)
    return scenario


@pytest.fixture(scope="module")
def scenario():
    return chaotic_scenario()


class TestQueueConservation:
    def test_every_queue_balances(self, scenario):
        for link in scenario.dumbbell.net.links.values():
            queue = link.queue
            assert queue.enqueues == queue.dequeues + len(queue), link.name

    def test_drop_counter_consistent_with_trace(self, scenario):
        queue = scenario.dumbbell.bottleneck_queue
        assert queue.drops >= 0
        # total data drops observed by flows <= queue drops + injected
        observed = sum(stats.drops_observed for stats in scenario.stats.values())
        injected = scenario.dumbbell.forward_link.loss.injected_drops
        outage = scenario.dumbbell.forward_link.outage_drops
        total_queue_drops = sum(
            link.queue.drops for link in scenario.dumbbell.net.links.values()
        )
        assert observed <= total_queue_drops + injected + outage


class TestFlowConservation:
    def test_all_transfers_completed(self, scenario):
        for sender in scenario.senders.values():
            assert sender.completed

    def test_sent_equals_received_plus_lost(self, scenario):
        for flow_id, sender in scenario.senders.items():
            receiver = scenario.receivers[flow_id]
            stats = scenario.stats[flow_id]
            # All flows completed, so nothing is left in transit except
            # possibly spurious retransmissions acked late.
            assert sender.packets_sent >= receiver.packets_received
            residue = sender.packets_sent - receiver.packets_received - stats.drops_observed
            assert abs(residue) <= 5, f"flow {flow_id} unbalanced by {residue}"

    def test_exactly_once_delivery(self, scenario):
        for flow_id, receiver in scenario.receivers.items():
            assert receiver.delivered == 250
            assert not receiver._out_of_order

    def test_retransmissions_bounded_by_losses(self, scenario):
        """Retransmissions should be the same order as real losses —
        a pathological retransmit storm would break this."""
        for flow_id, sender in scenario.senders.items():
            losses = scenario.stats[flow_id].drops_observed
            assert sender.retransmits <= 3 * losses + 30
