"""``reset_counters()`` zeroes a discipline's own counters too.

RED splits ``drops`` into early, forced and overflow drops, and fair
queueing counts drops per flow.  A reset that zeroed only ``drops``
would leave the split counting from the start of the run while the
total counts from the reset, so the two would stop adding up.
"""

import pytest

from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.fairqueue import FairQueue
from repro.net.red import RedParams, RedQueue
from repro.net.topology import DumbbellParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream


def two_flow_dumbbell(kind):
    sim = Simulator()
    factory = {
        "red": lambda name: RedQueue(sim, RedParams(limit=25), RngStream(3, name), name=name),
        "fq": lambda name: FairQueue(25, name=name),
    }[kind]
    return build_dumbbell_scenario(
        flows=[FlowSpec(variant="rr"), FlowSpec(variant="sack")],
        params=DumbbellParams(n_pairs=2, buffer_packets=25),
        bottleneck_queue_factory=factory,
        sim=sim,
    )


def own_drops(queue):
    if isinstance(queue, RedQueue):
        return queue.early_drops + queue.forced_drops + queue.overflow_drops
    return sum(queue.drops_by_flow.values())


@pytest.mark.parametrize("kind", ["red", "fq"])
def test_own_counters_add_up_to_drops_after_a_reset(kind):
    scenario = two_flow_dumbbell(kind)
    queue = scenario.dumbbell.bottleneck_queue
    scenario.sim.run(until=5.0)
    assert queue.drops > 0, "no drops before the reset"
    queue.reset_counters()
    assert (queue.drops, queue.enqueues, queue.dequeues, own_drops(queue)) == (0, 0, 0, 0)
    if kind == "red":
        assert queue.ecn_marks == 0
    scenario.sim.run(until=30.0)
    assert queue.drops > 0, "no drops after the reset"
    assert own_drops(queue) == queue.drops
