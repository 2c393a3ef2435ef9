"""The hop classes keep every field in a slot.

The compiled hop reads and writes links, queues and routers at the slot
offsets ``install_hop`` captures (docs/PERFORMANCE.md "Hop state in
slots").  A field assigned without a slot would quietly give instances a
``__dict__`` again; here it fails loudly instead.  Runs the golden
dumbbell and a RED dumbbell and checks every hop object they built.
"""

import pytest

from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.config import TcpConfig
from repro.net.link import Link
from repro.net.node import Host, Router
from repro.net.queues import DropTailQueue
from repro.net.red import RedParams, RedQueue
from repro.net.topology import DumbbellParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.snapshot.golden import TRANSFER_PACKETS, build_golden_scenario

HOP_CLASSES = (Link, Router, Host, DropTailQueue, RedQueue)


def red_dumbbell():
    sim = Simulator()
    return build_dumbbell_scenario(
        flows=[FlowSpec(variant="rr", amount_packets=TRANSFER_PACKETS)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        bottleneck_queue_factory=lambda name: RedQueue(
            sim, RedParams(limit=25), RngStream(7, name), name=name
        ),
        sim=sim,
    )


@pytest.mark.parametrize(
    "build,bottleneck",
    [(lambda: build_golden_scenario("rr"), DropTailQueue), (red_dumbbell, RedQueue)],
    ids=["golden", "red"],
)
def test_no_hop_object_has_a_dict(build, bottleneck):
    scenario = build()
    scenario.sim.run(until=30.0)
    assert scenario.senders[1].completed
    net = scenario.dumbbell.net
    objects = [*net.nodes.values(), *net.links.values()]
    objects += [link.queue for link in net.links.values()]
    assert {type(obj) for obj in objects} >= {Link, Router, Host, DropTailQueue, bottleneck}
    assert all(type(obj) in HOP_CLASSES for obj in objects)
    with_dict = [repr(obj) for obj in objects if hasattr(obj, "__dict__")]
    assert with_dict == []
