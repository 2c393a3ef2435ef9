"""Budget: engine events per packet-hop.

A hop through an idle egress costs one event (the arrival at the far
end); only a packet that finds the transmitter occupied costs a second
(the service event).  These budgets sit a little above the measured
ratios so a re-introduced per-hop event — a transmission-done callback,
a zero-delay hand-off — fails here, on whichever backend the suite runs
under, not in a benchmark three changes later.
"""

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.loss import UniformLoss
from repro.net.red import RedParams
from repro.net.topology import DumbbellParams
from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene
from repro.sim.rng import RngStream


def events_per_hop(sim, net):
    return sim.events_processed / sum(l.packets_delivered for l in net.links.values())


def test_one_finite_flow_on_the_figure7_dumbbell():
    """Side links run at ten times the bottleneck rate, so nine hops in
    ten meet an idle transmitter (measured 1.075)."""
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant="rr", amount_packets=1500)],
        params=DumbbellParams(
            n_pairs=1,
            bottleneck_bandwidth_bps=10e6,
            bottleneck_delay=0.097,
            side_bandwidth_bps=100e6,
            buffer_packets=200,
        ),
        default_config=TcpConfig(receiver_window=200, initial_ssthresh=100.0),
        forward_loss=UniformLoss(0.01, RngStream(41, "hop-budget")),
    )
    scenario.sim.run(until=600.0)
    assert scenario.senders[1].completed
    assert events_per_hop(scenario.sim, scenario.dumbbell.net) <= 1.15


def test_sixty_flows_over_a_forty_router_wan():
    """RED on every core link and many flows per link: up to a third
    of the hops queue behind another packet (measured 1.33)."""
    scene = build_scene(
        SceneSpec(
            family="wan",
            topology=WaxmanParams(n_routers=40, graph_seed=7),
            flows=FlowPopulation(count=60),
            red=RedParams(min_th=10.0, max_th=40.0, max_p=0.02, limit=120),
            seed=11,
            duration=0.5,
        )
    ).run()
    assert events_per_hop(scene.sim, scene.net) <= 1.40
