"""Budget: engine events per packet-hop.

A hop through an idle egress costs one event (the arrival at the far
end); only a packet that finds the transmitter occupied costs a second
(the service event).  These budgets sit a little above the measured
ratios so a re-introduced per-hop event — a transmission-done callback,
a zero-delay hand-off — fails here, on whichever backend the suite runs
under, not in a benchmark three changes later.

On the compiled backend nearly all of those events are the hop's lazy
entries, which own no Event (``Core.hop_events`` counts them); a shim
that disarms the hop, or a re-arm that never comes, shows here.
"""

import gc

import pytest

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.link import Link
from repro.net.loss import UniformLoss
from repro.net.red import RedParams
from repro.net.topology import DumbbellParams
from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene
from repro.sim.engine import CORE_BACKEND, Event
from repro.sim.rng import RngStream
from repro.snapshot.golden import build_golden_scenario


def events_per_hop(sim, net):
    return sim.events_processed / sum(l.packets_delivered for l in net.links.values())


def figure7_scenario(variant="rr"):
    """One finite flow on the Figure-7 dumbbell, not yet run."""
    return build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=1500)],
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


def figure7_cell(variant="rr"):
    """The Figure-7 flow run to completion (the cell of
    tests/tcp/test_endpoint_call_budget.py too)."""
    scenario = figure7_scenario(variant)
    scenario.sim.run(until=600.0)
    assert scenario.senders[1].completed
    return scenario.sim, scenario.dumbbell.net


def wan_scene():
    """Sixty flows over a forty-router Waxman WAN, RED on every core link."""
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
    return scene.sim, scene.net


def test_one_finite_flow_on_the_figure7_dumbbell():
    """Side links run at ten times the bottleneck rate, so nine hops in
    ten meet an idle transmitter (measured 1.075)."""
    assert events_per_hop(*figure7_cell()) <= 1.15


def test_sixty_flows_over_a_forty_router_wan():
    """RED on every core link and many flows per link: up to a third
    of the hops queue behind another packet (measured 1.33)."""
    assert events_per_hop(*wan_scene()) <= 1.40


compiled_only = pytest.mark.skipif(CORE_BACKEND != "compiled", reason="needs the compiled core")


@compiled_only
@pytest.mark.parametrize("world", [figure7_cell, wan_scene])
def test_hop_entries_fire_without_an_event(world):
    """The compiled hop books its arrivals and services as lazy entries
    (docs/PERFORMANCE.md "Cost of a hop"): nearly every event of a
    hop-bound world is one (measured 0.997 and 0.999)."""
    sim, _ = world()
    assert sim._core.hop_events >= 0.9 * sim.events_processed


@compiled_only
def test_a_shim_on_deliver_books_eager_events_until_it_is_removed(monkeypatch):
    """A class-level shim disarms the hop, so every hop books a plain
    event the shim sees; removing it re-arms the hop."""
    calls = []
    original = Link._deliver

    def shim(self, packet):
        calls.append(packet.uid)
        return original(self, packet)

    monkeypatch.setattr(Link, "_deliver", shim)
    scenario = build_golden_scenario("rr")
    sim = scenario.sim
    sim.run(until=2.0)
    assert sim._core.hop_events == 0 and len(calls) > 100
    monkeypatch.undo()
    fired, shimmed, booked = sim.events_processed, len(calls), sim.pending_events
    sim.run(until=30.0)
    assert sim._core.hop_events >= 0.9 * (sim.events_processed - fired)
    # Only arrivals booked while the shim was in place still reach it.
    assert len(calls) - shimmed <= booked


@compiled_only
def test_pending_hop_entries_own_no_event():
    """A lazy entry gets its Event only when Python looks, so part way
    through the Figure-7 transfer fewer Events are alive than entries
    are pending (measured 2 alive for 20 pending at t=1; with an Event per
    entry and a free list of fired ones it was 22)."""
    sim = figure7_scenario().sim
    sim.run(until=1.0)
    gc.collect()
    alive = sum(1 for obj in gc.get_objects() if type(obj) is Event)
    assert alive < sim.pending_events
