"""Budget: engine events per packet-hop.

A hop through an idle egress costs one event (the arrival at the far
end); only a packet that finds the transmitter occupied costs a second
(the service event).  These budgets sit a little above the measured
ratios so a re-introduced per-hop event — a transmission-done callback,
a zero-delay hand-off — fails here, on whichever backend the suite runs
under, not in a benchmark three changes later.

On the compiled backend nearly all of those events are the hop's lazy
entries, which fill no Event (``Core.hop_events`` counts them); a shim
that disarms the hop, or a re-arm that never comes, shows here.  Every
entry still owns one pooled Event, so both backends must end a world
with the same free list: the benchmark fingerprints its size.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.link import Link
from repro.net.loss import UniformLoss
from repro.net.red import RedParams
from repro.net.topology import DumbbellParams
from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene
from repro.sim.engine import CORE_BACKEND
from repro.sim.rng import RngStream
from repro.snapshot.golden import build_golden_scenario

SRC = str(Path(__file__).resolve().parents[2] / "src")


def events_per_hop(sim, net):
    return sim.events_processed / sum(l.packets_delivered for l in net.links.values())


def figure7_cell(variant="rr"):
    """One finite flow on the Figure-7 dumbbell, run to completion (the
    cell of tests/tcp/test_endpoint_call_budget.py too)."""
    scenario = build_dumbbell_scenario(
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
    (docs/PERFORMANCE.md "The compiled hop"): nearly every event of a
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


_POOL_SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from test_hop_event_budget import figure7_cell, wan_scene
from repro.sim.engine import CORE_BACKEND

out = {"backend": CORE_BACKEND}
for name, world in (("rr", lambda: figure7_cell("rr")), ("sack", lambda: figure7_cell("sack")),
                    ("wan", wan_scene)):
    sim, _ = world()
    out[name] = [sim.events_processed, sim.drain_event_pool()]
print(json.dumps(out))
"""


def _pools(pure):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_PURE_PYTHON", None)
    if pure:
        env["REPRO_PURE_PYTHON"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _POOL_SCRIPT, str(Path(__file__).parent)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_both_backends_pool_the_same_events():
    """Every entry, lazy or not, owns one Event from the shared free
    list, so after the same world both backends hold the same number
    of recycled events (the benchmark fingerprints this count)."""
    pure, default = _pools(True), _pools(False)
    assert pure.pop("backend") == "python"
    default.pop("backend")
    assert pure == default
