"""Lazy hop entries cannot be seen.

On the compiled backend the hop books each ``Link._serve`` and
``Link._deliver`` as a heap entry that holds the link and the packet and
owns no ``Event`` (docs/PERFORMANCE.md "Cost of a hop").  Whatever lets
Python look at the heap -- ``heap_entries()``, a digest, a pickle,
``clear()``, a callback error -- must see the events the pure backend
books: same time, serial, callback and arguments.  The
parity test pauses three worlds on the pure backend in one process and
on the default backend (compiled when built) in another; without the
compiled core both runs are pure and it degrades to cross-process
determinism.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import CallbackError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.snapshot.golden import build_golden_scenario

SRC = str(Path(__file__).resolve().parents[2] / "src")

_PAUSE_SCRIPT = """\
import json, pickle
from repro.net.packet import Packet
from repro.net.red import RedParams
from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene
from repro.sim.engine import CORE_BACKEND
from repro.snapshot import state_digest
from repro.snapshot.golden import build_golden_scenario

# The golden transfers end by t=5; the scene runs for 0.6 s.
PAUSES = {
    "rr": (0.3, 0.8, 1.5, 2.5, 4.0),
    "sack": (0.3, 0.8, 1.5, 2.5, 4.0),
    "wan": (0.05, 0.1, 0.2, 0.35, 0.5),
}
END = {"rr": 12.0, "sack": 12.0, "wan": 0.6}


def build(name):
    if name != "wan":
        return build_golden_scenario(name)
    return build_scene(SceneSpec(
        family="wan",
        topology=WaxmanParams(n_routers=10, graph_seed=3),
        flows=FlowPopulation(count=12),
        red=RedParams(min_th=5.0, max_th=15.0, max_p=0.1, limit=40),
        seed=5,
        duration=END[name],
    ))


def arg(value):
    return ["packet", value.uid] if isinstance(value, Packet) else repr(value)


def entry(time, serial, event):
    fn = event.fn
    func = getattr(fn, "__func__", fn)
    return [
        repr(time), serial, getattr(func, "__qualname__", repr(type(func))),
        repr(getattr(getattr(fn, "__self__", None), "name", None)),
        [arg(value) for value in event.args],
    ]


out = {"backend": CORE_BACKEND}
for name in PAUSES:
    # Looked at: every pending entry and the digest at each pause.
    world = build(name)
    sim = world.sim
    seen = []
    for t in PAUSES[name]:
        sim.run(until=t)
        pending = sorted(e[:2] + (e[2],) for e in sim.heap_entries() if e[2].pending)
        seen.append([state_digest(world), [entry(*e) for e in pending]])
    sim.run(until=END[name])
    looked = state_digest(world)
    # Pickled mid-run, then run on.
    world = build(name)
    for t in PAUSES[name]:
        world.sim.run(until=t)
        pickle.dumps(world)
    world.sim.run(until=END[name])
    pickled = state_digest(world)
    # Never paused.
    world = build(name)
    world.sim.run(until=END[name])
    out[name] = {
        "seen": seen,
        "hop_entries": sum(e[2] in ("Link._serve", "Link._deliver") for _, es in seen for e in es),
        "final": [looked, pickled, state_digest(world)],
        "events": world.sim.events_processed,
    }
print(json.dumps(out))
"""


def _run(pure):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_PURE_PYTHON", None)
    if pure:
        env["REPRO_PURE_PYTHON"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _PAUSE_SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def paused():
    return _run(pure=True), _run(pure=False)


def test_both_backends_see_the_same_entries_at_every_pause(paused):
    pure, default = paused
    assert pure["backend"] == "python"
    for name in ("rr", "sack", "wan"):
        assert pure[name]["hop_entries"] > 20, name
        assert pure[name]["seen"] == default[name]["seen"], name
        assert pure[name] == default[name], name


def test_a_look_or_a_pickle_mid_run_changes_nothing(paused):
    for result in paused:
        for name in ("rr", "sack", "wan"):
            looked, pickled, plain = result[name]["final"]
            assert looked == pickled == plain, (result["backend"], name)


def test_clear_drops_hop_entries_and_fires_nothing():
    scenario = build_golden_scenario("rr")
    sim = scenario.sim
    sim.run(until=1.0)
    assert sim.pending_events > 5
    fired = sim.events_processed
    sim.clear()
    assert sim.pending_events == 0 and sim.cancelled_in_heap == 0
    assert sim.heap_entries() == []
    sim.run(until=30.0)
    assert sim.events_processed == fired


class _Unreachable:
    def receive(self, packet):
        raise RuntimeError("host is gone")


def test_a_hop_that_raises_reports_its_filled_event():
    """The error path fills the event the callback ran from, fired."""
    scenario = build_golden_scenario("rr")
    sim = scenario.sim
    sim.run(until=1.0)
    link = scenario.dumbbell.forward_link
    link._dst = _Unreachable()
    with pytest.raises(CallbackError) as excinfo:
        sim.run(until=30.0)
    event = excinfo.value.event
    assert event.fired and not event.cancelled
    assert (event.time, event._sim) == (sim.now, sim)
    assert event.fn.__func__ is Link._deliver and event.fn.__self__ is link
    (packet,) = event.args
    assert type(packet) is Packet and event.serial >= 0
