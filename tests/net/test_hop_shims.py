"""The compiled hop under class-level shims, and how long it stays on.

``Link.send`` and ``Node.send`` are C descriptors on the compiled
backend and the dispatch loop runs ``Link._serve`` / ``_deliver`` in C.
A wrapper installed at class level — the benchmark's outside-in tracer,
a test's counting shim — must still see every call it would see on the
pure backend, so the hop hands everything to Python while any of its
entry points is not the library's own.  The check that decides this
caches the classes' version tags; the cache must re-arm after a class
write, such as the ``__slotnames__`` copyreg adds at a world's first
``state_digest``, instead of leaving the fast path off for good.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.app.ftp import FtpSource
from repro.config import TcpConfig
from repro.net.link import Link
from repro.net.loss import UniformLoss
from repro.net.node import Host, Router
from repro.net.queues import DropTailQueue
from repro.net.topology import Dumbbell, DumbbellParams
from repro.sim.engine import CORE_BACKEND, Simulator
from repro.sim.rng import RngStream
from repro.snapshot import state_digest
from repro.tcp.factory import make_connection

pytestmark = pytest.mark.skipif(
    CORE_BACKEND != "compiled", reason="the hop runs in C only on the compiled backend"
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def lossy_dumbbell(packets=400):
    """One finite RR transfer through uniform loss on the Figure-7 dumbbell."""
    sim = Simulator()
    bell = Dumbbell(
        sim,
        DumbbellParams(
            n_pairs=1,
            bottleneck_bandwidth_bps=10e6,
            bottleneck_delay=0.097,
            side_bandwidth_bps=100e6,
            buffer_packets=200,
        ),
        forward_loss=UniformLoss(0.02, RngStream(11, "shim-loss")),
    )
    sender, _ = make_connection(
        sim, "rr", 1, bell.sender(1), bell.receiver(1),
        config=TcpConfig(receiver_window=200, initial_ssthresh=100.0),
    )
    FtpSource(sim, sender, amount_packets=packets)
    return sim, bell, sender


def offered(bell):
    """Packets handed to ``Link.send``, from the links' own counters."""
    return sum(
        link.queue.enqueues + link.queue.drops + link.loss.injected_drops
        for link in bell.net.links.values()
    )


def test_class_level_shims_see_every_call(monkeypatch):
    # A world first runs on the armed fast path, as the benchmark's
    # untraced rounds do before its tracer goes in.
    sim, bell, sender = lossy_dumbbell()
    sim.run(until=60.0)
    assert sender.completed

    counts = {"send": 0, "receive": 0, "callbacks": 0}
    send, receive = Link.send, Router.receive

    def counted_send(link, packet):
        counts["send"] += 1
        return send(link, packet)

    def counted_receive(router, packet):
        counts["receive"] += 1
        return receive(router, packet)

    def dispatch(fn, *args):
        counts["callbacks"] += 1
        return fn(*args)

    def reroute(original):
        def schedule(sim, when, fn, *args):
            return original(sim, when, dispatch, fn, *args)

        return schedule

    monkeypatch.setattr(Link, "send", counted_send)
    monkeypatch.setattr(Router, "receive", counted_receive)
    monkeypatch.setattr(Simulator, "schedule", reroute(Simulator.schedule))
    monkeypatch.setattr(Simulator, "schedule_abs", reroute(Simulator.schedule_abs))
    sim, bell, sender = lossy_dumbbell()
    sim.run(until=60.0)
    assert sender.completed
    # bench/layers.py's two checks: traced sends and callbacks are
    # exactly the work the program counts.
    assert counts["send"] == offered(bell)
    assert counts["callbacks"] == sim.events_processed
    assert counts["receive"] == sum(
        node.packets_received for node in bell.net.nodes.values() if isinstance(node, Router)
    )


def test_fast_path_rearms_after_the_first_state_digest():
    for cls in (Router, Host, DropTailQueue):
        if "__slotnames__" in vars(cls):
            delattr(cls, "__slotnames__")
    sim, bell, sender = lossy_dumbbell(packets=800)
    python_hop = {Link._deliver.__code__, Link._serve.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in python_hop:
            calls.append(frame.f_code.co_name)

    sim.run(until=2.0)
    delivered = sum(link.packets_delivered for link in bell.net.links.values())
    state_digest(bell)
    assert "__slotnames__" in vars(Router), "the digest did not write to a hop class"
    sys.setprofile(profile)
    try:
        sim.run(until=60.0)
    finally:
        sys.setprofile(None)
    assert sender.completed
    assert sum(link.packets_delivered for link in bell.net.links.values()) > delivered
    assert calls == []


_NO_ROUTE_SCRIPT = """\
import json
from repro.errors import TopologyError
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.engine import Simulator

out = []
for src, dst in (("A", "B"), ("A", "Z")):
    sim = Simulator()
    net = Network(sim)
    for host in ("A", "B"):
        net.add_host(host)
    net.add_router("R")
    net.add_link("A", "R", 1e6, 0.01)
    net.add_link("R", "B", 1e6, 0.01)
    net.nodes["A"].add_route("B", net.link("A", "R"))  # R routes nowhere
    sim.schedule(0.5, net.nodes[src].send, Packet("data", 1, src, dst))
    try:
        sim.run()
    except TopologyError as exc:
        out.append([type(exc).__name__, str(exc), sorted(exc.sim_context.items())])
print(json.dumps(out))
"""


def _no_route(extra_env):
    env = dict(os.environ, PYTHONPATH=SRC, **extra_env)
    result = subprocess.run(
        [sys.executable, "-c", _NO_ROUTE_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout)


def test_missing_route_raises_the_same_error_on_both_backends():
    compiled = _no_route({"REPRO_PURE_PYTHON": "0"})
    assert compiled == _no_route({"REPRO_PURE_PYTHON": "1"})
    assert [entry[:2] for entry in compiled] == [
        ["TopologyError", "R: no route to B"],
        ["TopologyError", "A: no route to Z"],
    ]
    assert all(dict(entry[2])["events_processed"] >= 1 for entry in compiled)
