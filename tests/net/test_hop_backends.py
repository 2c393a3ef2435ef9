"""Backend parity of the link hop.

On the compiled backend ``Link.send`` / ``_serve`` / ``_deliver``,
``Router.receive`` and ``Node.send`` run in C on the links' own state,
and hand single packets back to the Python methods for whatever C does
not do.  One world here trips every such hand-back mid-run — loss
switched on and off, tamper duplicates and corruptions, a reordering
link, an outage, a rate step, a RED link, DropTail overflow, a
``link.tx`` subscriber attached late, and a capture/restore — and the
pure-python run of it in one process must equal the default (compiled
when built) run in another: state digest, every counter, every
``link.tx`` record with the queue counters it saw, and the number of
packets minted.  A second world does the same for RED, whose EWMA step
C runs for an accept below ``min_th``: a RED bottleneck driven through
the ramp, the gentle ramp, ECN marks, forced drops and overflow, idle
decay after silences short and long, a rate step, a service that finds
its queue emptied behind it, and a capture/restore, with a RED access
link too small to reach ``min_th``, so it overflows below it.  Without
the compiled core both runs are pure and the comparison degrades to
cross-process determinism.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

_WORLD_SCRIPT = """\
import json
from repro.app.ftp import FtpSource
from repro.config import TcpConfig
from repro.faults.tamper import PacketTamperer
from repro.net.loss import NoLoss, UniformLoss
from repro.net.network import Network
from repro.net.packet import set_uid_state, uid_state
from repro.net.queues import DropTailQueue
from repro.net.red import RedParams, RedQueue
from repro.net.reorder import JitterReorderer
from repro.net.varlink import RateSchedule
from repro.sim.engine import CORE_BACKEND, Simulator
from repro.sim.rng import RngStream
from repro.snapshot import Snapshot, state_digest
from repro.tcp.factory import make_connection


class World:
    def __init__(self):
        self.sim = Simulator()
        self.net = Network(self.sim)
        self.loss = UniformLoss(0.05, RngStream(5, "loss"))
        self.tx = []

    def on_tx(self, record):
        # What the queue looked like when the packet entered service.
        queue = self.net.links[record.source].queue
        self.tx.append([
            repr(record.time), record.source, record.fields["packet"].uid,
            repr(record.fields["done"]), queue.enqueues, queue.dequeues, len(queue),
        ])


set_uid_state(1)
world = World()
sim, net = world.sim, world.net
for host in ("S1", "S2", "D1", "D2"):
    net.add_host(host)
for router in ("R1", "R2", "R3"):
    net.add_router(router)
net.add_duplex_link("S1", "R1", 100e6, 0.002)
net.add_duplex_link("S2", "R1", 100e6, 0.003)
bottleneck = net.add_link("R1", "R2", 4e6, 0.02, queue=DropTailQueue(limit=6))
net.add_link("R2", "R1", 100e6, 0.02)
net.add_link(
    "R2", "R3", 20e6, 0.005, queue=RedQueue(sim, RedParams(limit=30), RngStream(3, "red"))
)
net.add_link("R3", "R2", 20e6, 0.005)
net.add_duplex_link("R3", "D1", 100e6, 0.002)
net.add_duplex_link("R3", "D2", 100e6, 0.002)
net.compute_routes(compact=True)
for flow_id, (src, dst, variant) in enumerate(
    (("S1", "D1", "rr"), ("S2", "D2", "newreno")), start=1
):
    sender, _ = make_connection(
        sim, variant, flow_id, net.nodes[src], net.nodes[dst],
        config=TcpConfig(receiver_window=64),
    )
    FtpSource(sim, sender, amount_packets=500)

sim.schedule_at(0.8, net.trace.subscribe, "link.tx", world.on_tx)
sim.schedule_at(1.0, setattr, bottleneck, "loss", world.loss)
sim.schedule_at(2.6, setattr, bottleneck, "loss", NoLoss())
bottleneck.tamper = PacketTamperer(
    sim, RngStream(7, "tamper"), duplicate_rate=0.05, corrupt_rate=0.05, start=1.5, end=3.0
)
net.link("R2", "R1").reorder = JitterReorderer(RngStream(9, "jitter"), 0.004, include_acks=True)
net.link("S2", "R1").schedule_outage(2.0, 0.15)
RateSchedule(steps=((1.2, 2e6), (3.5, 4e6))).apply(bottleneck)

sim.run(until=2.2)
world = Snapshot.capture(world).restore()
world.sim.run(until=40.0)

sim, net = world.sim, world.net
bottleneck = net.link("R1", "R2")
print(json.dumps({
    "backend": CORE_BACKEND,
    "digest": state_digest(world),
    "events": sim.events_processed,
    "now": repr(sim.now),
    "links": {
        name: [
            link.packets_delivered, link.bytes_delivered, link.outage_drops,
            link.loss.injected_drops, link.queue.enqueues, link.queue.dequeues,
            link.queue.drops, len(link.queue), link.bandwidth_bps,
        ]
        for name, link in sorted(net.links.items())
    },
    "nodes": {name: node.packets_received for name, node in sorted(net.nodes.items())},
    "injected": world.loss.injected_drops,
    "tamper": [bottleneck.tamper.duplicated, bottleneck.tamper.corrupted],
    "reordered": net.link("R2", "R1").reorder.reordered,
    "minted": uid_state() - 1,
    "tx": world.tx,
}))
"""


_RED_WORLD_SCRIPT = """\
import json
from repro.app.ftp import FtpSource
from repro.config import TcpConfig
from repro.net.network import Network
from repro.net.red import RedParams, RedQueue
from repro.net.varlink import RateSchedule
from repro.sim.engine import CORE_BACKEND, Simulator
from repro.sim.rng import RngStream
from repro.snapshot import Snapshot, state_digest
from repro.tcp.factory import make_connection


class World:
    def __init__(self):
        self.sim = Simulator()
        self.net = Network(self.sim)
        self.tx = []
        self.drops = []
        self.drained = []

    def red_state(self, name):
        queue = self.net.links[name].queue
        return [repr(queue.avg), repr(queue._idle_since), queue._count, len(queue)]

    def on_tx(self, record):
        if isinstance(self.net.links[record.source].queue, RedQueue):
            self.tx.append([repr(record.time), record.source] + self.red_state(record.source))
        if record.source == "R1->R2" and record.time >= 1.8 and not self.drained:
            # Booked ahead of the service event for the packets behind this
            # one, at the same instant: the drain empties the queue first.
            self.drained.append(repr(record.time))
            self.sim.schedule_abs(record.fields["done"], self.drain, record.source)

    def drain(self, name):
        link = self.net.links[name]
        self.drained.append([link._serve_pending, len(link.queue)])
        # Behind the queue's back: a dequeue would restart the idle clock
        # itself, which is what the service that finds the queue empty
        # must do.
        link.queue._items.clear()
        self.sim.schedule_abs(self.sim.now, self.look, name)

    def look(self, name):
        self.drained.append(self.red_state(name))

    def on_drop(self, record):
        self.drops.append(
            [repr(record.time), record.source, record.fields["reason"]]
            + self.red_state(record.source)
        )


# The idle span, in packet times, of every arrival at an empty RED queue:
# seen on the pure backend only, where every arrival runs _update_average.
idle = []
if CORE_BACKEND == "python":
    update = RedQueue._update_average

    def observed(queue):
        if not queue._items and queue._idle_since is not None:
            idle.append(int((queue._sim.now - queue._idle_since) / queue._mean_pkt_time))
        update(queue)

    RedQueue._update_average = observed

world = World()
sim, net = world.sim, world.net
for host in ("S1", "S2", "S3", "D1", "D2", "D3"):
    net.add_host(host)
for router in ("R1", "R2"):
    net.add_router(router)
for i in (1, 2, 3):
    net.add_duplex_link("R2", f"D{i}", 100e6, 0.002)
net.add_duplex_link("S1", "R1", 100e6, 0.001)
net.add_duplex_link("S3", "R1", 100e6, 0.003)
access = RedQueue(sim, RedParams(min_th=5.0, max_th=10.0, limit=4), RngStream(4, "access"))
net.add_link("S2", "R1", 1e6, 0.002, queue=access)
net.add_link("R1", "S2", 100e6, 0.002)
red = RedParams(min_th=3.0, max_th=8.0, max_p=0.1, weight=0.04, limit=24, ecn=True, gentle=True)
bottleneck = net.add_link("R1", "R2", 2e6, 0.02, queue=RedQueue(sim, red, RngStream(3, "red")))
net.add_link("R2", "R1", 2e6, 0.02)
net.compute_routes(compact=True)
# Flow 1 is ECN-capable; flow 3 starts long after the others finish.
for flow_id, (variant, ecn, start, amount) in enumerate(
    (("rr", True, 0.0, 600), ("newreno", False, 0.0, 600), ("newreno", False, 30.0, 200)),
    start=1,
):
    sender, _ = make_connection(
        sim, variant, flow_id, net.nodes[f"S{flow_id}"], net.nodes[f"D{flow_id}"],
        config=TcpConfig(receiver_window=64, ecn_enabled=ecn),
    )
    FtpSource(sim, sender, amount_packets=amount, start_time=start)
net.trace.subscribe("link.tx", world.on_tx)
net.trace.subscribe("link.drop", world.on_drop)
RateSchedule(steps=((1.5, 0.5e6), (3.0, 2e6))).apply(bottleneck)

sim.run(until=2.2)
world = Snapshot.capture(world).restore()
world.sim.run(until=60.0)

sim, net = world.sim, world.net
print(json.dumps({
    "backend": CORE_BACKEND,
    "digest": state_digest(world),
    "events": sim.events_processed,
    "now": repr(sim.now),
    "red": {
        name: [
            link.queue.enqueues, link.queue.dequeues, link.queue.drops,
            link.queue.early_drops, link.queue.forced_drops, link.queue.overflow_drops,
            link.queue.ecn_marks, repr(link.queue._mean_pkt_time),
        ] + world.red_state(name)
        for name, link in sorted(net.links.items())
        if isinstance(link.queue, RedQueue)
    },
    "tx": world.tx,
    "drops": world.drops,
    "drained": world.drained,
    "idle": idle,
}))
"""


def _run(script, extra_env):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(extra_env)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


def test_compiled_hop_matches_pure_python_through_every_fallback():
    pure = _run(_WORLD_SCRIPT, {"REPRO_PURE_PYTHON": "1"})
    default = _run(_WORLD_SCRIPT, {"REPRO_PURE_PYTHON": "0"})
    assert pure["backend"] == "python"
    # The world must reach every path the compiled hop hands back.
    links = pure["links"]
    assert pure["injected"] > 0, "no injected loss"
    assert links["R1->R2"][6] > 0, "no DropTail overflow"
    assert links["S2->R1"][2] > 0, "no outage drop"
    assert links["R2->R3"][4] > 0, "the RED link carried nothing"
    assert links["R1->R2"][8] == 4e6, "the rate schedule did not step"
    assert all(pure["tamper"]), "no tamper duplicate and corruption"
    assert pure["reordered"] > 0, "nothing reordered"
    assert pure["tx"], "the late link.tx subscriber saw nothing"
    assert pure["minted"] > 0, "no packet was minted"
    for key in ("digest", "events", "now", "links", "nodes", "injected", "tamper",
                "reordered", "minted", "tx"):
        assert default[key] == pure[key], key


def test_compiled_red_hop_matches_pure_python_through_every_branch():
    pure = _run(_RED_WORLD_SCRIPT, {"REPRO_PURE_PYTHON": "1"})
    default = _run(_RED_WORLD_SCRIPT, {"REPRO_PURE_PYTHON": "0"})
    assert pure["backend"] == "python"
    # Enqueues, dequeues, drops, early / forced / overflow drops, ECN marks.
    for counter in range(7):
        assert sum(queue[counter] for queue in pure["red"].values()) > 0, counter
    reasons = {(source, reason) for _, source, reason, *_ in pure["drops"]}
    assert ("S2->R1", "overflow") in reasons, "no overflow below min_th"
    assert ("R1->R2", "overflow") in reasons, "no overflow at the bottleneck"
    assert any(
        reason == "early" and float(avg) >= 8.0 for _, _, reason, avg, *_ in pure["drops"]
    ), "the gentle ramp was not reached"
    assert 0 in pure["idle"], "no arrival within a packet time of going idle"
    assert max(pure["idle"]) > 1000, "no idle decay after a long silence"
    [_, [serve_pending, backlog], _] = pure["drained"]
    assert serve_pending and backlog > 0, "no service found the queue emptied"
    for key in ("digest", "events", "now", "red", "tx", "drops", "drained"):
        assert default[key] == pure[key], key
