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
``link.tx`` record with the queue counters it saw, and the packet
pool's traffic.  Without the compiled core both runs are pure and the
comparison degrades to cross-process determinism.
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
from repro.net.packet import drain_packet_pool, packet_pool, set_uid_state
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
drain_packet_pool()
pool0 = dict(packet_pool().stats())
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
pool = packet_pool().stats()
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
    "pool": {key: pool[key] - pool0[key] for key in ("reused", "released", "skipped")},
    "tx": world.tx,
}))
"""


def _run_world(extra_env):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(extra_env)
    result = subprocess.run(
        [sys.executable, "-c", _WORLD_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


def test_compiled_hop_matches_pure_python_through_every_fallback():
    pure = _run_world({"REPRO_PURE_PYTHON": "1"})
    default = _run_world({"REPRO_PURE_PYTHON": "0"})
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
    assert pure["pool"]["released"] > 0, "the packet pool was not exercised"
    for key in ("digest", "events", "now", "links", "nodes", "injected", "tamper",
                "reordered", "pool", "tx"):
        assert default[key] == pure[key], key
