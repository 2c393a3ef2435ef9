"""The three in-process workloads (they run inside bench/worker.py).

Each workload turns the plain inputs of bench/inputs.py into worlds
through the package's public functions only, exposes the timed *steps*
of every world, and summarises a finished world into exact counts, a
fingerprint and (on request) its ``state_digest`` — the raw material of
the differential checks in bench/run.py.
"""

import hashlib
import json

from repro.app.ftp import FtpSource
from repro.config import TcpConfig
from repro.experiments.common import ScenarioResult
from repro.ident import FlowTraceCollector, identify_features, load_reference_classifier
from repro.metrics.flowstats import FlowStats
from repro.models.mathis import mathis_window
from repro.net.loss import NoLoss, UniformLoss
from repro.net.node import Router
from repro.net.packet import drain_packet_pool, packet_pool, set_uid_state, uid_state
from repro.net.red import RedParams, RedQueue
from repro.net.topology import Dumbbell, DumbbellParams
from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantSuite
from repro.sim.rng import RngStream
from repro.sim.watchdog import Watchdog
from repro.snapshot import state_digest
from repro.tcp.factory import make_connection

#: Figure 7's world: fast bottleneck, RTT fixed at 200 ms, big buffer.
FIG7_RTT = 0.2
#: Variants the Mathis square-root model is compared with (Section 4).
MATHIS_VARIANTS = ("sack", "rr")


def _reset_process_state():
    """No state may leak between repeats: pin the uid sequence and empty
    the packet pool (every world gets a fresh Simulator, whose event
    pool starts empty)."""
    set_uid_state(1)
    drain_packet_pool()


class _PoolMark:
    """Deltas of the process-global packet-pool counters."""

    def __init__(self):
        self.start = dict(packet_pool().stats())

    def delta(self, key):
        return packet_pool().stats()[key] - self.start[key]


def _network_counts(sim, net, flows, pool):
    """Exact counts read from public counters after a run.  ``flows`` is
    a list of ``(sender, receiver, stats)``."""
    links = list(net.links.values())
    red = [link.queue for link in links if isinstance(link.queue, RedQueue)]
    plain = [link.queue for link in links if not isinstance(link.queue, RedQueue)]
    lossy = [link for link in links if not isinstance(link.loss, NoLoss)]
    offered = {
        id(link): link.queue.enqueues + link.queue.drops + link.loss.injected_drops
        for link in links
    }
    return {
        "sim.engine.events": sim.events_processed,
        "net.link.sends": sum(offered.values()),
        "net.link.deliveries": sum(link.packets_delivered for link in links),
        "net.queues.enqueues": sum(q.enqueues for q in plain),
        "net.queues.drops": sum(q.drops for q in plain),
        "net.red.enqueues": sum(q.enqueues for q in red),
        "net.red.early_drops": sum(q.early_drops for q in red),
        "net.red.forced_drops": sum(q.forced_drops + q.overflow_drops for q in red),
        "net.node.forwards": sum(
            node.packets_received
            for node in net.nodes.values()
            if isinstance(node, Router)
        ),
        "net.loss.decisions": sum(offered[id(link)] for link in lossy),
        "net.loss.drops": sum(link.loss.injected_drops for link in lossy),
        "net.packet.allocs": uid_state() - 1,
        "net.packet.pool_reused": pool.delta("reused"),
        "net.packet.pool_skipped": pool.delta("skipped"),
        "tcp.receiver.segments": sum(r.packets_received for _, r, _ in flows),
        "tcp.receiver.acks_sent": sum(r.acks_sent for _, r, _ in flows),
        "tcp.sender.dupacks": sum(st.dupacks_seen for _, _, st in flows),
        "tcp.sender.sends": sum(s.packets_sent for s, _, _ in flows),
        "tcp.sender.retransmits": sum(s.retransmits for s, _, _ in flows),
        "tcp.sender.timeouts": sum(s.timeouts for s, _, _ in flows),
        "tcp.rtt.samples": sum(s.rto.samples for s, _, _ in flows),
    }


def _fingerprint(counts, extra):
    payload = json.dumps([counts, extra], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _mathis_rel_err(cell, sender, stats):
    """|W - C/sqrt(p)| / (C/sqrt(p)), W being the average window from
    the flow's first loss response (the start-up overshoot is not the
    model's business) to the end of the transfer.  Reported, not
    checked: over a 2500-packet transfer it carries the loss
    realisation's luck as well as the model's error."""
    responses = [e.enter_time for e in stats.episodes[:1]] + stats.timeout_times[:1]
    since = min(responses) if responses else 0.0
    rtts = (sender.complete_time - since) / FIG7_RTT
    window = (cell["packets"] - stats.acked_at(since)) / rtts
    model = mathis_window(cell["loss_rate"])
    return abs(window - model) / model


class DumbbellWorkload:
    """``lossy_recovery`` / ``observed_recovery``: one finite transfer
    per (variant, p) cell through uniform random loss."""

    def __init__(self, inputs, observed):
        self.cells = inputs["cells"]
        self.observed = observed
        self.classifier = load_reference_classifier() if observed else None

    def build(self, cell):
        _reset_process_state()
        pool = _PoolMark()
        sim = Simulator()
        loss = UniformLoss(
            cell["loss_rate"],
            RngStream(cell["loss_seed"], f"bench-loss-{cell['loss_rate']}"),
        )
        bell = Dumbbell(
            sim,
            DumbbellParams(
                n_pairs=1,
                bottleneck_bandwidth_bps=10e6,
                bottleneck_delay=0.097,
                side_bandwidth_bps=100e6,
                buffer_packets=200,
            ),
            forward_loss=loss,
        )
        trace = bell.net.trace
        stats = FlowStats(flow_id=1)
        sender, receiver = make_connection(
            sim,
            cell["variant"],
            1,
            bell.sender(1),
            bell.receiver(1),
            config=TcpConfig(receiver_window=200, initial_ssthresh=100.0),
            observer=stats,
            trace=trace,
        )
        source = FtpSource(sim, sender, amount_packets=cell["packets"])
        scenario = ScenarioResult(
            sim=sim, dumbbell=bell, senders={1: sender}, receivers={1: receiver},
            stats={1: stats}, sources={1: source},
        )
        world = {"scenario": scenario, "pool": pool, "verdict": None}
        if self.observed:
            # The full observation stack: every trace channel gets a
            # subscriber, the suite shares its tail with the watchdog.
            stats.watch_drops(trace)
            suite = InvariantSuite.standard()
            suite.watch_queue(bell.bottleneck_queue)
            suite.install(trace)
            world["suite"] = suite
            world["collector"] = FlowTraceCollector().install(trace)
            world["watchdog"] = Watchdog(sim, {1: sender}, tail=suite.tail).arm()
        return world

    def steps(self, world, cell):
        sim = world["scenario"].sim
        if not self.observed:
            return [(cell["id"], lambda: sim.run(until=cell["horizon"]))]

        def observed_run():
            sim.run(until=cell["horizon"])
            vector = world["collector"].features(1)
            world["verdict"] = identify_features(
                vector, declared=cell["variant"], classifier=self.classifier
            )

        return [(cell["id"], observed_run)]

    def summary(self, world, cell, digest):
        scenario = world["scenario"]
        sim, sender, stats = scenario.sim, scenario.senders[1], scenario.stats[1]
        counts = _network_counts(
            sim, scenario.dumbbell.net, [(sender, scenario.receivers[1], stats)], world["pool"]
        )
        counts["sim.engine.event_pool_size"] = sim.drain_event_pool()
        counts["tcp.sender.recoveries"] = len(stats.episodes)
        failures = []
        if not sender.completed:
            failures.append("transfer not completed")
        extra = {"complete_time": repr(sender.complete_time), "final_ack": stats.final_ack}
        result = {"failures": failures}
        if self.observed:
            suite, watchdog = world["suite"], world["watchdog"]
            counts["sim.invariants.checks"] = sum(
                checker.records_checked for checker in suite.checkers
            )
            counts["ident.features.records"] = sum(
                flow.events for flow in world["collector"].flows.values()
            )
            if watchdog.triggered:
                failures.append(f"watchdog abort: {watchdog.report.reason}")
            verdict = world["verdict"]
            extra["identified"] = verdict.identified
            result["ident_match"] = verdict.identified == cell["variant"]
        if cell["variant"] in MATHIS_VARIANTS and sender.completed:
            result["oracle_rel_err"] = _mathis_rel_err(cell, sender, stats)
        result["counts"] = counts
        result["fingerprint"] = _fingerprint(counts, extra)
        if digest:
            result["digest"] = state_digest(scenario)
        return result

    @staticmethod
    def snapshot_target(world):
        return world["scenario"]

    def probe_plan(self):
        """(cell, freeze time, near fork, far fork) for the snapshot probe."""
        cell = next((c for c in self.cells if c["variant"] == "rr"), self.cells[0])
        return cell, 5.0, 0.25, 5.0


class WanWorkload:
    """``wan_red``: one many-hop RED scene, timed slice by slice."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.cells = [{"id": "wan"}]
        self.spec = SceneSpec(
            family="wan",
            topology=WaxmanParams(
                n_routers=inputs["n_routers"], graph_seed=inputs["graph_seed"]
            ),
            flows=FlowPopulation(count=inputs["flows"]),
            red=RedParams(**inputs["red"]),
            seed=inputs["scene_seed"],
            duration=inputs["duration"],
        )

    def build(self, cell):
        _reset_process_state()
        pool = _PoolMark()
        scene = build_scene(self.spec)
        scene.watchdog()
        return {"scene": scene, "pool": pool}

    def slice_ends(self):
        step, duration = self.inputs["slice"], self.inputs["duration"]
        count = int(round(duration / step))
        return [duration if i == count else i * step for i in range(1, count + 1)]

    def steps(self, world, cell):
        sim = world["scene"].sim
        return [
            (f"wan/t{end:g}", lambda end=end: sim.run(until=end))
            for end in self.slice_ends()
        ]

    def run_unsliced(self):
        """The reference the sliced run must reproduce bit for bit."""
        _reset_process_state()
        scene = build_scene(self.spec)
        scene.run()
        return state_digest(scene)

    def summary(self, world, cell, digest):
        scene = world["scene"]
        flows = [
            (sender, scene.pairs[(flow_id - 1) % len(scene.pairs)][1].agent_for(flow_id),
             scene.stats[flow_id])
            for flow_id, sender in sorted(scene.senders.items())
        ]
        counts = _network_counts(scene.sim, scene.net, flows, world["pool"])
        counts["tcp.sender.recoveries"] = sum(st.recoveries for _, _, st in flows)
        extra = {"final_acks": [st.final_ack for _, _, st in flows]}
        result = {"failures": [], "counts": counts}
        if scene.sim.stop_reason:
            result["failures"].append(f"stopped: {scene.sim.stop_reason}")
        counts["sim.engine.event_pool_size"] = scene.sim.drain_event_pool()
        result["fingerprint"] = _fingerprint(counts, extra)
        if digest:
            result["digest"] = state_digest(scene)
        return result


    @staticmethod
    def snapshot_target(world):
        return world["scene"]

    def probe_plan(self):
        duration = self.inputs["duration"]
        return self.cells[0], duration / 2.0, 0.05, duration / 4.0


def make_workload(name, inputs):
    if name == "lossy_recovery":
        return DumbbellWorkload(inputs, observed=False)
    if name == "observed_recovery":
        return DumbbellWorkload(inputs, observed=True)
    if name == "wan_red":
        return WanWorkload(inputs)
    raise ValueError(f"no in-process workload named {name!r}")
