"""Turn a :class:`~repro.scenes.spec.SceneSpec` into a live world.

``build_scene`` is the single entry point: it resets the packet-uid
sequence, derives every random draw from named substreams of the
spec's seed, builds the family topology, forms flow endpoint pairs,
wires TCP connections with :class:`~repro.metrics.LeanFlowStats`
observers, and schedules the arrival process — returning a
:class:`Scene` ready for ``scene.sim.run(until=spec.duration)``.

Determinism contract: the world is a pure function of the spec.  The
uid counter is pinned, all randomness flows through per-purpose
:class:`~repro.sim.rng.RngStream` substreams (``red/<queue>``,
``flow/<id>/size``, ``flow/<id>/onoff``, ``arrivals``, ``pairs``), and
every callable attached to the world is a named picklable class — so
equal digests give bit-identical runs, serial == parallel, and a scene
survives snapshot capture/restore mid-run (pinned by
tests/scenes/test_determinism.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro._record import Record, field
from repro.app.ftp import FtpSource
from repro.app.workload import (
    FixedSize,
    JitteredArrivals,
    LognormalSizes,
    OnOffSource,
    ParetoSizes,
    PoissonArrivals,
    StaggeredArrivals,
)
from repro.config import TcpConfig
from repro.errors import ConfigurationError
from repro.metrics.flowstats import LeanFlowStats
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host
from repro.net.packet import set_uid_state
from repro.net.red import RedQueue
from repro.net.queues import PacketQueue
from repro.scenes.registry import family as lookup_family
from repro.scenes.spec import SceneSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.sim.tracing import TraceBus
from repro.sim.watchdog import Watchdog
from repro.tcp.base import TcpSender
from repro.tcp.factory import make_connection


class _SceneRedFactory:
    """Named picklable queue factory: RED on every designated
    bottleneck, each queue with its own ``red/<name>`` substream."""

    __slots__ = ("sim", "params", "root")

    def __init__(self, sim: Simulator, params, root: RngStream):
        self.sim = sim
        self.params = params
        self.root = root

    def __call__(self, name: str) -> PacketQueue:
        return RedQueue(
            self.sim, self.params, self.root.substream(f"red/{name}"), name=name
        )


class Scene(Record):
    """A built world plus handles to everything worth measuring."""

    spec: SceneSpec
    sim: Simulator
    net: Network
    pairs: List[Tuple[Host, Host]]
    senders: Dict[int, TcpSender] = field(default_factory=dict)
    stats: Dict[int, LeanFlowStats] = field(default_factory=dict)
    sources: Dict[int, FtpSource] = field(default_factory=dict)
    onoff: Dict[int, OnOffSource] = field(default_factory=dict)
    bottlenecks: List[Link] = field(default_factory=list)
    #: The single shared bottleneck the mean-field oracle applies to
    #: (None for multi-bottleneck families).
    oracle_link: Optional[Link] = None
    base_rtt: float = 0.0

    def watchdog(self, **overrides) -> Watchdog:
        """A liveness watchdog with budgets scaled to this scene."""
        return Watchdog.scaled(
            self.sim,
            self.senders,
            flows=self.spec.flows.count,
            duration=self.spec.duration,
            **overrides,
        ).arm()

    def run(self, with_watchdog: bool = True) -> "Scene":
        """Run to ``spec.duration`` (convenience for harnesses/tests)."""
        if with_watchdog:
            self.watchdog()
        self.sim.run(until=self.spec.duration)
        return self


def _size_sampler(spec: SceneSpec):
    f = spec.flows
    if f.size_dist == "infinite":
        return FixedSize(None)
    if f.size_dist == "fixed":
        return FixedSize(max(f.min_packets, int(round(f.mean_packets))))
    if f.size_dist == "pareto":
        return ParetoSizes(f.mean_packets, f.pareto_shape, f.min_packets)
    if f.size_dist == "lognormal":
        return LognormalSizes(f.mean_packets, f.lognormal_sigma, f.min_packets)
    raise ConfigurationError(f"unknown size_dist {f.size_dist!r}")


def _start_times(spec: SceneSpec, rng: RngStream) -> List[float]:
    a = spec.arrivals
    n = spec.flows.count
    if a.process == "poisson":
        return PoissonArrivals(a.rate)(rng, n)
    if a.process == "staggered":
        return StaggeredArrivals(a.stagger)(rng, n)
    # "onoff" flows all exist from (jittered) start; modulation is
    # attached per flow below.
    return JitteredArrivals(a.jitter)(rng, n)


def _form_pairs(
    hosts: List[Host], count: int, rng: RngStream
) -> List[Tuple[Host, Host]]:
    """Seeded random src/dst pairing over a fabric's host list: split a
    shuffled copy in half so every host serves one direction only (a
    host that both sends and receives would serialize on its access
    link and confound the workload)."""
    if len(hosts) < 2:
        raise ConfigurationError("scene family produced fewer than two hosts")
    shuffled = list(hosts)
    rng.shuffle(shuffled)
    half = len(shuffled) // 2
    srcs, dsts = shuffled[:half], shuffled[half : 2 * half]
    return [(srcs[i % half], dsts[(i + i // half) % half]) for i in range(count)]


def build_scene(
    spec: SceneSpec,
    sim: Optional[Simulator] = None,
    config: Optional[TcpConfig] = None,
    trace: Optional[TraceBus] = None,
) -> Scene:
    """Build the world a spec describes (see module docstring)."""
    spec.validate()
    fam = lookup_family(spec.family)
    topo_params = spec.topology if spec.topology is not None else fam.default_params()
    if config is None:
        config = spec.tcp  # spec-carried TCP knobs (delayed ACKs, ECN)
    sim = sim or Simulator()
    set_uid_state(1)
    root = RngStream(spec.seed, f"scene/{spec.family}")

    queue_factory = None
    if spec.red is not None:
        queue_factory = _SceneRedFactory(sim, spec.red, root)
    built = fam.builder(sim, topo_params, queue_factory, trace)

    pairs = built.pairs or _form_pairs(
        built.hosts, spec.flows.count, root.substream("pairs")
    )
    scene = Scene(
        spec=spec,
        sim=sim,
        net=built.net,
        pairs=pairs,
        bottlenecks=built.bottlenecks,
        oracle_link=built.oracle_link,
        base_rtt=built.base_rtt,
    )

    sampler = _size_sampler(spec)
    starts = _start_times(spec, root.substream("arrivals"))
    onoff = spec.arrivals.process == "onoff"
    for i in range(spec.flows.count):
        flow_id = i + 1
        src, dst = pairs[i % len(pairs)]
        stats = LeanFlowStats(flow_id=flow_id)
        sender, _ = make_connection(
            sim,
            spec.flows.variant,
            flow_id,
            src,
            dst,
            config=config,
            observer=stats,
            trace=trace,
        )
        scene.senders[flow_id] = sender
        scene.stats[flow_id] = stats
        if onoff:
            scene.onoff[flow_id] = OnOffSource(
                sim,
                sender,
                root.substream(f"flow/{flow_id}/onoff"),
                mean_on_packets=spec.arrivals.on_packets,
                mean_off_seconds=spec.arrivals.off_seconds,
                start_time=starts[i],
            )
        else:
            size = sampler(root.substream(f"flow/{flow_id}/size"))
            scene.sources[flow_id] = FtpSource(
                sim, sender, amount_packets=size, start_time=starts[i]
            )
    return scene
