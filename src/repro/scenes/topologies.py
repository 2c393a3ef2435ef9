"""Scene topology builders: dumbbell, parking lot, fat-tree, WAN.

Every builder has the same shape — ``build(sim, params, queue_factory,
trace)`` returning a :class:`BuiltTopology` — so the registry can treat
families uniformly.  ``queue_factory`` (name -> PacketQueue) applies to
the family's *designated bottleneck* queues (the dumbbell's R1->R2, the
parking lot's chain hops, every switch-switch / router-router link in
the fabric families); ``None`` keeps each family's drop-tail default.

The dumbbell and parking lot reuse the existing
:class:`~repro.net.topology.Dumbbell` / :class:`~repro.net.parkinglot.
ParkingLot` builders (with compact routing so thousands of pairs stay
tractable); the k-ary fat-tree and the seeded Waxman WAN are new and
assemble straight on the :class:`~repro.net.network.Network` layer.
Topology randomness (WAN placement/edges) derives entirely from the
params (``graph_seed``), never from ambient state, so equal params
always build the identical graph.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from repro._record import Record, field
from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host
from repro.net.parkinglot import ParkingLot, ParkingLotParams
from repro.net.queues import DropTailQueue, PacketQueue
from repro.net.topology import Dumbbell, DumbbellParams, MBPS
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.sim.tracing import TraceBus

QueueFactory = Callable[[str], PacketQueue]


class BuiltTopology(Record):
    """What a family builder hands back to :func:`repro.scenes.build_scene`.

    ``pairs`` is the natural (src, dst) endpoint list for families that
    have one (dumbbell, parking lot); fabric families return ``hosts``
    instead and the scene builder forms seeded pairs.  ``oracle_link``
    (with ``base_rtt``) is set only when the family has a single shared
    bottleneck the mean-field oracle applies to.
    """

    net: Network
    pairs: List[Tuple[Host, Host]] = field(default_factory=list)
    hosts: List[Host] = field(default_factory=list)
    bottlenecks: List[Link] = field(default_factory=list)
    oracle_link: Optional[Link] = None
    base_rtt: float = 0.0


# ----------------------------------------------------------------------
# dumbbell / parking lot (wrappers over the existing builders)
# ----------------------------------------------------------------------


def build_dumbbell(
    sim: Simulator,
    params: DumbbellParams,
    queue_factory: Optional[QueueFactory] = None,
    trace: Optional[TraceBus] = None,
) -> BuiltTopology:
    """The paper's Figure-4 dumbbell, generalized to thousands of pairs."""
    bell = Dumbbell(
        sim,
        params,
        bottleneck_queue_factory=queue_factory,
        trace=trace,
        compact_routes=True,
    )
    return BuiltTopology(
        net=bell.net,
        pairs=list(zip(bell.senders, bell.receivers)),
        bottlenecks=[bell.forward_link],
        oracle_link=bell.forward_link,
        base_rtt=bell.base_rtt(),
    )


def build_parkinglot(
    sim: Simulator,
    params: ParkingLotParams,
    queue_factory: Optional[QueueFactory] = None,
    trace: Optional[TraceBus] = None,
) -> BuiltTopology:
    """The chain-of-bottlenecks parking lot: one long pair plus one
    cross pair per hop (flows beyond the pair count share pairs)."""
    lot = ParkingLot(
        sim,
        params,
        bottleneck_queue_factory=queue_factory,
        trace=trace,
        compact_routes=True,
    )
    return BuiltTopology(
        net=lot.net,
        pairs=[(lot.long_src, lot.long_dst)] + list(lot.cross_pairs),
        bottlenecks=list(lot.bottlenecks),
        # Multiple bottlenecks with different competition per hop: the
        # single-queue mean-field oracle does not apply.
        oracle_link=None,
        base_rtt=lot.long_path_rtt(),
    )


# ----------------------------------------------------------------------
# mobile dumbbell (time-varying wireless bottleneck)
# ----------------------------------------------------------------------


class MobileParams(Record):
    """A dumbbell whose bottleneck is a mobile wireless link: the rate
    follows a seeded :class:`~repro.net.varlink.RateSchedule` (uniform
    spread around the mean, re-drawn every ``rate_interval`` seconds)
    with periodic deep handover outages, buffered bufferbloat-style
    (``bufferbloat_multiple`` x the mean-rate BDP).

    ``bottleneck_bandwidth_bps`` is the schedule *mean*; the harnesses
    use it as the nominal capacity.  The schedule covers
    ``schedule_duration`` seconds — beyond it the last drawn rate
    holds.  Fully determined by the params (``schedule_seed``
    included): same params, same channel trace.
    """

    n_pairs: int = 3
    bottleneck_bandwidth_bps: float = 2.0 * MBPS
    bottleneck_delay: float = 0.030
    side_bandwidth_bps: float = 10.0 * MBPS
    side_delay: float = 0.001
    spread: float = 0.6
    rate_interval: float = 1.0
    handover_period: float = 20.0
    handover_duration: float = 0.4
    schedule_seed: int = 0
    schedule_duration: float = 60.0
    bufferbloat_multiple: float = 10.0

    def validate(self) -> None:
        if self.n_pairs < 1:
            raise ConfigurationError("mobile dumbbell needs at least one pair")
        if self.bottleneck_bandwidth_bps <= 0:
            raise ConfigurationError("mean bandwidth must be positive")
        if not 0 <= self.spread < 1:
            raise ConfigurationError("spread must be in [0, 1)")
        if self.schedule_duration <= 0 or self.rate_interval <= 0:
            raise ConfigurationError("schedule knobs must be positive")
        if self.bufferbloat_multiple <= 0:
            raise ConfigurationError("bufferbloat_multiple must be positive")


def build_mobile(
    sim: Simulator,
    params: MobileParams,
    queue_factory: Optional[QueueFactory] = None,
    trace: Optional[TraceBus] = None,
) -> BuiltTopology:
    """The mobile-link family (docs/SCENARIOS.md): a dumbbell with a
    time-varying bottleneck.  No oracle link — the mean-field fixed
    point assumes a constant service rate."""
    from repro.net.varlink import RateSchedule, bufferbloat_limit

    params.validate()
    base_rtt = 2 * (params.side_delay + params.bottleneck_delay + params.side_delay)
    bell = Dumbbell(
        sim,
        DumbbellParams(
            n_pairs=params.n_pairs,
            bottleneck_bandwidth_bps=params.bottleneck_bandwidth_bps,
            bottleneck_delay=params.bottleneck_delay,
            side_bandwidth_bps=params.side_bandwidth_bps,
            side_delay=params.side_delay,
            buffer_packets=bufferbloat_limit(
                params.bottleneck_bandwidth_bps,
                base_rtt,
                params.bufferbloat_multiple,
            ),
        ),
        bottleneck_queue_factory=queue_factory,
        trace=trace,
        compact_routes=True,
    )
    RateSchedule.mobile(
        params.schedule_seed,
        duration=params.schedule_duration,
        mean_bps=params.bottleneck_bandwidth_bps,
        interval=params.rate_interval,
        spread=params.spread,
        handover_period=params.handover_period,
        handover_duration=params.handover_duration,
        name="scene-mobile",
    ).apply(bell.forward_link)
    return BuiltTopology(
        net=bell.net,
        pairs=list(zip(bell.senders, bell.receivers)),
        bottlenecks=[bell.forward_link],
        oracle_link=None,
        base_rtt=base_rtt,
    )


# ----------------------------------------------------------------------
# k-ary fat-tree
# ----------------------------------------------------------------------


class FatTreeParams(Record):
    """A k-ary fat-tree (Al-Fares et al.): ``k`` pods of ``k/2`` edge
    and ``k/2`` aggregation switches, ``(k/2)^2`` core switches, and
    ``k^3/4`` hosts.  ``k`` must be even."""

    k: int = 4
    host_bandwidth_bps: float = 100.0 * MBPS
    fabric_bandwidth_bps: float = 10.0 * MBPS
    host_delay: float = 0.0005
    fabric_delay: float = 0.001
    buffer_packets: int = 50
    host_buffer_packets: int = 1000

    def validate(self) -> None:
        if self.k < 2 or self.k % 2:
            raise ConfigurationError("fat-tree k must be even and >= 2")
        if self.buffer_packets < 1 or self.host_buffer_packets < 1:
            raise ConfigurationError("buffers must be >= 1 packet")


def build_fattree(
    sim: Simulator,
    params: FatTreeParams,
    queue_factory: Optional[QueueFactory] = None,
    trace: Optional[TraceBus] = None,
) -> BuiltTopology:
    params.validate()
    net = Network(sim, trace=trace)
    p = params
    half = p.k // 2
    make_queue = queue_factory or (
        lambda name: DropTailQueue(limit=p.buffer_packets, name=name)
    )

    def fabric_link(a: str, b: str) -> None:
        net.add_duplex_link(
            a,
            b,
            p.fabric_bandwidth_bps,
            p.fabric_delay,
            queue_ab=make_queue(f"{a}->{b}"),
            queue_ba=make_queue(f"{b}->{a}"),
        )

    cores = [net.add_router(f"C{i}") for i in range(half * half)]
    hosts: List[Host] = []
    bottlenecks: List[Link] = []
    for pod in range(p.k):
        aggs = [net.add_router(f"A{pod}_{j}") for j in range(half)]
        edges = [net.add_router(f"E{pod}_{j}") for j in range(half)]
        for agg in aggs:
            for edge in edges:
                fabric_link(agg.name, edge.name)
        # Aggregation switch j uplinks to core group j.
        for j, agg in enumerate(aggs):
            for c in range(half):
                fabric_link(cores[j * half + c].name, agg.name)
        for j, edge in enumerate(edges):
            for h in range(half):
                host = net.add_host(f"H{pod}_{j}_{h}")
                hosts.append(host)
                net.add_duplex_link(
                    host.name,
                    edge.name,
                    p.host_bandwidth_bps,
                    p.host_delay,
                    queue_ab=DropTailQueue(
                        p.host_buffer_packets, f"{host.name}->{edge.name}"
                    ),
                    queue_ba=DropTailQueue(
                        p.host_buffer_packets, f"{edge.name}->{host.name}"
                    ),
                )
    net.compute_routes(compact=True)
    net.validate()
    # Core uplinks are the fabric's contention points under all-to-all
    # traffic; record the core-facing direction of each for monitors.
    for name, link in net.links.items():
        if name.startswith("C") and "->A" in name:
            bottlenecks.append(link)
    return BuiltTopology(net=net, hosts=hosts, bottlenecks=bottlenecks)


# ----------------------------------------------------------------------
# seeded Waxman WAN
# ----------------------------------------------------------------------


class WaxmanParams(Record):
    """A random WAN graph (Waxman '88): ``n_routers`` placed uniformly
    in the unit square, an edge between routers ``u, v`` at distance
    ``d`` with probability ``alpha * exp(-d / (beta * L))`` (``L`` the
    maximum distance), repaired to a connected graph by joining each
    stray component at its closest node pair.  ``hosts_per_router``
    access hosts hang off every router.  Fully determined by the
    params (``graph_seed`` included) — same params, same graph.
    """

    n_routers: int = 60
    hosts_per_router: int = 1
    alpha: float = 0.2
    beta: float = 0.35
    graph_seed: int = 0
    core_bandwidth_bps: float = 10.0 * MBPS
    access_bandwidth_bps: float = 100.0 * MBPS
    #: Propagation delay per unit of placement distance, seconds.
    delay_scale: float = 0.02
    min_delay: float = 0.0005
    access_delay: float = 0.0005
    buffer_packets: int = 50
    host_buffer_packets: int = 1000

    def validate(self) -> None:
        if self.n_routers < 2:
            raise ConfigurationError("WAN needs at least two routers")
        if self.hosts_per_router < 0:
            raise ConfigurationError("hosts_per_router must be >= 0")
        if not 0 < self.alpha <= 1 or self.beta <= 0:
            raise ConfigurationError("need 0 < alpha <= 1 and beta > 0")
        if self.buffer_packets < 1 or self.host_buffer_packets < 1:
            raise ConfigurationError("buffers must be >= 1 packet")


def build_wan(
    sim: Simulator,
    params: WaxmanParams,
    queue_factory: Optional[QueueFactory] = None,
    trace: Optional[TraceBus] = None,
) -> BuiltTopology:
    params.validate()
    p = params
    net = Network(sim, trace=trace)
    make_queue = queue_factory or (
        lambda name: DropTailQueue(limit=p.buffer_packets, name=name)
    )
    rng = RngStream(p.graph_seed, "waxman")
    n = p.n_routers
    xs = [rng.random() for _ in range(n)]
    ys = [rng.random() for _ in range(n)]

    def dist(i: int, j: int) -> float:
        return math.hypot(xs[i] - xs[j], ys[i] - ys[j])

    routers = [net.add_router(f"W{i}") for i in range(n)]

    def core_link(i: int, j: int) -> None:
        a, b = routers[i].name, routers[j].name
        delay = max(p.min_delay, dist(i, j) * p.delay_scale)
        net.add_duplex_link(
            a,
            b,
            p.core_bandwidth_bps,
            delay,
            queue_ab=make_queue(f"{a}->{b}"),
            queue_ba=make_queue(f"{b}->{a}"),
        )

    scale = p.beta * math.sqrt(2.0)
    edges: List[Tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.bernoulli(p.alpha * math.exp(-dist(i, j) / scale)):
                edges.append((i, j))
                core_link(i, j)

    # Connectivity repair: union-find over the drawn edges, then join
    # every stray component to the component of router 0 at the
    # closest node pair (ties broken by index — fully deterministic).
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    while True:
        main = find(0)
        stray = [i for i in range(n) if find(i) != main]
        if not stray:
            break
        inside = [i for i in range(n) if find(i) == main]
        best = min(
            ((dist(i, j), i, j) for i in inside for j in stray),
            key=lambda t: (t[0], t[1], t[2]),
        )
        _, i, j = best
        core_link(i, j)
        parent[find(i)] = find(j)

    hosts: List[Host] = []
    for i in range(n):
        for h in range(p.hosts_per_router):
            host = net.add_host(f"H{i}_{h}")
            hosts.append(host)
            net.add_duplex_link(
                host.name,
                routers[i].name,
                p.access_bandwidth_bps,
                p.access_delay,
                queue_ab=DropTailQueue(
                    p.host_buffer_packets, f"{host.name}->{routers[i].name}"
                ),
                queue_ba=DropTailQueue(
                    p.host_buffer_packets, f"{routers[i].name}->{host.name}"
                ),
            )
    net.compute_routes(compact=True)
    net.validate()
    core_links = [
        link
        for name, link in net.links.items()
        if name.startswith("W") and "->W" in name
    ]
    return BuiltTopology(net=net, hosts=hosts, bottlenecks=core_links)
