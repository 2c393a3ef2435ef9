"""The "parking lot" topology: a chain of bottlenecks.

The other classic TCP-evaluation topology besides the dumbbell: ``n``
routers R1..Rn in a chain, one *long* path crossing every bottleneck
hop, plus one *cross* flow per hop entering at R_i and leaving at
R_{i+1}.  It exposes the multi-bottleneck bias of AIMD (the long flow
competes at every hop and gets less than a per-hop fair share) and
gives the recovery schemes correlated, multi-hop loss patterns that the
single-bottleneck dumbbell cannot produce.

Host naming: the long path runs ``L_src -> L_dst``; hop ``i``'s cross
traffic runs ``X{i}_src -> X{i}_dst``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro._record import Record
from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.node import Host, Router
from repro.net.queues import DropTailQueue, PacketQueue
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus

MBPS = 1_000_000.0


class ParkingLotParams(Record):
    """Knobs for :class:`ParkingLot`."""

    n_hops: int = 3
    bottleneck_bandwidth_bps: float = 0.8 * MBPS
    bottleneck_delay: float = 0.010
    side_bandwidth_bps: float = 10.0 * MBPS
    side_delay: float = 0.001
    buffer_packets: int = 25
    side_buffer_packets: int = 1000

    def validate(self) -> None:
        if self.n_hops < 1:
            raise ConfigurationError("parking lot needs at least one hop")
        if self.buffer_packets < 1:
            raise ConfigurationError("bottleneck buffer must be >= 1 packet")


class ParkingLot:
    """Builds the chain-of-bottlenecks network.

    Parameters mirror :class:`~repro.net.topology.Dumbbell`; a custom
    ``bottleneck_queue_factory`` applies to every R_i -> R_{i+1} hop.
    """

    def __init__(
        self,
        sim: Simulator,
        params: Optional[ParkingLotParams] = None,
        bottleneck_queue_factory: Optional[Callable[[str], PacketQueue]] = None,
        trace: Optional[TraceBus] = None,
        compact_routes: bool = False,
    ):
        self.params = params or ParkingLotParams()
        self.params.validate()
        self.net = Network(sim, trace=trace)
        p = self.params
        make_queue = bottleneck_queue_factory or (
            lambda name: DropTailQueue(limit=p.buffer_packets, name=name)
        )

        self.routers: List[Router] = [
            self.net.add_router(f"R{i}") for i in range(1, p.n_hops + 2)
        ]
        self.bottlenecks = []
        for a, b in zip(self.routers, self.routers[1:]):
            forward, _ = self.net.add_duplex_link(
                a.name,
                b.name,
                p.bottleneck_bandwidth_bps,
                p.bottleneck_delay,
                queue_ab=make_queue(f"{a.name}->{b.name}"),
                queue_ba=DropTailQueue(p.side_buffer_packets, f"{b.name}->{a.name}"),
            )
            self.bottlenecks.append(forward)

        def attach_host(name: str, router: Router) -> Host:
            host = self.net.add_host(name)
            self.net.add_duplex_link(
                name,
                router.name,
                p.side_bandwidth_bps,
                p.side_delay,
                queue_ab=DropTailQueue(p.side_buffer_packets, f"{name}->{router.name}"),
                queue_ba=DropTailQueue(p.side_buffer_packets, f"{router.name}->{name}"),
            )
            return host

        self.long_src = attach_host("L_src", self.routers[0])
        self.long_dst = attach_host("L_dst", self.routers[-1])
        self.cross_pairs: List[Tuple[Host, Host]] = []
        for hop in range(1, p.n_hops + 1):
            src = attach_host(f"X{hop}_src", self.routers[hop - 1])
            dst = attach_host(f"X{hop}_dst", self.routers[hop])
            self.cross_pairs.append((src, dst))

        self.net.compute_routes(compact=compact_routes)
        self.net.validate()

    def long_path_rtt(self) -> float:
        """Base two-way propagation delay of the long path."""
        p = self.params
        one_way = 2 * p.side_delay + p.n_hops * p.bottleneck_delay
        return 2 * one_way
