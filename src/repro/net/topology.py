"""The paper's dumbbell topology (Figure 4).

``n`` sending hosts S1..Sn attach to gateway R1; ``n`` receiving hosts
K1..Kn attach to gateway R2; every connection S_i -> K_i shares the
common bottleneck R1 -> R2.  Defaults come from Table 3:

* bottleneck bandwidth 0.8 Mb/s,
* side links 10 Mb/s,
* buffer 8 packets (drop-tail experiments),
* data packets 1000 B, ACKs 40 B (enforced by the agents).

The bottleneck's one-way delay is configurable (the scanned table row
is illegible; see DESIGN.md) and the queue discipline for the bottleneck
is pluggable so the same builder serves the drop-tail (Section 3.2),
RED (Section 3.3), model-fitness (Section 4) and fairness (Section 5)
experiments.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro._record import Record, field
from repro.errors import ConfigurationError
from repro.net.loss import LossModule
from repro.net.network import Network
from repro.net.node import Host, Router
from repro.net.queues import DropTailQueue, PacketQueue
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus

MBPS = 1_000_000.0


class DumbbellParams(Record):
    """Knobs for :class:`Dumbbell` (defaults = paper Table 3)."""

    n_pairs: int = 3
    bottleneck_bandwidth_bps: float = 0.8 * MBPS
    bottleneck_delay: float = 0.050  # one-way, seconds (see DESIGN.md)
    side_bandwidth_bps: float = 10.0 * MBPS
    side_delay: float = 0.001
    buffer_packets: int = 8
    # Side-link buffers are generous so only the bottleneck drops.
    side_buffer_packets: int = 1000
    # Optional per-pair sender-side delays (seconds), for heterogeneous
    # RTT experiments; entry i applies to the S_{i+1} <-> R1 links.
    # Missing entries fall back to side_delay.
    sender_side_delays: Optional[Sequence[float]] = None
    # Give the reverse direction (R2 -> R1) the same finite queue as the
    # forward bottleneck, for two-way-traffic studies (Zhang et al.,
    # the paper's reference [22]: ACK compression and its effects).
    # When False (default) the reverse path has a generous buffer and
    # ACKs effectively never queue.
    symmetric_bottleneck: bool = False

    def validate(self) -> None:
        if self.n_pairs < 1:
            raise ConfigurationError("dumbbell needs at least one host pair")
        if self.buffer_packets < 1:
            raise ConfigurationError("bottleneck buffer must be >= 1 packet")
        if self.sender_side_delays is not None:
            if any(d < 0 for d in self.sender_side_delays):
                raise ConfigurationError("side delays must be >= 0")

    def sender_delay(self, pair_index: int) -> float:
        """Side delay of the i-th (0-based) sender pair."""
        if (
            self.sender_side_delays is not None
            and pair_index < len(self.sender_side_delays)
        ):
            return self.sender_side_delays[pair_index]
        return self.side_delay


class Dumbbell:
    """Builds and owns the Figure-4 network.

    Parameters
    ----------
    sim:
        Event engine.
    params:
        Topology knobs.
    bottleneck_queue_factory:
        Called with a name to build the R1->R2 queue; defaults to a
        drop-tail queue of ``params.buffer_packets``.  Pass a RED
        factory for Section 3.3 experiments.
    forward_loss / reverse_loss:
        Optional loss modules on the bottleneck's forward (data) and
        reverse (ACK) directions.
    """

    def __init__(
        self,
        sim: Simulator,
        params: Optional[DumbbellParams] = None,
        bottleneck_queue_factory: Optional[Callable[[str], PacketQueue]] = None,
        forward_loss: Optional[LossModule] = None,
        reverse_loss: Optional[LossModule] = None,
        trace: Optional[TraceBus] = None,
        compact_routes: bool = False,
    ):
        self.params = params or DumbbellParams()
        self.params.validate()
        self.net = Network(sim, trace=trace)
        p = self.params

        make_queue = bottleneck_queue_factory or (
            lambda name: DropTailQueue(limit=p.buffer_packets, name=name)
        )

        self.r1: Router = self.net.add_router("R1")
        self.r2: Router = self.net.add_router("R2")
        self.senders: List[Host] = []
        self.receivers: List[Host] = []

        for i in range(1, p.n_pairs + 1):
            s = self.net.add_host(f"S{i}")
            k = self.net.add_host(f"K{i}")
            self.senders.append(s)
            self.receivers.append(k)
            self.net.add_duplex_link(
                s.name,
                "R1",
                p.side_bandwidth_bps,
                p.sender_delay(i - 1),
                queue_ab=DropTailQueue(p.side_buffer_packets, f"{s.name}->R1"),
                queue_ba=DropTailQueue(p.side_buffer_packets, f"R1->{s.name}"),
            )
            self.net.add_duplex_link(
                "R2",
                k.name,
                p.side_bandwidth_bps,
                p.side_delay,
                queue_ab=DropTailQueue(p.side_buffer_packets, f"R2->{k.name}"),
                queue_ba=DropTailQueue(p.side_buffer_packets, f"{k.name}->R2"),
            )

        reverse_queue = (
            make_queue("R2->R1")
            if p.symmetric_bottleneck
            else DropTailQueue(p.side_buffer_packets, "R2->R1")
        )
        self.forward_link, self.reverse_link = self.net.add_duplex_link(
            "R1",
            "R2",
            p.bottleneck_bandwidth_bps,
            p.bottleneck_delay,
            queue_ab=make_queue("R1->R2"),
            queue_ba=reverse_queue,
            loss_ab=forward_loss,
            loss_ba=reverse_loss,
        )
        # Compact tables make thousand-pair dumbbells tractable (scene
        # builders pass True; the paper harnesses keep full tables so
        # their golden digests are untouched).
        self.net.compute_routes(compact=compact_routes)
        self.net.validate()

    @property
    def bottleneck_queue(self) -> PacketQueue:
        """The R1->R2 queue discipline (where the paper's drops happen)."""
        return self.forward_link.queue

    def sender(self, i: int) -> Host:
        """1-based access mirroring the paper's S_i naming."""
        return self.senders[i - 1]

    def receiver(self, i: int) -> Host:
        """1-based access mirroring the paper's K_i naming."""
        return self.receivers[i - 1]

    def base_rtt(self) -> float:
        """Two-way propagation delay, excluding transmission/queueing."""
        p = self.params
        return 2 * (p.side_delay + p.bottleneck_delay + p.side_delay)
