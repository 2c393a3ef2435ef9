"""Nodes: hosts (with protocol agents) and routers (with forwarding tables).

A :class:`Host` owns protocol :class:`Agent` objects keyed by flow id;
an arriving packet is handed to the agent registered for its flow.  A
:class:`Router` looks the destination up in its forwarding table and
pushes the packet onto the corresponding output link.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro.errors import TopologyError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.slotstate import SlotState
from repro.sim.engine import CORE_BACKEND, Simulator


class Agent(SlotState):
    """Base class for protocol endpoints attached to a host.

    Subclasses (TCP senders/receivers, apps) override :meth:`receive`.
    The host calls :meth:`attach` when the agent is registered.  The two
    fields live in ``__slots__``, so every agent's checkpoint state is
    :class:`SlotState`'s mapping and starts with them, as the plain
    ``__dict__`` did; a subclass without ``__slots__`` keeps the rest of
    its fields in its instance dict.
    """

    __slots__ = ("flow_id", "host")

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self.host: Optional["Host"] = None

    def attach(self, host: "Host") -> None:
        self.host = host

    @property
    def local_name(self) -> str:
        if self.host is None:
            raise TopologyError("agent is not attached to a host")
        return self.host.name

    def send(self, packet: Packet) -> None:
        """Hand a packet to the attached host for forwarding."""
        if self.host is None:
            raise TopologyError("agent is not attached to a host")
        self.host.send(packet)

    def receive(self, packet: Packet) -> None:
        raise NotImplementedError


class Node(SlotState):
    """Common behaviour of hosts and routers.  Fields live in
    ``__slots__``; the checkpoint state is :class:`SlotState`'s mapping."""

    __slots__ = ("sim", "name", "routes", "packets_received")

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        # next-hop forwarding: destination node name -> output link
        self.routes: Dict[str, Link] = {}
        self.packets_received = 0

    def add_route(self, dst_name: str, link: Link) -> None:
        self.routes[dst_name] = link

    def send(self, packet: Packet) -> None:
        link = self.routes.get(packet.dst)
        if link is None:
            # Compact tables (Network.compute_routes(compact=True)) give
            # single-homed nodes one "*" default route instead of an
            # entry per destination.
            link = self.routes.get("*")
            if link is None:
                raise TopologyError(f"{self.name}: no route to {packet.dst}")
        link.send(packet)

    def receive(self, packet: Packet) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end host: terminates flows via registered agents."""

    __slots__ = ("_agents",)

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self._agents: Dict[int, Agent] = {}

    def register(self, agent: Agent) -> None:
        """Attach ``agent``; packets of its flow id will be delivered
        to it."""
        if agent.flow_id in self._agents:
            raise TopologyError(
                f"{self.name}: flow {agent.flow_id} already has an agent"
            )
        self._agents[agent.flow_id] = agent
        agent.attach(self)

    def agent_for(self, flow_id: int) -> Agent:
        try:
            return self._agents[flow_id]
        except KeyError:
            raise TopologyError(f"{self.name}: no agent for flow {flow_id}") from None

    def receive(self, packet: Packet) -> None:
        self.packets_received += 1
        if packet.dst != self.name:
            # Hosts do not forward; a misrouted packet is a topology bug.
            raise TopologyError(
                f"host {self.name} received packet destined for {packet.dst}"
            )
        agent = self._agents.get(packet.flow_id)  # agent_for inlined: hot
        if agent is None:
            raise TopologyError(f"{self.name}: no agent for flow {packet.flow_id}")
        agent.receive(packet)


class Router(Node):
    """A store-and-forward router (gateway)."""

    __slots__ = ()

    def receive(self, packet: Packet) -> None:
        self.packets_received += 1
        link = self.routes.get(packet.dst)  # Node.send inlined: hot
        if link is None:
            link = self.routes.get("*")  # compact-table default route
            if link is None:
                raise TopologyError(f"{self.name}: no route to {packet.dst}")
        link.send(packet)


if CORE_BACKEND == "compiled":  # pragma: no cover - compiled-core CI leg
    # The hop runs in C on the same objects: Link.send and Node.send
    # become C method descriptors, and the dispatch loop runs
    # Link._serve/_deliver events natively.  The methods above stay the
    # per-packet fallback and the pure backend (docs/PERFORMANCE.md,
    # "Cost of a hop").
    from repro.net.red import RedQueue
    from repro.sim import _engine_core

    Link.send, Node.send = _engine_core.install_hop(
        Link, Router, Simulator, DropTailQueue, RedQueue, Packet, Node, Host,
        Link.send, Link._serve, Link._deliver, Router.receive, Simulator.schedule_abs,
        DropTailQueue.enqueue, DropTailQueue.dequeue, RedQueue.enqueue, RedQueue.dequeue,
        Node.send, deque.append, deque.popleft,
    )
