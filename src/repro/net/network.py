"""Network container: nodes + links + static shortest-path routing.

:class:`Network` is the assembly surface for arbitrary topologies.  Call
:meth:`add_host` / :meth:`add_router`, wire them with :meth:`add_link`
(or :meth:`add_duplex_link` for a symmetric pair), then
:meth:`compute_routes` to fill every node's forwarding table with
delay-weighted shortest paths.

Routing uses a self-contained Dijkstra so the core library has no hard
dependency on networkx (which remains available for analysis code).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.net.link import Link
from repro.net.loss import LossModule
from repro.net.node import Host, Node, Router
from repro.net.queues import DropTailQueue, PacketQueue
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus

QueueFactory = Callable[[str], PacketQueue]


def _default_queue_factory(name: str) -> PacketQueue:
    return DropTailQueue(limit=1000, name=name)


class Network:
    """A collection of nodes and links sharing one simulator and trace bus."""

    def __init__(self, sim: Simulator, trace: Optional[TraceBus] = None):
        self.sim = sim
        self.trace = trace if trace is not None else TraceBus()
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        # adjacency: node name -> list of (neighbour name, link)
        self._adj: Dict[str, List[Tuple[str, Link]]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        return self._add_node(Host(self.sim, name))

    def add_router(self, name: str) -> Router:
        return self._add_node(Router(self.sim, name))

    def _add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._adj[node.name] = []
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth_bps: float,
        delay: float,
        queue: Optional[PacketQueue] = None,
        loss: Optional[LossModule] = None,
    ) -> Link:
        """Add a unidirectional link ``src -> dst``."""
        if src not in self.nodes or dst not in self.nodes:
            raise TopologyError(f"link endpoints must exist: {src!r}, {dst!r}")
        name = f"{src}->{dst}"
        if name in self.links:
            raise TopologyError(f"duplicate link {name}")
        link = Link(
            self.sim,
            name,
            bandwidth_bps,
            delay,
            queue if queue is not None else _default_queue_factory(name),
            trace=self.trace,
            loss=loss,
        )
        link.connect(self.nodes[dst])
        self.links[name] = link
        self._adj[src].append((dst, link))
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        delay: float,
        queue_ab: Optional[PacketQueue] = None,
        queue_ba: Optional[PacketQueue] = None,
        loss_ab: Optional[LossModule] = None,
        loss_ba: Optional[LossModule] = None,
    ) -> Tuple[Link, Link]:
        """Add a symmetric pair of links between ``a`` and ``b``."""
        forward = self.add_link(a, b, bandwidth_bps, delay, queue_ab, loss_ab)
        backward = self.add_link(b, a, bandwidth_bps, delay, queue_ba, loss_ba)
        return forward, backward

    def link(self, src: str, dst: str) -> Link:
        try:
            return self.links[f"{src}->{dst}"]
        except KeyError:
            raise TopologyError(f"no link {src}->{dst}") from None

    def host(self, name: str) -> Host:
        node = self.nodes.get(name)
        if not isinstance(node, Host):
            raise TopologyError(f"{name!r} is not a host")
        return node

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def compute_routes(self, compact: bool = False) -> None:
        """Fill every node's forwarding table with next hops along
        delay-weighted shortest paths (Dijkstra from every source).

        With ``compact=True`` (the big-scene path used by
        :mod:`repro.scenes`), a node with exactly one outgoing link gets
        a single ``"*"`` default route instead of an explicit entry per
        destination — on a thousand-pair dumbbell that turns ~2000
        Dijkstra passes and ~4M route entries into 2 passes and 2 full
        tables.  Forwarding falls back to ``"*"`` on a table miss (see
        :meth:`~repro.net.node.Node.send`).  The shortcut is only
        exact when every destination is reachable, so it applies only
        when the graph is strongly connected; otherwise this silently
        falls back to full tables (where unreachable pairs get no route
        and raise on use, as before).
        """
        compact = compact and self._strongly_connected()
        for origin in self.nodes:
            node = self.nodes[origin]
            if compact:
                out = self._adj[origin]
                if len(out) == 1:
                    node.routes.clear()
                    node.routes["*"] = out[0][1]
                    continue
            dist, first_link = self._dijkstra(origin)
            node.routes.clear()
            for dst, link in first_link.items():
                if dst != origin:
                    node.add_route(dst, link)
            # Sanity: hosts should be able to reach every other node that
            # is reachable in the graph; unreachable pairs simply get no
            # route and raise on use.
            del dist

    def _strongly_connected(self) -> bool:
        """True when every node reaches every other node (one forward
        and one reverse sweep from an arbitrary origin)."""
        if not self.nodes:
            return False
        reverse: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for src, out in self._adj.items():
            for dst, _link in out:
                reverse[dst].append(src)
        origin = next(iter(self.nodes))
        forward_adj = {src: [dst for dst, _ in out] for src, out in self._adj.items()}
        for adjacency in (forward_adj, reverse):
            seen = {origin}
            frontier = [origin]
            while frontier:
                u = frontier.pop()
                for v in adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
            if len(seen) != len(self.nodes):
                return False
        return True

    def _dijkstra(self, origin: str) -> Tuple[Dict[str, float], Dict[str, Link]]:
        dist: Dict[str, float] = {origin: 0.0}
        first_link: Dict[str, Link] = {}
        serial = 0  # heap tiebreaker; Link objects are not orderable
        heap: List[Tuple[float, str, int, Optional[Link]]] = [(0.0, origin, serial, None)]
        visited: set = set()
        visited_add = visited.add
        dist_get = dist.get
        adj = self._adj
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            d, u, _, via = heappop(heap)
            if u in visited:
                continue
            visited_add(u)
            if via is not None:
                first_link[u] = via
            for v, link in adj[u]:
                # Weight = propagation delay + a small constant so hop
                # count breaks ties deterministically.  (Keep the
                # two-step sum: its rounding decides near-ties.)
                w = link.delay + 1e-9
                nd = d + w
                known = dist_get(v)
                if known is None or nd < known - 1e-15:
                    dist[v] = nd
                    serial += 1
                    heappush(heap, (nd, v, serial, via if via is not None else link))
        return dist, first_link

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any link is dangling."""
        for link in self.links.values():
            if link.dst is None:
                raise ConfigurationError(f"link {link.name} is not connected")
