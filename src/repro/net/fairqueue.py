"""Per-flow fair queueing (round-robin) gateway.

Section 2.3 of the paper conjectures: "if a fair share is given to each
flow at the routers, the loss probability of an ACK packet should be
much smaller than that of a data packet.  Because the size of ACK
packets is usually much smaller than that of data packets ... an
ACK-packet flow consumes much less network resources than a data-packet
flow."  This discipline exists to test that conjecture (see
``tests/net/test_fairqueue.py``): per-flow FIFO queues served
round-robin with a byte deficit (DRR, Shreedhar & Varghese '95), and
buffer overflow resolved by dropping from the *longest* queue — so a
40-byte ACK stream sharing a gateway with 1000-byte data streams is
essentially never the drop victim.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queues import PacketQueue


class FairQueue(PacketQueue):
    """Deficit-round-robin fair queueing over per-flow FIFOs.

    Parameters
    ----------
    limit:
        Shared buffer capacity, packets.
    quantum_bytes:
        DRR quantum added to a flow's deficit each round; the default
        of one data packet (1000 B) gives byte-fair sharing while still
        letting several small ACKs through per round.
    """

    def __init__(self, limit: int, quantum_bytes: int = 1000, name: str = "fq"):
        super().__init__(limit=limit, name=name)
        if quantum_bytes < 1:
            raise ConfigurationError("quantum must be >= 1 byte")
        self.quantum_bytes = quantum_bytes
        # OrderedDict preserves round-robin order of active flows.
        self._flows: "OrderedDict[int, Deque[Packet]]" = OrderedDict()
        self._deficits: Dict[int, int] = {}
        self._total = 0
        self.drops_by_flow: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._total

    @property
    def is_empty(self) -> bool:
        return self._total == 0

    def reset_counters(self) -> None:
        super().reset_counters()
        self.drops_by_flow.clear()

    def flow_backlog(self, flow_id: int) -> int:
        """Queued packets of one flow."""
        queue = self._flows.get(flow_id)
        return len(queue) if queue else 0

    # ------------------------------------------------------------------
    # enqueue with longest-queue drop
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        queue = self._flows.get(packet.flow_id)
        if queue is None:
            queue = deque()
            self._flows[packet.flow_id] = queue
            self._deficits.setdefault(packet.flow_id, 0)
        queue.append(packet)
        self._total += 1
        self.enqueues += 1
        if self._total > self.limit:
            victim = self._drop_from_longest()
            # The arriving packet was accepted unless its own flow held
            # the longest queue and it was the tail that got cut.
            return victim is not packet
        return True

    def _drop_from_longest(self) -> Packet:
        victim_flow = max(self._flows, key=lambda fid: len(self._flows[fid]))
        victim_queue = self._flows[victim_flow]
        victim = victim_queue.pop()  # drop from the tail
        self._total -= 1
        if not victim_queue:
            del self._flows[victim_flow]
            self._deficits[victim_flow] = 0
        self.drops_by_flow[victim_flow] = self.drops_by_flow.get(victim_flow, 0) + 1
        self._drop(victim, "fq-overflow")
        return victim

    # ------------------------------------------------------------------
    # DRR dequeue
    # ------------------------------------------------------------------
    def dequeue(self) -> Optional[Packet]:
        if self._total == 0:
            return None
        # Walk the active-flow ring until some flow's deficit covers
        # its head-of-line packet (guaranteed to terminate: each pass
        # adds a quantum to the head flow).
        while True:
            flow_id, queue = next(iter(self._flows.items()))
            head = queue[0]
            if self._deficits[flow_id] >= head.size:
                self._deficits[flow_id] -= head.size
                queue.popleft()
                self._total -= 1
                self.dequeues += 1
                if queue:
                    # Stay eligible; move to the back of the ring.
                    self._flows.move_to_end(flow_id)
                else:
                    # Idle flows forfeit their deficit (standard DRR).
                    del self._flows[flow_id]
                    self._deficits[flow_id] = 0
                return head
            self._deficits[flow_id] += self.quantum_bytes
            self._flows.move_to_end(flow_id)
