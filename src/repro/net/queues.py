"""Queue disciplines: the abstract interface and drop-tail FIFO.

A queue discipline decides, per arriving packet, whether to enqueue or
drop, and hands packets to the link in service order.  Buffer occupancy
is measured in packets (not bytes), matching the paper: "The window size
and buffer space at the gateways are measured in number of fixed-size
packets, instead of bytes" (Section 3.1).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.slotstate import SlotState

DropCallback = Callable[[Packet, str], None]


class PacketQueue(SlotState):
    """Abstract queue discipline.

    Subclasses implement :meth:`enqueue`; the owning link calls
    :meth:`dequeue` when the output interface goes idle.  Fields live
    in ``__slots__`` (a subclass without its own gets a ``__dict__``
    for the rest); the state is the mapping of :class:`SlotState`.

    Attributes
    ----------
    limit:
        Buffer capacity in packets.
    on_drop:
        Optional callback ``(packet, reason)`` invoked for every drop.
    """

    __slots__ = ("limit", "name", "on_drop", "_items", "drops", "enqueues", "dequeues")

    def __init__(self, limit: int, name: str = "queue"):
        if limit < 1:
            raise ConfigurationError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self.name = name
        self.on_drop: Optional[DropCallback] = None
        self._items: Deque[Packet] = deque()
        self.drops = 0
        self.enqueues = 0
        self.dequeues = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    def enqueue(self, packet: Packet) -> bool:
        """Accept or drop ``packet``.  Returns True if enqueued."""
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet (None if empty)."""
        if not self._items:
            return None
        self.dequeues += 1
        return self._items.popleft()

    def _accept(self, packet: Packet) -> bool:
        self._items.append(packet)
        self.enqueues += 1
        return True

    def _drop(self, packet: Packet, reason: str) -> bool:
        self.drops += 1
        if self.on_drop is not None:
            self.on_drop(packet, reason)
        return False

    def reset_counters(self) -> None:
        """Zero the counters; a discipline with counters of its own
        (RED's drop split, fair queueing's per-flow drops) zeroes those
        too, so they keep adding up to ``drops``."""
        self.drops = 0
        self.enqueues = 0
        self.dequeues = 0


class DropTailQueue(PacketQueue):
    """FIFO with tail drop — the widely deployed gateway of Section 3.2."""

    __slots__ = ()

    def enqueue(self, packet: Packet) -> bool:
        items = self._items
        if len(items) >= self.limit:
            return self._drop(packet, "overflow")
        items.append(packet)  # _accept inlined: this is per-packet hot
        self.enqueues += 1
        return True
