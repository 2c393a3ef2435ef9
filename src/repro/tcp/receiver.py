"""TCP receiver agents.

:class:`TcpReceiver` implements the behaviour the paper assumes:

* cumulative ACKs carrying the *next expected* packet number;
* "upon the arrival of an out-of-sequence data packet at the receiver,
  the delayed acknowledgment mechanism is off: the receiver immediately
  sends out an ACK for each received out-of-sequence data packet"
  (Section 2.2) — we go further and default to ACK-per-packet for
  in-order data too, matching Section 3.1 ("The receiver sends an ACK
  for every data packet it received");
* an optional RFC 1122 delayed-ACK mode is provided for experiments
  beyond the paper (in-order data only; out-of-order always ACKs
  immediately, as RFC 5681 requires).

:class:`SackReceiver` additionally reports up to ``sack_block_limit``
SACK blocks (RFC 2018 ordering: the block containing the most recently
received packet first).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.config import TcpConfig
from repro.errors import TopologyError
from repro.net.node import Agent
from repro.net.packet import DATA, Packet, SackBlock, ack_packet, merge_ranges
from repro.sim.engine import Simulator
from repro.sim.timers import Timer


class TcpReceiver(Agent):
    """Cumulative-ACK receiver."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        config: Optional[TcpConfig] = None,
    ):
        super().__init__(flow_id)
        self.sim = sim
        self.config = config or TcpConfig()
        self.config.validate()
        self.rcv_next = 0
        self._out_of_order: Set[int] = set()
        self._peer: Optional[str] = None
        self.packets_received = 0
        self.duplicates_received = 0
        self.acks_sent = 0
        self._delack_pending = 0
        self._delack_timer = Timer(sim, self._delack_fire)
        self._ecn_echo_pending = False
        self.ecn_marks_seen = 0

    @property
    def delivered(self) -> int:
        """Packets delivered in order to the application so far."""
        return self.rcv_next

    @property
    def buffered_out_of_order(self) -> int:
        return len(self._out_of_order)

    def receive(self, packet: Packet) -> None:
        if packet.kind != DATA:
            return  # receivers ignore stray ACKs
        self._peer = packet.src
        self.packets_received += 1
        if packet.ecn_marked:
            # Simplified RFC 3168: echo the congestion mark on the ACK
            # this packet generates (no CWR handshake modelled).
            self._ecn_echo_pending = True
            self.ecn_marks_seen += 1
        seqno = packet.seqno
        if seqno == self.rcv_next:
            # RFC 5681: an ACK must be generated immediately when the
            # arriving segment fills in all or part of a sequence gap —
            # only gap-free in-order data may take the delayed path.
            filled_gap = bool(self._out_of_order)
            self.rcv_next += 1
            while self.rcv_next in self._out_of_order:
                self._out_of_order.discard(self.rcv_next)
                self.rcv_next += 1
            # RFC 3168 section 6.1.3: a congestion-experienced mark must
            # reach the sender without waiting out the delayed-ACK timer,
            # else the congestion response lags by up to the full timeout.
            if filled_gap or self._ecn_echo_pending or not self.config.delayed_ack:
                self._send_ack()
            else:
                self._ack_in_order()
        elif seqno < self.rcv_next or seqno in self._out_of_order:
            # Duplicate (e.g. a spurious retransmission): ACK immediately.
            self.duplicates_received += 1
            self._send_ack()
        else:
            # Out of order: buffer and ACK immediately (dup ACK).
            self._out_of_order.add(seqno)
            self._send_ack()

    def _ack_in_order(self) -> None:
        """Gap-free in-order data under delayed ACK."""
        self._delack_pending += 1
        if self._delack_pending >= 2:
            self._delack_flush()
        elif not self._delack_timer.pending:
            self._delack_timer.start(self.config.delayed_ack_timeout)

    def _delack_fire(self) -> None:
        if self._delack_pending:
            self._delack_flush()

    def _delack_flush(self) -> None:
        self._delack_pending = 0
        self._delack_timer.stop()
        self._send_ack()

    def _sack_blocks(self) -> List[SackBlock]:
        return []

    def _send_ack(self) -> None:
        if self._peer is None:
            return
        host = self.host
        if host is None:
            raise TopologyError("agent is not attached to a host")
        # Any explicit ACK also covers whatever a pending delayed ACK
        # would have acknowledged.  The delayed-ACK timer is armed
        # exactly while one is pending.
        if self._delack_pending:
            self._delack_pending = 0
            self._delack_timer.stop()
        # Positional (CPython 3.11 specialises no call with keywords).
        # Both receivers report no SACK blocks without held data.
        ack = ack_packet(
            self.flow_id,
            host.name,
            self._peer,
            self.rcv_next,
            self.config.ack_bytes,
            self._sack_blocks() if self._out_of_order else None,
        )
        if self._ecn_echo_pending:
            ack.ecn_echo = True
            self._ecn_echo_pending = False
        ack.sent_at = self.sim.now
        self.acks_sent += 1
        host.send(ack)


class SackReceiver(TcpReceiver):
    """Receiver that attaches SACK blocks to every ACK."""

    def __init__(self, sim: Simulator, flow_id: int, config: Optional[TcpConfig] = None):
        super().__init__(sim, flow_id, config)
        self._last_seqno: Optional[int] = None

    def receive(self, packet: Packet) -> None:
        if packet.kind == DATA:
            self._last_seqno = packet.seqno
        super().receive(packet)

    def _sack_blocks(self) -> List[SackBlock]:
        """Up to ``sack_block_limit`` blocks over the held runs.  RFC
        2018: the run containing the most recently received packet
        first, then the others from the highest down.  Only the blocks
        returned are built."""
        held = self._out_of_order
        if not held:
            return []
        limit = self.config.sack_block_limit
        last = self._last_seqno
        if last is None:  # no packet to put first: the lowest runs, ascending
            ranges = merge_ranges([(s, s + 1) for s in held])[:limit]
            return [SackBlock(start, end) for start, end in ranges]
        blocks = []
        own = None
        if last in held:
            own = last
            while own - 1 in held:
                own -= 1
            end = last + 1
            while end in held:
                end += 1
            blocks.append(SackBlock(own, end))
        # The other runs, walked down from the highest held packet.
        descending = iter(sorted(held, reverse=True))
        start = next(descending)
        end = start + 1
        for seqno in descending:
            if seqno == start - 1:
                start = seqno
                continue
            if start != own:
                if len(blocks) == limit:
                    return blocks
                blocks.append(SackBlock(start, end))
            start, end = seqno, seqno + 1
        if start != own and len(blocks) < limit:
            blocks.append(SackBlock(start, end))
        return blocks
