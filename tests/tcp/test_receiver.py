"""Unit tests for the TCP receivers (plain + SACK)."""

import pytest

from repro.config import TcpConfig
from repro.net.packet import data_packet
from repro.sim.engine import Simulator
from repro.tcp.receiver import SackReceiver, TcpReceiver


class StubHost:
    def __init__(self, name="K1"):
        self.name = name
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)


def make_receiver(cls=TcpReceiver, config=None):
    sim = Simulator()
    receiver = cls(sim, flow_id=1, config=config)
    host = StubHost()
    receiver.attach(host)
    return sim, receiver, host


def deliver(receiver, seqno):
    receiver.receive(data_packet(1, "S1", "K1", seqno))


class TestInOrder:
    def test_ack_every_packet(self):
        _, receiver, host = make_receiver()
        for i in range(3):
            deliver(receiver, i)
        assert [p.ackno for p in host.sent] == [1, 2, 3]

    def test_acks_addressed_to_sender(self):
        _, receiver, host = make_receiver()
        deliver(receiver, 0)
        ack = host.sent[0]
        assert ack.src == "K1" and ack.dst == "S1"
        assert ack.size == 40

    def test_delivered_counts(self):
        _, receiver, host = make_receiver()
        for i in range(5):
            deliver(receiver, i)
        assert receiver.delivered == 5

    def test_ignores_stray_acks(self):
        _, receiver, host = make_receiver()
        from repro.net.packet import ack_packet

        receiver.receive(ack_packet(1, "S1", "K1", 3))
        assert host.sent == []

    def test_data_without_a_host_raises_topology_error(self):
        from repro.errors import TopologyError

        receiver = TcpReceiver(Simulator(), flow_id=1)
        with pytest.raises(TopologyError, match="not attached"):
            deliver(receiver, 0)


class TestOutOfOrder:
    def test_gap_generates_dup_acks(self):
        _, receiver, host = make_receiver()
        deliver(receiver, 0)
        deliver(receiver, 2)  # 1 missing
        deliver(receiver, 3)
        assert [p.ackno for p in host.sent] == [1, 1, 1]
        assert len(receiver._out_of_order) == 2

    def test_hole_fill_jumps_cumulative_ack(self):
        _, receiver, host = make_receiver()
        deliver(receiver, 0)
        deliver(receiver, 2)
        deliver(receiver, 3)
        deliver(receiver, 1)  # fills the hole
        assert host.sent[-1].ackno == 4
        assert not receiver._out_of_order

    def test_duplicate_data_reacked(self):
        _, receiver, host = make_receiver()
        deliver(receiver, 0)
        deliver(receiver, 0)
        assert [p.ackno for p in host.sent] == [1, 1]
        assert receiver.duplicates_received == 1

    def test_duplicate_out_of_order_data(self):
        _, receiver, host = make_receiver()
        deliver(receiver, 2)
        deliver(receiver, 2)
        assert receiver.duplicates_received == 1
        assert [p.ackno for p in host.sent] == [0, 0]

    def test_multiple_holes(self):
        _, receiver, host = make_receiver()
        for seqno in [0, 2, 4, 6]:
            deliver(receiver, seqno)
        assert host.sent[-1].ackno == 1
        deliver(receiver, 1)
        assert host.sent[-1].ackno == 3
        deliver(receiver, 3)
        assert host.sent[-1].ackno == 5
        deliver(receiver, 5)
        assert host.sent[-1].ackno == 7


class TestDelayedAck:
    def test_every_other_packet_acked(self):
        config = TcpConfig(delayed_ack=True)
        sim, receiver, host = make_receiver(config=config)
        deliver(receiver, 0)
        assert host.sent == []  # first in-order packet held back
        deliver(receiver, 1)
        assert [p.ackno for p in host.sent] == [2]

    def test_timer_flushes_single_packet(self):
        config = TcpConfig(delayed_ack=True, delayed_ack_timeout=0.2)
        sim, receiver, host = make_receiver(config=config)
        deliver(receiver, 0)
        sim.run(until=1.0)
        assert [p.ackno for p in host.sent] == [1]

    def test_out_of_order_acks_immediately(self):
        config = TcpConfig(delayed_ack=True)
        _, receiver, host = make_receiver(config=config)
        deliver(receiver, 2)
        assert len(host.sent) == 1  # immediate dup ACK despite delack

    def test_out_of_order_flushes_pending(self):
        config = TcpConfig(delayed_ack=True)
        sim, receiver, host = make_receiver(config=config)
        deliver(receiver, 0)  # held
        deliver(receiver, 2)  # ooo: must emit an ACK covering 0 too
        assert [p.ackno for p in host.sent] == [1]
        sim.run(until=1.0)
        assert len(host.sent) == 1  # nothing further pending

    def test_gap_fill_acks_immediately(self):
        """RFC 5681: a segment filling a sequence gap generates an
        immediate ACK even with delayed ACKs enabled."""
        config = TcpConfig(delayed_ack=True)
        sim, receiver, host = make_receiver(config=config)
        deliver(receiver, 1)  # gap at 0 -> immediate dup ACK(0)
        host.sent.clear()
        deliver(receiver, 0)  # fills the gap -> must ACK 2 immediately
        assert [p.ackno for p in host.sent] == [2]

    def test_partial_gap_fill_acks_immediately(self):
        config = TcpConfig(delayed_ack=True)
        sim, receiver, host = make_receiver(config=config)
        deliver(receiver, 1)
        deliver(receiver, 3)
        host.sent.clear()
        deliver(receiver, 0)  # fills part of the gap (3 still waits on 2)
        assert [p.ackno for p in host.sent] == [2]


class TestEcnDelayedAck:
    """RFC 3168: congestion-experienced marks must not idle behind the
    delayed-ACK timer — the echo rides an immediate ACK."""

    def deliver_marked(self, receiver, seqno):
        packet = data_packet(1, "S1", "K1", seqno)
        packet.ecn_marked = True
        receiver.receive(packet)

    def test_marked_in_order_packet_acks_immediately(self):
        config = TcpConfig(delayed_ack=True, ecn_enabled=True)
        sim, receiver, host = make_receiver(config=config)
        self.deliver_marked(receiver, 0)
        assert [p.ackno for p in host.sent] == [1]
        assert host.sent[0].ecn_echo

    def test_mark_flushes_pending_delayed_ack(self):
        config = TcpConfig(delayed_ack=True, ecn_enabled=True)
        sim, receiver, host = make_receiver(config=config)
        deliver(receiver, 0)  # unmarked: held back
        assert host.sent == []
        self.deliver_marked(receiver, 1)  # mark: flush now, echo set
        assert [p.ackno for p in host.sent] == [2]
        assert host.sent[0].ecn_echo
        sim.run(until=1.0)
        assert len(host.sent) == 1  # nothing left on the timer

    def test_echo_latency_not_timer_bound(self):
        """Pre-fix, a solitary marked packet waited out the full
        delayed-ACK timeout (200 ms) before the echo went out."""
        config = TcpConfig(
            delayed_ack=True, ecn_enabled=True, delayed_ack_timeout=0.2
        )
        sim, receiver, host = make_receiver(config=config)
        self.deliver_marked(receiver, 0)
        sim.run(until=0.05)  # well inside the timeout window
        assert len(host.sent) == 1 and host.sent[0].ecn_echo

    def test_unmarked_traffic_still_delays(self):
        config = TcpConfig(delayed_ack=True, ecn_enabled=True)
        sim, receiver, host = make_receiver(config=config)
        deliver(receiver, 0)
        assert host.sent == []  # no mark, normal delayed-ACK holdback

    def test_sack_receiver_inherits_immediate_echo(self):
        config = TcpConfig(delayed_ack=True, ecn_enabled=True)
        sim, receiver, host = make_receiver(SackReceiver, config=config)
        self.deliver_marked(receiver, 0)
        assert [p.ackno for p in host.sent] == [1]
        assert host.sent[0].ecn_echo


class TestSackDelayedAck:
    """SACK receiver with delayed ACKs: blocks only ever describe the
    out-of-order buffer, and the immediate-ACK rules win over delay."""

    def make(self):
        config = TcpConfig(delayed_ack=True, delayed_ack_timeout=0.2)
        return make_receiver(SackReceiver, config=config)

    def test_in_order_data_still_delays(self):
        sim, receiver, host = self.make()
        deliver(receiver, 0)
        assert host.sent == []
        deliver(receiver, 1)
        assert [p.ackno for p in host.sent] == [2]
        assert host.sent[0].sack_blocks == []

    def test_timer_flush_carries_no_stale_blocks(self):
        sim, receiver, host = self.make()
        deliver(receiver, 0)
        sim.run(until=1.0)
        assert [p.ackno for p in host.sent] == [1]
        assert host.sent[0].sack_blocks == []

    def test_out_of_order_flushes_pending_with_blocks(self):
        sim, receiver, host = self.make()
        deliver(receiver, 0)  # held back
        deliver(receiver, 2)  # immediate; must also cover seqno 0
        assert [p.ackno for p in host.sent] == [1]
        block = host.sent[0].sack_blocks[0]
        assert (block.start, block.end) == (2, 3)
        sim.run(until=1.0)
        assert len(host.sent) == 1  # nothing left on the timer

    def test_gap_fill_acks_immediately_with_remaining_blocks(self):
        sim, receiver, host = self.make()
        deliver(receiver, 1)
        deliver(receiver, 3)
        host.sent.clear()
        deliver(receiver, 0)  # fills part of the gap; 3 still buffered
        assert [p.ackno for p in host.sent] == [2]
        block = host.sent[0].sack_blocks[0]
        assert (block.start, block.end) == (3, 4)

    def test_delay_resumes_after_hole_repair(self):
        sim, receiver, host = self.make()
        deliver(receiver, 1)  # dup ACK
        deliver(receiver, 0)  # gap fill: immediate ACK(2)
        host.sent.clear()
        deliver(receiver, 2)  # clean in-order again: held back
        assert host.sent == []
        deliver(receiver, 3)
        assert [p.ackno for p in host.sent] == [4]
        assert host.sent[0].sack_blocks == []

    def test_most_recent_block_first_under_delack(self):
        sim, receiver, host = self.make()
        deliver(receiver, 2)
        deliver(receiver, 5)
        first = host.sent[-1].sack_blocks[0]
        assert (first.start, first.end) == (5, 6)  # RFC 2018 ordering


class TestSackReceiver:
    def test_no_blocks_when_in_order(self):
        _, receiver, host = make_receiver(SackReceiver)
        deliver(receiver, 0)
        assert host.sent[0].sack_blocks == []

    def test_single_block(self):
        _, receiver, host = make_receiver(SackReceiver)
        deliver(receiver, 0)
        deliver(receiver, 2)
        block = host.sent[-1].sack_blocks[0]
        assert (block.start, block.end) == (2, 3)

    def test_contiguous_ooo_merges(self):
        _, receiver, host = make_receiver(SackReceiver)
        deliver(receiver, 2)
        deliver(receiver, 3)
        block = host.sent[-1].sack_blocks[0]
        assert (block.start, block.end) == (2, 4)

    def test_most_recent_block_first(self):
        _, receiver, host = make_receiver(SackReceiver)
        deliver(receiver, 2)
        deliver(receiver, 5)
        deliver(receiver, 8)
        blocks = host.sent[-1].sack_blocks
        assert (blocks[0].start, blocks[0].end) == (8, 9)

    def test_block_limit(self):
        config = TcpConfig(sack_block_limit=3)
        _, receiver, host = make_receiver(SackReceiver, config=config)
        for seqno in [2, 4, 6, 8, 10]:
            deliver(receiver, seqno)
        assert len(host.sent[-1].sack_blocks) == 3

    def test_blocks_cleared_after_hole_fill(self):
        _, receiver, host = make_receiver(SackReceiver)
        deliver(receiver, 1)
        deliver(receiver, 0)
        assert host.sent[-1].sack_blocks == []
