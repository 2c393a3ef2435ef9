"""Unit tests for the SACK scoreboard."""

from repro.net.packet import SackBlock
from repro.tcp.scoreboard import Scoreboard


def make():
    return Scoreboard(dupack_threshold=3)


class TestUpdates:
    def test_sack_blocks_recorded(self):
        board = make()
        board.update(0, [SackBlock(2, 4)])
        assert board.is_sacked(2) and board.is_sacked(3)
        assert not board.is_sacked(4)

    def test_cumulative_ack_prunes(self):
        board = make()
        board.update(0, [SackBlock(2, 4)])
        board.update(3, [])
        assert not board.is_sacked(2)
        assert board.is_sacked(3)

    def test_retransmissions_pruned_by_ack(self):
        board = make()
        board.mark_retransmitted(2)
        board.update(3, [])
        assert not board.was_retransmitted(2)

    def test_clear(self):
        board = make()
        board.update(0, [SackBlock(2, 4)])
        board.mark_retransmitted(0)
        board.clear()
        assert not board._sacked
        assert not board.was_retransmitted(0)


class TestLossDetection:
    def test_is_lost_requires_threshold_above(self):
        board = make()
        board.update(0, [SackBlock(1, 3)])  # two sacked above 0
        assert not board.is_lost(0)
        board.update(0, [SackBlock(1, 4)])  # three sacked above 0
        assert board.is_lost(0)

    def test_sacked_packet_is_not_lost(self):
        board = make()
        board.update(0, [SackBlock(1, 5)])
        assert not board.is_lost(2)

    def test_sacked_above(self):
        board = make()
        board.update(0, [SackBlock(2, 5)])
        assert board.sacked_above(0) == 3
        assert board.sacked_above(2) == 2
        assert board.sacked_above(4) == 0


class TestPipe:
    def test_all_in_flight_no_sacks(self):
        board = make()
        assert board.pipe(0, 5) == 5

    def test_sacked_packets_excluded(self):
        board = make()
        board.update(0, [SackBlock(1, 3)])
        assert board.pipe(0, 5) == 3

    def test_lost_packets_excluded(self):
        board = make()
        board.update(0, [SackBlock(1, 5)])  # 0 is lost (4 above)
        # outstanding 0..4: 0 lost -> 0; 1-4 sacked -> 0
        assert board.pipe(0, 5) == 0

    def test_retransmitted_counted(self):
        board = make()
        board.update(0, [SackBlock(1, 5)])
        board.mark_retransmitted(0)
        assert board.pipe(0, 5) == 1


class TestNextRetransmission:
    def test_lowest_lost_hole_first(self):
        board = make()
        board.update(0, [SackBlock(1, 3), SackBlock(4, 6)])
        # 0 has 4 sacked above -> lost; 3 has 2 above -> not lost
        assert board.next_retransmission(0, 6) == 0

    def test_skips_retransmitted(self):
        board = make()
        board.update(0, [SackBlock(1, 3), SackBlock(4, 6)])
        board.mark_retransmitted(0)
        # Next hole is 3 with only 2 sacked above -> not lost -> None.
        assert board.next_retransmission(0, 6) is None

    def test_second_hole_when_deeply_sacked(self):
        board = make()
        board.update(0, [SackBlock(1, 3), SackBlock(4, 8)])
        board.mark_retransmitted(0)
        # Hole 3 now has 4 sacked above -> lost.
        assert board.next_retransmission(0, 8) == 3

    def test_holes_listing(self):
        board = make()
        board.update(0, [SackBlock(1, 3)])
        assert board.holes(0, 5) == [0, 3, 4]
