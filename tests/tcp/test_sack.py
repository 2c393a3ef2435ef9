"""Unit tests for the SACK sender (sack1 and RFC 3517 pipe modes)."""

import pytest

from repro.config import TcpConfig
from repro.tcp.sack import SackRfc3517Sender, SackSender
from tests.conftest import SenderHarness


def make(cwnd=10.0, cls=SackSender, **cfg):
    config = TcpConfig(initial_cwnd=cwnd, initial_ssthresh=64, **cfg)
    return SenderHarness(cls, config)


def burst_dupacks(harness, ackno, sack_ranges, count):
    """Deliver ``count`` duplicate ACKs carrying growing SACK info."""
    for i in range(count):
        harness.ack(ackno, sacks=sack_ranges)


class TestEnterRecovery:
    def test_halves_window_without_inflation(self):
        harness = make()
        harness.start()  # 0..9, loss at 0
        burst_dupacks(harness, 0, [(1, 4)], 3)
        assert harness.sender.in_recovery
        assert harness.sender.cwnd == pytest.approx(5.0)
        assert harness.sender.ssthresh == pytest.approx(5.0)

    def test_retransmits_first_hole(self):
        harness = make()
        harness.start()
        harness.host.clear()
        burst_dupacks(harness, 0, [(1, 4)], 3)
        assert 0 in harness.host.retransmit_seqs()

    def test_scoreboard_updated_from_blocks(self):
        harness = make()
        harness.start()
        burst_dupacks(harness, 0, [(1, 4)], 3)
        assert harness.sender.scoreboard.is_sacked(2)


class TestMultipleHoles:
    def test_all_holes_repaired_without_new_dupack_rounds(self):
        """The SACK selling point: several losses in one window are all
        retransmitted within the same recovery episode."""
        harness = make(cwnd=10.0)
        harness.start()  # 0..9; losses 0, 2, 4
        # survivors 1,3,5..9 SACKed progressively
        harness.ack(0, sacks=[(1, 2)])
        harness.ack(0, sacks=[(3, 4), (1, 2)])
        harness.ack(0, sacks=[(5, 6), (3, 4), (1, 2)])
        harness.ack(0, sacks=[(5, 7), (3, 4), (1, 2)])
        harness.ack(0, sacks=[(5, 8), (3, 4), (1, 2)])
        harness.ack(0, sacks=[(5, 9), (3, 4), (1, 2)])
        harness.ack(0, sacks=[(5, 10), (3, 4), (1, 2)])
        # a few more duplicates (in the real network, the new data sent
        # during recovery keeps the dup-ACK clock running)
        for _ in range(4):
            harness.ack(0, sacks=[(5, 10), (3, 4), (1, 2)])
        retransmitted = set(harness.host.retransmit_seqs())
        assert 0 in retransmitted
        assert 2 in retransmitted
        assert 4 in retransmitted

    def test_partial_ack_keeps_recovery(self):
        harness = make()
        harness.start()
        burst_dupacks(harness, 0, [(1, 10)], 3)
        harness.ack(2, sacks=[(3, 10)])
        assert harness.sender.in_recovery

    def test_full_ack_exits(self):
        harness = make()
        harness.start()
        burst_dupacks(harness, 0, [(1, 10)], 3)
        harness.ack(10)
        assert not harness.sender.in_recovery


class TestPipeControl:
    def test_pipe_limits_transmission(self):
        harness = make(cwnd=10.0)
        harness.start()  # flight 10
        harness.host.clear()
        # Entry: pipe = 10 - 3 = 7, cwnd = 5 -> only the hole rtx goes out.
        burst_dupacks(harness, 0, [(1, 4)], 3)
        assert len(harness.host.sent) == 1

    def test_dupacks_drain_pipe_and_release_data(self):
        harness = make(cwnd=10.0)
        harness.start()
        burst_dupacks(harness, 0, [(1, 4)], 3)
        harness.host.clear()
        # Each further dup ACK decrements pipe; eventually pipe < cwnd
        # and new data flows.
        burst_dupacks(harness, 0, [(1, 10)], 6)
        assert len(harness.host.new_data_seqs()) >= 1

    def test_sack1_mode_is_default(self):
        assert make().sender.pipe_algorithm == "sack1"

    def test_rfc3517_pipe_recomputed(self):
        harness = make(cls=SackRfc3517Sender)
        harness.start()
        burst_dupacks(harness, 0, [(1, 10)], 3)
        # Scoreboard view of the original window: 0 lost (excluded),
        # 1..9 SACKed (excluded), rtx of 0 counted once.
        assert harness.sender.scoreboard.pipe(0, 10) == 1
        # The freed window released new data (pipe rose to cwnd).
        assert len(harness.host.new_data_seqs()) >= 1
        assert harness.sender.current_pipe() <= int(harness.sender.cwnd)


class TestStaleDupacks:
    def test_no_reentry_below_recover(self):
        harness = make()
        harness.start()
        burst_dupacks(harness, 0, [(1, 10)], 3)
        harness.ack(10)
        harness.host.clear()
        harness.dupacks(10, 3)
        assert harness.host.retransmit_seqs() == []


class TestTimeout:
    def test_timeout_clears_scoreboard(self):
        harness = make()
        harness.start()
        burst_dupacks(harness, 0, [(1, 10)], 3)
        harness.advance(10.0)
        assert not harness.sender.scoreboard._sacked
        assert not harness.sender.in_recovery

    def test_rfc3517_partial_ack_fallback_retransmission(self):
        """With < DupThresh SACKs above the final hole the IsLost test
        fails; the partial-ACK fallback must still repair it."""
        harness = make(cls=SackRfc3517Sender)
        harness.start()  # 0..9; losses 0 and 8
        burst_dupacks(harness, 0, [(1, 8)], 3)
        harness.host.clear()
        harness.ack(8, sacks=[(9, 10)])  # partial: hole at 8, one SACK above
        assert 8 in harness.host.retransmit_seqs()
