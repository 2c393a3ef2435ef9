"""Unit tests for the CUBIC sender (RFC 8312 growth over New-Reno
recovery): beta=0.7 decrease, fast convergence, concave/convex
time-based growth, and picklable epoch state."""

import pickle

import pytest

from repro.config import TcpConfig
from repro.tcp.cubic import CUBIC_BETA, CubicSender
from tests.conftest import SenderHarness


def make(cwnd=10.0, ssthresh=64, **cfg):
    config = TcpConfig(initial_cwnd=cwnd, initial_ssthresh=ssthresh, **cfg)
    return SenderHarness(CubicSender, config)


class TestMultiplicativeDecrease:
    def test_fast_retransmit_cuts_by_beta(self):
        harness = make()
        harness.start()  # 0..9 in flight
        harness.dupacks(0, 3)
        assert harness.sender.ssthresh == pytest.approx(10.0 * CUBIC_BETA)
        assert harness.sender.in_recovery

    def test_w_max_recorded_at_loss(self):
        harness = make()
        harness.start()
        harness.dupacks(0, 3)
        assert harness.sender._w_max == pytest.approx(10.0)

    def test_full_ack_exits_to_beta_window(self):
        harness = make()
        harness.start()
        harness.dupacks(0, 3)
        harness.ack(10)
        assert not harness.sender.in_recovery
        assert harness.sender.cwnd == pytest.approx(10.0 * CUBIC_BETA)

    def test_fast_convergence_shrinks_w_max(self):
        harness = make()
        sender = harness.sender
        sender._w_max = 10.0
        sender.cwnd = 8.0  # losing ground: loss below the old plateau
        sender._halved_ssthresh()
        assert sender._w_max == pytest.approx(8.0 * (2.0 - CUBIC_BETA) / 2.0)

    def test_no_fast_convergence_above_w_max(self):
        harness = make()
        sender = harness.sender
        sender._w_max = 10.0
        sender.cwnd = 12.0
        sender._halved_ssthresh()
        assert sender._w_max == pytest.approx(12.0)

    def test_timeout_uses_beta_not_half(self):
        harness = make()
        harness.start()
        harness.advance(4.0)  # first RTO fires (initial_rto = 3 s)
        assert harness.sender.timeouts == 1
        assert harness.sender.ssthresh == pytest.approx(10.0 * CUBIC_BETA)
        assert harness.sender.cwnd == pytest.approx(1.0)

    def test_ecn_reaction_uses_beta(self):
        harness = make(ecn_enabled=True)
        harness.start()
        harness.sender._ecn_reaction()
        assert harness.sender.ssthresh == pytest.approx(10.0 * CUBIC_BETA)


class TestTimeBasedGrowth:
    def test_slow_start_unchanged(self):
        harness = make(cwnd=2.0, ssthresh=64)
        harness.start()
        harness.ack(1)
        assert harness.sender.cwnd == pytest.approx(3.0)

    def test_convex_growth_accelerates_with_time(self):
        # ssthresh below cwnd: congestion avoidance from the first ACK.
        harness = make(cwnd=10.0, ssthresh=5)
        sender = harness.sender
        # Long-RTT path: the AIMD-friendly estimate grows negligibly,
        # so the cubic curve is what drives the window.
        sender.rto.on_sample(10.0)
        harness.advance(0.1)
        sender._open_cwnd()  # anchors the epoch (pure convex probing)
        harness.advance(1.0)
        before = sender.cwnd
        sender._open_cwnd()
        early_delta = sender.cwnd - before
        harness.advance(4.0)
        before = sender.cwnd
        sender._open_cwnd()
        late_delta = sender.cwnd - before
        assert late_delta > early_delta > 0.0

    def test_tcp_friendly_region_tracks_aimd_estimate(self):
        """On a short-RTT path the cubic curve lags the AIMD(0.53, 0.7)
        estimate, and cwnd tracks W_est instead (RFC 8312 §4.2)."""
        harness = make()
        sender = harness.sender
        sender.rto.on_sample(0.05)
        sender.ssthresh = 7.0
        sender.cwnd = 7.0
        sender._w_max = 10.0
        harness.advance(0.1)
        sender._open_cwnd()  # anchor
        harness.advance(0.5)
        sender._open_cwnd()
        w_est = 7.0 + (3.0 * 0.3 / 1.7) * (0.5 / sender.rto.srtt)
        assert sender.cwnd == pytest.approx(w_est)

    def test_concave_plateau_below_w_max(self):
        """Shortly after a loss the window creeps toward (but stays
        below) the pre-loss W_max."""
        harness = make()
        sender = harness.sender
        sender.rto.on_sample(0.2)  # pin srtt so W_est is predictable
        sender.ssthresh = 7.0
        sender.cwnd = 7.0
        sender._w_max = 10.0
        grown = []
        for _ in range(4):
            harness.advance(0.2)
            sender._open_cwnd()
            grown.append(sender.cwnd)
        assert grown == sorted(grown)  # monotone approach...
        assert 7.0 < sender.cwnd < 10.0  # ...still under the plateau

    def test_growth_suppressed_on_ecn_echo_ack(self):
        harness = make(cwnd=10.0, ssthresh=5, ecn_enabled=True)
        harness.start()
        # A reaction was already taken this window, so the echo only
        # suppresses growth.
        harness.sender._ecn_react_marker = harness.sender.snd_nxt
        before = harness.sender.cwnd
        harness.ack(1, ecn_echo=True)
        assert harness.sender.cwnd == before


class TestEpochState:
    def test_epoch_reset_on_loss(self):
        harness = make(cwnd=10.0, ssthresh=5)
        harness.start()
        harness.ack(1)
        assert harness.sender._epoch_start is not None
        harness.dupacks(1, 3)
        assert harness.sender._epoch_start is None

    def test_sender_pickles_mid_epoch(self):
        harness = make(cwnd=10.0, ssthresh=5)
        harness.start()
        harness.advance(0.5)
        harness.ack(1)
        blob = pickle.dumps(harness.sender)
        clone = pickle.loads(blob)
        assert clone._w_max == harness.sender._w_max
        assert clone._epoch_start == harness.sender._epoch_start
        assert clone._k == harness.sender._k
