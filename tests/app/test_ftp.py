"""Unit tests for the FTP source."""

import pytest

from repro.app.ftp import FtpSource
from repro.errors import ConfigurationError
from repro.net.topology import Dumbbell, DumbbellParams
from repro.sim.engine import Simulator
from repro.tcp.factory import make_connection


def make_flow(variant="newreno", **ftp_kwargs):
    sim = Simulator()
    bell = Dumbbell(sim, DumbbellParams(n_pairs=1, buffer_packets=100))
    sender, receiver = make_connection(sim, variant, 1, bell.sender(1), bell.receiver(1))
    source = FtpSource(sim, sender, **ftp_kwargs)
    return sim, sender, source


class TestBoundedTransfer:
    def test_sends_exact_amount(self):
        sim, sender, source = make_flow(amount_packets=30)
        sim.run(until=30.0)
        assert sender.completed
        assert sender.snd_una == 30

    def test_bytes_rounded_up_to_packets(self):
        sim, sender, source = make_flow(amount_bytes=100_000)
        assert sender._limit == 100  # 100 KB at 1000-byte MSS
        sim, sender, source = make_flow(amount_bytes=1500)
        assert sender._limit == 2

    def test_transfer_delay(self):
        sim, sender, source = make_flow(amount_packets=10, start_time=2.0)
        sim.run(until=30.0)
        assert source.completed
        assert source.transfer_delay == pytest.approx(
            sender.complete_time - 2.0
        )

    def test_transfer_delay_none_until_done(self):
        sim, sender, source = make_flow(amount_packets=10, start_time=5.0)
        sim.run(until=1.0)
        assert source.transfer_delay is None

    def test_completion_callback(self):
        times = []
        sim, sender, source = make_flow(
            amount_packets=5, on_complete=times.append
        )
        sim.run(until=30.0)
        assert len(times) == 1
        assert times[0] == sender.complete_time


class TestUnboundedTransfer:
    def test_runs_forever(self):
        sim, sender, source = make_flow(amount_packets=None)
        sim.run(until=10.0)
        assert not sender.completed
        assert sender.packets_sent > 100


class TestStartTime:
    def test_start_deferred(self):
        sim, sender, source = make_flow(amount_packets=10, start_time=3.0)
        sim.run(until=2.9)
        assert sender.packets_sent == 0
        sim.run(until=3.1)
        assert sender.packets_sent > 0


class TestValidation:
    def test_both_amounts_rejected(self):
        sim = Simulator()
        bell = Dumbbell(sim, DumbbellParams(n_pairs=1))
        sender, _ = make_connection(sim, "rr", 1, bell.sender(1), bell.receiver(1))
        with pytest.raises(ConfigurationError):
            FtpSource(sim, sender, amount_packets=10, amount_bytes=1000)
