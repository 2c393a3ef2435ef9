"""Tests for the workload generators."""

import pytest

from repro.app.workload import OnOffSource
from repro.errors import ConfigurationError
from repro.net.topology import Dumbbell, DumbbellParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.tcp.factory import make_connection


def make_world(n_pairs=10, buffer_packets=50):
    sim = Simulator()
    bell = Dumbbell(sim, DumbbellParams(n_pairs=n_pairs, buffer_packets=buffer_packets))
    return sim, bell


class TestOnOffSource:
    def test_generates_multiple_bursts(self):
        sim, bell = make_world(n_pairs=1)
        sender, _ = make_connection(sim, "rr", 1, bell.sender(1), bell.receiver(1))
        source = OnOffSource(
            sim, sender, RngStream(1, "onoff"),
            mean_on_packets=20, mean_off_seconds=0.2,
        )
        sim.run(until=20.0)
        assert source.bursts >= 3
        assert sender.snd_una > 20  # data flowed across bursts

    def test_off_periods_pause_transmission(self):
        sim, bell = make_world(n_pairs=1)
        sender, _ = make_connection(sim, "newreno", 1, bell.sender(1), bell.receiver(1))
        OnOffSource(
            sim, sender, RngStream(2, "onoff"),
            mean_on_packets=5, mean_off_seconds=2.0,
        )
        sim.run(until=1.0)
        sent_early = sender.packets_sent
        # During a long off period nothing new goes out.
        sim.run(until=1.5)
        assert sender.packets_sent - sent_early <= 10

    def test_validation(self):
        sim, bell = make_world(n_pairs=1)
        sender, _ = make_connection(sim, "rr", 1, bell.sender(1), bell.receiver(1))
        with pytest.raises(ConfigurationError):
            OnOffSource(sim, sender, RngStream(1), mean_on_packets=0)
        with pytest.raises(ConfigurationError):
            OnOffSource(sim, sender, RngStream(1), mean_off_seconds=0.0)


# Run in fresh interpreters by TestCrossProcessDeterminism: builds the
# on/off source with a fixed seed and prints a transcript of everything
# observable.
_DETERMINISM_SCRIPT = """
from repro.app.workload import OnOffSource
from repro.net.topology import Dumbbell, DumbbellParams
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.tcp.factory import make_connection

sim = Simulator()
bell = Dumbbell(sim, DumbbellParams(n_pairs=6, buffer_packets=50))
sender, _ = make_connection(sim, "newreno", 1, bell.sender(1), bell.receiver(1))
source = OnOffSource(
    sim, sender, RngStream(5, "onoff"),
    mean_on_packets=20, mean_off_seconds=0.3,
)
sim.run(until=30.0)
print(source.bursts, sender.snd_una, repr(sim.now), sim.events_processed)
"""


class TestCrossProcessDeterminism:
    """Same seed, two fresh interpreters -> byte-identical transcripts."""

    def _transcript(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(root)
        # Different hash seeds per process: determinism must not lean
        # on dict/set iteration luck.
        env["PYTHONHASHSEED"] = "202"
        result = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        env["PYTHONHASHSEED"] = "999"
        second = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        return result.stdout, second.stdout

    def test_onoff_source_identical_across_processes(self):
        first, second = self._transcript()
        assert first == second


class TestDegenerateOnOffPeriods:
    def test_zero_mean_off_rejected(self):
        sim, bell = make_world(n_pairs=1)
        sender, _ = make_connection(sim, "newreno", 1, bell.sender(1), bell.receiver(1))
        with pytest.raises(ConfigurationError):
            OnOffSource(sim, sender, RngStream(1, "x"), mean_off_seconds=0.0)

    def test_negative_mean_off_rejected(self):
        sim, bell = make_world(n_pairs=1)
        sender, _ = make_connection(sim, "newreno", 1, bell.sender(1), bell.receiver(1))
        with pytest.raises(ConfigurationError):
            OnOffSource(sim, sender, RngStream(1, "x"), mean_off_seconds=-1.0)

    def test_zero_mean_on_rejected(self):
        sim, bell = make_world(n_pairs=1)
        sender, _ = make_connection(sim, "newreno", 1, bell.sender(1), bell.receiver(1))
        with pytest.raises(ConfigurationError):
            OnOffSource(sim, sender, RngStream(1, "x"), mean_on_packets=0)

    def test_tiny_mean_on_still_sends_whole_bursts(self):
        """Even when the exponential draw rounds to zero, every ON
        period offers at least one packet (no silent empty bursts)."""
        sim, bell = make_world(n_pairs=1)
        sender, _ = make_connection(sim, "newreno", 1, bell.sender(1), bell.receiver(1))
        source = OnOffSource(
            sim, sender, RngStream(9, "tiny"),
            mean_on_packets=1, mean_off_seconds=0.05,
        )
        sim.run(until=10.0)
        assert source.bursts > 1
        assert sender.snd_una >= source.bursts
