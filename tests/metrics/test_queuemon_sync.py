"""Tests for queue monitoring."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.queuemon import QueueMonitor
from repro.net.queues import DropTailQueue
from repro.net.packet import data_packet
from repro.net.topology import DumbbellParams
from repro.sim.engine import Simulator


class TestQueueMonitor:
    def test_samples_on_period(self):
        sim = Simulator()
        queue = DropTailQueue(limit=10)
        monitor = QueueMonitor(sim, queue, period=0.1)
        sim.run(until=1.0)
        assert len(monitor.samples) == 11  # t=0.0 .. 1.0

    def test_tracks_occupancy(self):
        sim = Simulator()
        queue = DropTailQueue(limit=10)
        monitor = QueueMonitor(sim, queue, period=0.1)
        sim.schedule(0.25, lambda: queue.enqueue(data_packet(1, "S", "K", 0)))
        sim.schedule(0.55, lambda: queue.dequeue())
        sim.run(until=1.0)
        assert max(length for _, length in monitor.samples) == 1
        assert 0 < monitor.mean_occupancy() < 1

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            QueueMonitor(sim, DropTailQueue(limit=5), period=0.0)

    def test_utilisation_proxy_on_live_bottleneck(self):
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant="rr", amount_packets=None)],
            params=DumbbellParams(n_pairs=1, buffer_packets=25),
        )
        monitor = QueueMonitor(
            scenario.sim, scenario.dumbbell.bottleneck_queue, period=0.05
        )
        scenario.sim.run(until=10.0)
        assert monitor.utilisation_proxy() > 0.5  # bottleneck kept busy
