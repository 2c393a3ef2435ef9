"""Queue occupancy monitoring.

:class:`QueueMonitor` samples a queue's instantaneous length (and the
RED average where present) on a fixed period — the tool for inspecting
the bottleneck dynamics behind the paper's drop-tail-vs-RED discussion
(global synchronization shows up as deep coordinated valleys in the
occupancy series).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.net.queues import PacketQueue
from repro.sim.engine import Simulator


class QueueMonitor:
    """Periodic sampler of one queue's occupancy."""

    def __init__(
        self,
        sim: Simulator,
        queue: PacketQueue,
        period: float = 0.01,
        start_time: float = 0.0,
    ):
        if period <= 0:
            raise ConfigurationError("sampling period must be positive")
        self.sim = sim
        self.queue = queue
        self.period = period
        self.samples: List[Tuple[float, int]] = []
        self.avg_samples: List[Tuple[float, float]] = []
        sim.schedule_at(start_time, self._sample)

    def _sample(self) -> None:
        self.samples.append((self.sim.now, len(self.queue)))
        red_avg = getattr(self.queue, "avg", None)
        if red_avg is not None:
            self.avg_samples.append((self.sim.now, red_avg))
        self.sim.schedule(self.period, self._sample)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def mean_occupancy(self) -> float:
        if not self.samples:
            return 0.0
        return sum(length for _, length in self.samples) / len(self.samples)

    def utilisation_proxy(self) -> float:
        """Fraction of samples with a non-empty queue — a rough proxy
        for how often the output link had work (1.0 = always busy)."""
        if not self.samples:
            return 0.0
        busy = sum(1 for _, length in self.samples if length > 0)
        return busy / len(self.samples)
