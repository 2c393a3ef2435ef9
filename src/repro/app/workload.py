"""Workload generators beyond a single FTP transfer.

:class:`OnOffSource` chops one long-lived connection into exponential
on/off bursts, a standard background-traffic model.

The rest of the module is the :mod:`repro.scenes` workload
vocabulary: flow-size samplers (:class:`FixedSize`,
:class:`ParetoSizes`, :class:`LognormalSizes`) and arrival processes
(:class:`PoissonArrivals`, :class:`StaggeredArrivals`,
:class:`JitteredArrivals`).  All are *named picklable callables* — no
closures — so a scene mid-run stays snapshot-safe, and every draw
comes from the :class:`~repro.sim.rng.RngStream` passed in, so scenes
stay bit-identical under parallel sweeps, warm starts and restores.
"""

from __future__ import annotations

import math

from typing import List, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.tcp.base import TcpSender


class OnOffSource:
    """Exponential on/off modulation of one unbounded sender.

    During OFF periods the application simply stops offering data (the
    sender drains its window and goes quiet); each ON period offers a
    fresh burst of packets.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: TcpSender,
        rng: RngStream,
        mean_on_packets: int = 50,
        mean_off_seconds: float = 0.5,
        start_time: float = 0.0,
    ):
        if mean_on_packets < 1:
            raise ConfigurationError("mean_on_packets must be >= 1")
        if mean_off_seconds <= 0:
            raise ConfigurationError("mean_off_seconds must be positive")
        self.sim = sim
        self.sender = sender
        self.rng = rng
        self.mean_on_packets = mean_on_packets
        self.mean_off_seconds = mean_off_seconds
        self.bursts = 0
        sender.set_data_limit(None)  # replaced per burst
        sender.completion_callbacks.append(self._burst_done)
        sim.schedule_at(start_time, self._start_burst)

    def _start_burst(self) -> None:
        self.bursts += 1
        burst = max(1, int(self.rng.expovariate(1.0 / self.mean_on_packets)))
        # Extend the sender's limit by one burst worth of packets.
        current = self.sender.snd_nxt
        self.sender.set_data_limit(current + burst)
        self.sender.completed = False  # re-arm completion detection
        if not self.sender.started:
            self.sender.start()
        else:
            self.sender.send_available()

    def _burst_done(self, _t: float) -> None:
        off = self.rng.expovariate(1.0 / self.mean_off_seconds)
        self.sim.schedule(off, self._start_burst)


# ----------------------------------------------------------------------
# scene vocabulary: flow-size samplers
# ----------------------------------------------------------------------


class FixedSize:
    """Every flow transfers exactly ``packets`` packets (``None`` =
    infinite backlog, the paper's long-lived FTP sources)."""

    __slots__ = ("packets",)

    def __init__(self, packets: Optional[int] = None):
        if packets is not None and packets < 1:
            raise ConfigurationError("fixed size must be >= 1 packet")
        self.packets = packets

    def __call__(self, rng: RngStream) -> Optional[int]:
        return self.packets


class ParetoSizes:
    """Heavy-tailed (Pareto) flow sizes in packets.

    ``shape`` is the tail index alpha (> 1 so the mean exists; web
    traffic measurements put it around 1.2-1.6); ``mean_packets`` fixes
    the distribution mean, from which the scale ``x_m = mean * (alpha -
    1) / alpha`` follows.  Samples are floored at ``min_packets``.
    """

    __slots__ = ("mean_packets", "shape", "min_packets", "_scale")

    def __init__(self, mean_packets: float = 100.0, shape: float = 1.5,
                 min_packets: int = 1):
        if shape <= 1.0:
            raise ConfigurationError("Pareto shape must be > 1 (finite mean)")
        if mean_packets < 1:
            raise ConfigurationError("mean_packets must be >= 1")
        if min_packets < 1:
            raise ConfigurationError("min_packets must be >= 1")
        self.mean_packets = mean_packets
        self.shape = shape
        self.min_packets = min_packets
        self._scale = mean_packets * (shape - 1.0) / shape

    def __call__(self, rng: RngStream) -> int:
        u = 1.0 - rng.random()  # in (0, 1]; inverse-CDF draw
        return max(self.min_packets, int(round(self._scale / u ** (1.0 / self.shape))))


class LognormalSizes:
    """Lognormal flow sizes in packets (the body of measured size
    distributions; Pareto covers the tail).

    ``mean_packets`` is the distribution mean; ``sigma`` the log-domain
    standard deviation, so ``mu = ln(mean) - sigma^2 / 2``.  The normal
    draw is Box-Muller over two uniforms from the stream (RngStream
    deliberately has no gauss state to checkpoint).
    """

    __slots__ = ("mean_packets", "sigma", "min_packets", "_mu")

    def __init__(self, mean_packets: float = 100.0, sigma: float = 1.0,
                 min_packets: int = 1):
        if mean_packets < 1:
            raise ConfigurationError("mean_packets must be >= 1")
        if sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if min_packets < 1:
            raise ConfigurationError("min_packets must be >= 1")
        self.mean_packets = mean_packets
        self.sigma = sigma
        self.min_packets = min_packets
        self._mu = math.log(mean_packets) - 0.5 * sigma * sigma

    def __call__(self, rng: RngStream) -> int:
        u1 = 1.0 - rng.random()  # in (0, 1] so log() is safe
        u2 = rng.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return max(
            self.min_packets, int(round(math.exp(self._mu + self.sigma * z)))
        )


# ----------------------------------------------------------------------
# scene vocabulary: arrival processes
# ----------------------------------------------------------------------


class PoissonArrivals:
    """Flow start times as a Poisson process of ``rate`` per second
    (cumulative sum of exponential gaps)."""

    __slots__ = ("rate",)

    def __init__(self, rate: float = 10.0):
        if rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        self.rate = rate

    def __call__(self, rng: RngStream, n: int) -> List[float]:
        times, t = [], 0.0
        for _ in range(n):
            t += rng.expovariate(self.rate)
            times.append(t)
        return times


class StaggeredArrivals:
    """Deterministic starts every ``gap`` seconds (flow ``i`` starts at
    ``i * gap``) — the Figure 6 pattern, generalized."""

    __slots__ = ("gap",)

    def __init__(self, gap: float = 0.01):
        if gap < 0:
            raise ConfigurationError("stagger gap must be >= 0")
        self.gap = gap

    def __call__(self, rng: RngStream, n: int) -> List[float]:
        return [i * self.gap for i in range(n)]


class JitteredArrivals:
    """Near-simultaneous starts: flow ``i`` starts at an independent
    uniform draw in ``[0, window]``.  ``window=0`` is the fully
    synchronized (and maximally phase-locked) start."""

    __slots__ = ("window",)

    def __init__(self, window: float = 0.1):
        if window < 0:
            raise ConfigurationError("jitter window must be >= 0")
        self.window = window

    def __call__(self, rng: RngStream, n: int) -> List[float]:
        if self.window == 0:
            return [0.0] * n
        return [rng.uniform(0.0, self.window) for _ in range(n)]
