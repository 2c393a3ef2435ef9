"""Time-varying links: rate schedules, handover outages, bufferbloat.

Mobile and wireless bottlenecks are nothing like the fixed wired links
of the paper's evaluation: the PHY rate wanders with signal quality,
handovers black the link out for hundreds of milliseconds, and
operator buffers are sized at many bandwidth-delay products (Liu et
al., *Optimizing TCP Loss Recovery Performance Over Mobile Data
Networks*, PAPERS.md).  This module models all three on top of the
existing :class:`~repro.net.link.Link`:

* :class:`RateSchedule` — a picklable, validated step function of
  absolute simulation time applied to a link's ``bandwidth_bps``, with
  optional deep outage windows that reuse the ``set_down``/``set_up``
  machinery.  Schedules are either hand-written (:meth:`steps_every`,
  :meth:`from_trace`) or drawn from a seeded
  :class:`~repro.sim.rng.RngStream` (:meth:`mobile`), so worlds stay a
  pure function of their seed and runs are bit-identical across
  reruns, serial/parallel sweeps and engine backends.
* :func:`bufferbloat_limit` — a DropTail sizing preset at a chosen
  multiple of the bandwidth-delay product.

Rate changes take effect at the *next* service start: the packet
occupying the transmitter when a step fires keeps the service time it
was admitted with (the event is already on the heap).  That keeps both
engine backends exactly equivalent and matches a modem that finishes
serialising the current frame before retuning.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

from repro._record import Record
from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.sim.rng import RngStream


class RateSchedule(Record, frozen=True):
    """A step function of absolute sim time driving a link's rate.

    Attributes
    ----------
    steps:
        ``(time, bandwidth_bps)`` pairs, strictly increasing in time,
        all rates positive.  Before the first step the link keeps its
        construction-time rate.
    outages:
        ``(start, duration)`` deep-outage windows (handovers); applied
        through :meth:`Link.schedule_outage`, so packets arriving
        inside a window are destroyed.
    """

    steps: Tuple[Tuple[float, float], ...]
    outages: Tuple[Tuple[float, float], ...] = ()

    def validate(self) -> None:
        last_t = -1.0
        for t, bps in self.steps:
            if t < 0:
                raise ConfigurationError(f"rate step at negative time {t}")
            if t <= last_t:
                raise ConfigurationError(
                    f"rate steps must be strictly increasing in time (t={t})"
                )
            if bps <= 0:
                raise ConfigurationError(f"rate step at t={t} has rate {bps} <= 0")
            last_t = t
        for start, duration in self.outages:
            if start < 0 or duration < 0:
                raise ConfigurationError(
                    f"outage ({start}, {duration}) must be non-negative"
                )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def steps_every(
        cls,
        rates_bps: Sequence[float],
        interval: float,
        start: float = 0.0,
        outages: Sequence[Tuple[float, float]] = (),
    ) -> "RateSchedule":
        """One step per entry of ``rates_bps``, ``interval`` s apart."""
        if interval <= 0:
            raise ConfigurationError("step interval must be > 0")
        steps = tuple(
            (start + i * interval, float(bps)) for i, bps in enumerate(rates_bps)
        )
        sched = cls(steps=steps, outages=tuple(outages))
        sched.validate()
        return sched

    @classmethod
    def from_trace(
        cls,
        samples: Iterable[Tuple[float, float]],
        outages: Sequence[Tuple[float, float]] = (),
    ) -> "RateSchedule":
        """Trace-driven: ``(time, bandwidth_bps)`` samples (sorted)."""
        steps = tuple((float(t), float(bps)) for t, bps in samples)
        sched = cls(steps=steps, outages=tuple(outages))
        sched.validate()
        return sched

    @classmethod
    def mobile(
        cls,
        seed: int,
        duration: float,
        mean_bps: float,
        interval: float = 1.0,
        spread: float = 0.6,
        min_bps: Optional[float] = None,
        handover_period: Optional[float] = None,
        handover_duration: float = 0.5,
        name: str = "mobile",
    ) -> "RateSchedule":
        """A seeded wireless-ish schedule: every ``interval`` seconds
        the rate is redrawn uniformly in ``mean_bps * [1-spread,
        1+spread]`` (floored at ``min_bps``, default ``mean/10``), and
        if ``handover_period`` is set, deep outages of
        ``handover_duration`` seconds recur roughly that often with
        seeded jitter.  All draws come from substreams of
        ``RngStream(seed, "ratesched/<name>")``.
        """
        if duration <= 0:
            raise ConfigurationError("schedule duration must be > 0")
        if not 0.0 <= spread < 1.0:
            raise ConfigurationError(f"spread must be in [0, 1), got {spread}")
        root = RngStream(seed, f"ratesched/{name}")
        rates = root.substream("rates")
        floor = min_bps if min_bps is not None else mean_bps / 10.0
        steps = []
        t = 0.0
        while t < duration:
            factor = 1.0 + spread * (2.0 * rates.random() - 1.0)
            steps.append((t, max(mean_bps * factor, floor)))
            t += interval
        outages = []
        if handover_period is not None:
            if handover_period <= 0:
                raise ConfigurationError("handover_period must be > 0")
            hand = root.substream("handover")
            t = handover_period * (0.5 + hand.random())
            while t < duration:
                outages.append((t, handover_duration))
                t += handover_period * (0.75 + 0.5 * hand.random())
        sched = cls(steps=tuple(steps), outages=tuple(outages))
        sched.validate()
        return sched

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, link: Link) -> Link:
        """Schedule every step and outage against ``link`` and record
        the schedule on it (``link.rate_schedule``).

        Raises :class:`ConfigurationError` if the link already carries
        a schedule.  Steps in the past (relative to ``link._sim.now``)
        are rejected — apply schedules before running the world.
        """
        self.validate()
        if link.rate_schedule is not None:
            raise ConfigurationError(f"link {link.name} already has a rate schedule")
        sim = link._sim
        for t, bps in self.steps:
            if t < sim.now:
                raise ConfigurationError(
                    f"rate step at t={t} is in the past (now={sim.now})"
                )
            sim.schedule_at(t, link.set_bandwidth, bps)
        for start, duration in self.outages:
            link.schedule_outage(start, duration)
        link.rate_schedule = self
        return link


# ----------------------------------------------------------------------
# bufferbloat presets
# ----------------------------------------------------------------------
def bufferbloat_limit(
    bandwidth_bps: float,
    rtt: float,
    multiple: float = 10.0,
    mss_bytes: int = 1000,
) -> int:
    """Buffer capacity (packets) at ``multiple`` bandwidth-delay
    products — operator gear is commonly sized at 5-20 BDP (Liu et
    al.), which is what turns mobile links into bufferbloat."""
    if bandwidth_bps <= 0 or rtt <= 0 or multiple <= 0 or mss_bytes <= 0:
        raise ConfigurationError("bufferbloat sizing needs positive inputs")
    bdp_packets = bandwidth_bps * rtt / (8.0 * mss_bytes)
    return max(int(math.ceil(bdp_packets * multiple)), 1)
