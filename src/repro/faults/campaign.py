"""Randomized fault campaigns.

A :class:`CampaignRunner` samples :class:`~repro.faults.plan.FaultPlan`
instances from a seeded RNG stream, within the survivability bounds of
a :class:`CampaignSpec`.  Determinism contract: the same
``(seed, spec)`` pair yields bit-identical plans, and plan *i* is
independent of how many plans were drawn before it (each plan gets its
own derived stream), so campaigns can be resumed, parallelised or
re-run one seed at a time.

The spec's bounds are deliberately conservative by default: a campaign
exists to stress recovery, not to make delivery impossible.  Outages
stay shorter than the maximum RTO back-off, stochastic loss rates stay
in the regime the paper studies (§2.3 runs ACK loss up to ~90%, but a
*survivable* campaign keeps data-path rates modest), and every episode
closes before the fault horizon so the run can drain cleanly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro._record import Record, field
from repro.errors import ConfigurationError
from repro.faults.plan import (
    AckLossEpisode,
    BurstLossEpisode,
    FaultAction,
    FaultPlan,
    LinkFlap,
    LinkOutage,
    PacketCorruption,
    PacketDuplication,
    PeriodicDropEpisode,
    RouterBlackout,
    TimerSkew,
)
from repro.sim.rng import RngStream


class CampaignSpec(Record, frozen=True):
    """Bounds within which a campaign samples faults.

    ``horizon`` is the fault horizon: every sampled episode starts and
    ends inside ``[warmup, horizon)``, leaving the rest of the run to
    drain.  Link-name defaults match the single-flow dumbbell
    (S1 -> R1 -> R2 -> K1); widen them for multi-flow scenarios.
    """

    horizon: float = 200.0
    warmup: float = 2.0
    min_actions: int = 1
    max_actions: int = 3
    # episode bounds
    outage_max: float = 1.5          # < min RTO back-off stays survivable
    flap_max_count: int = 3
    ack_loss_max: float = 0.10
    duplicate_max: float = 0.05
    corrupt_max: float = 0.05
    episode_max: float = 30.0        # longest stochastic-loss window
    periodic_min: int = 30           # gentlest periodic drop is 1/30
    timer_skew_max: float = 3.0
    # where faults may land
    data_links: Tuple[str, ...] = ("S1->R1", "R1->R2")
    ack_links: Tuple[str, ...] = ("K1->R2", "R2->R1")
    routers: Tuple[str, ...] = ("R1", "R2")

    def validate(self) -> None:
        if self.horizon <= self.warmup:
            raise ConfigurationError("campaign horizon must exceed warmup")
        if not 1 <= self.min_actions <= self.max_actions:
            raise ConfigurationError(
                "need 1 <= min_actions <= max_actions, got "
                f"[{self.min_actions}, {self.max_actions}]"
            )
        if self.outage_max <= 0 or self.episode_max <= 0:
            raise ConfigurationError("episode bounds must be positive")
        for name, rate in [
            ("ack_loss_max", self.ack_loss_max),
            ("duplicate_max", self.duplicate_max),
            ("corrupt_max", self.corrupt_max),
        ]:
            if not 0 <= rate <= 1:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")


class CampaignRunner:
    """Draws seeded fault plans from a spec.

    >>> runner = CampaignRunner(seed=7)
    >>> plan = runner.plan_for(0)           # deterministic in (seed, 0)
    >>> plan.seed, len(plan) >= 1
    (7, True)
    """

    #: the sampleable fault kinds, in a fixed order (part of the
    #: determinism contract — reordering changes every sampled plan).
    KINDS = (
        "outage",
        "flap",
        "blackout",
        "ack-loss",
        "duplicate",
        "corrupt",
        "burst",
        "periodic",
        "timer-skew",
    )

    def __init__(self, seed: int, spec: CampaignSpec = CampaignSpec()):
        spec.validate()
        self.seed = seed
        self.spec = spec

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def plan_for(self, index: int) -> FaultPlan:
        """The ``index``-th plan of this campaign (pure in seed+index)."""
        spec = self.spec
        rng = RngStream(self.seed, f"campaign/{index}")
        count = rng.randint(spec.min_actions, spec.max_actions)
        plan = FaultPlan(seed=self.seed, name=f"campaign-{self.seed}-{index}")
        for _ in range(count):
            plan.add(self._sample_action(rng))
        return plan

    def plans(self, count: int) -> List[FaultPlan]:
        return [self.plan_for(i) for i in range(count)]

    def cell_specs(self, fn: str, count: int, args: Sequence = ()) -> List["TaskSpec"]:
        """Describe ``count`` campaign cells as runner task specs.

        Cell *i* calls ``fn(*args, i)`` — the plan index is the last
        positional argument, and the worker rebuilds plan *i* itself
        (``plan_for`` is pure in ``(seed, spec, index)``), so fanning a
        campaign out over a :class:`~repro.runner.SweepRunner` ships no
        plan objects across the process boundary and is bit-identical
        to drawing the plans serially.
        """
        from repro.runner import TaskSpec

        return [
            TaskSpec(fn=fn, args=(*args, i), label=f"campaign-{self.seed}-{i}")
            for i in range(count)
        ]

    def _window(self, rng: RngStream, max_len: float) -> Tuple[float, float]:
        """A [start, end) episode fully inside [warmup, horizon)."""
        spec = self.spec
        span = spec.horizon - spec.warmup
        length = rng.uniform(min(1.0, max_len), min(max_len, span))
        start = rng.uniform(spec.warmup, spec.horizon - length)
        return start, start + length

    def _sample_action(self, rng: RngStream) -> FaultAction:
        spec = self.spec
        kind = rng.choice(self.KINDS)
        if kind == "outage":
            start, _ = self._window(rng, spec.outage_max)
            return LinkOutage(
                link=rng.choice(spec.data_links),
                start=start,
                duration=rng.uniform(0.1, spec.outage_max),
            )
        if kind == "flap":
            start, _ = self._window(rng, spec.outage_max)
            return LinkFlap(
                link=rng.choice(spec.data_links),
                start=start,
                count=rng.randint(2, spec.flap_max_count),
                down=rng.uniform(0.05, spec.outage_max / spec.flap_max_count),
                up=rng.uniform(0.5, 2.0),
            )
        if kind == "blackout":
            start, _ = self._window(rng, spec.outage_max)
            return RouterBlackout(
                router=rng.choice(spec.routers),
                start=start,
                duration=rng.uniform(0.1, spec.outage_max),
            )
        if kind == "ack-loss":
            start, end = self._window(rng, spec.episode_max)
            return AckLossEpisode(
                link=rng.choice(spec.ack_links),
                rate=rng.uniform(0.01, spec.ack_loss_max),
                start=start,
                end=end,
            )
        if kind == "duplicate":
            start, end = self._window(rng, spec.episode_max)
            return PacketDuplication(
                link=rng.choice(spec.data_links),
                rate=rng.uniform(0.005, spec.duplicate_max),
                start=start,
                end=end,
            )
        if kind == "corrupt":
            start, end = self._window(rng, spec.episode_max)
            return PacketCorruption(
                link=rng.choice(spec.data_links),
                rate=rng.uniform(0.005, spec.corrupt_max),
                start=start,
                end=end,
            )
        if kind == "burst":
            start, end = self._window(rng, spec.episode_max)
            return BurstLossEpisode(
                link=rng.choice(spec.data_links),
                start=start,
                end=end,
                p_good_to_bad=rng.uniform(0.005, 0.03),
                p_bad_to_good=rng.uniform(0.2, 0.5),
                p_bad=rng.uniform(0.3, 0.6),
            )
        if kind == "periodic":
            start, end = self._window(rng, spec.episode_max)
            return PeriodicDropEpisode(
                link=rng.choice(spec.data_links),
                period=rng.randint(spec.periodic_min, spec.periodic_min * 3),
                start=start,
                end=end,
            )
        # timer-skew
        return TimerSkew(factor=rng.uniform(1.0, spec.timer_skew_max))
