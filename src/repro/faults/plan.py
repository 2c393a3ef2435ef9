"""Declarative fault plans.

A :class:`FaultPlan` is a seeded, composable schedule of fault actions
that installs itself onto any built topology.  Actions are plain
records — a plan is data until :meth:`FaultPlan.install` wires it
into a concrete :class:`~repro.net.network.Network` — so the same plan
can be replayed against every TCP variant, printed into a report, or
merged with another plan (``plan_a + plan_b``).

The action vocabulary covers the paper's adversarial conditions and
the classic chaos repertoire:

* :class:`LinkOutage` / :class:`LinkFlap` — raw loss bursts on one link
  (the "channel blackouts" of mobile-network recovery studies);
* :class:`RouterBlackout` — every link touching a router goes dark;
* :class:`AckLossEpisode` — reverse-path ACK loss (paper §2.3);
* :class:`PacketDuplication` / :class:`PacketCorruption` — a flaky
  middlebox duplicating or mangling data packets;
* :class:`BurstLossEpisode` — a Gilbert-Elliott bad-state channel for a
  bounded window;
* :class:`PeriodicDropEpisode` — the Mathis model's literal loss
  process, time-bounded;
* :class:`TimerSkew` — RTO clock-granularity skew between hosts
  (pathological timing regimes, cf. Jain's divergence analysis).

Randomness is derived per-action from the plan's seed, never shared:
installing the same plan twice yields bit-identical behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro._record import Record, field
from repro.errors import ConfigurationError, TopologyError
from repro.faults.tamper import PacketTamperer
from repro.net.link import Link
from repro.net.loss import (
    AckLoss,
    Composite,
    GilbertElliott,
    LossModule,
    NoLoss,
    PeriodicLoss,
    WindowedLoss,
)
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream


class _TamperChain:
    """Consult several tamperers in order (first non-None verdict wins)."""

    def __init__(self, *tamperers: PacketTamperer):
        self.tamperers = list(tamperers)

    def verdict(self, packet):
        for tamperer in self.tamperers:
            verdict = tamperer.verdict(packet)
            if verdict is not None:
                return verdict
        return None

    @staticmethod
    def clone(packet):
        return PacketTamperer.clone(packet)


class FaultContext(Record):
    """Everything an action needs to install itself: the engine, the
    built network, and (for host-side faults) the senders by flow id."""

    sim: Simulator
    net: Network
    senders: Dict[int, object] = field(default_factory=dict)

    @classmethod
    def from_scenario(cls, scenario) -> "FaultContext":
        """Build from an :class:`~repro.experiments.common.ScenarioResult`."""
        return cls(
            sim=scenario.sim,
            net=scenario.dumbbell.net,
            senders=dict(scenario.senders),
        )

    def link(self, name: str) -> Link:
        try:
            return self.net.links[name]
        except KeyError:
            raise TopologyError(f"fault plan targets unknown link {name!r}") from None

    def links_of(self, node: str) -> List[Link]:
        """Every link into or out of ``node``."""
        if node not in self.net.nodes:
            raise TopologyError(f"fault plan targets unknown node {node!r}")
        prefix, suffix = f"{node}->", f"->{node}"
        return [
            link
            for name, link in self.net.links.items()
            if name.startswith(prefix) or name.endswith(suffix)
        ]

    def add_loss(self, link: Link, module: LossModule) -> None:
        """Compose ``module`` with whatever loss the link already has."""
        if isinstance(link.loss, NoLoss):
            link.loss = module
        elif isinstance(link.loss, Composite):
            link.loss.modules.append(module)
        else:
            link.loss = Composite(link.loss, module)

    def add_tamper(self, link: Link, tamperer: PacketTamperer) -> None:
        if link.tamper is None:
            link.tamper = tamperer
        elif isinstance(link.tamper, _TamperChain):
            link.tamper.tamperers.append(tamperer)
        else:
            link.tamper = _TamperChain(link.tamper, tamperer)


class FaultAction:
    """One declarative fault.  Subclasses are frozen records with
    an :meth:`install` wiring the fault into a built topology; ``rng``
    is this action's private stream, derived from the plan seed."""

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return repr(self)


class LinkOutage(FaultAction, Record, frozen=True):
    """The link goes dark for ``duration`` seconds at ``start``."""

    link: str
    start: float
    duration: float

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        ctx.link(self.link).schedule_outage(self.start, self.duration)

    def describe(self) -> str:
        return f"outage {self.link} [{self.start:.2f}s, +{self.duration:.2f}s]"


class LinkFlap(FaultAction, Record, frozen=True):
    """``count`` short outages of ``down`` seconds, ``up`` seconds
    apart — an unstable interface renegotiating."""

    link: str
    start: float
    count: int
    down: float
    up: float

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        if self.count < 1:
            raise ConfigurationError("flap count must be >= 1")
        link = ctx.link(self.link)
        t = self.start
        for _ in range(self.count):
            link.schedule_outage(t, self.down)
            t += self.down + self.up

    def describe(self) -> str:
        return (
            f"flap {self.link} x{self.count} from {self.start:.2f}s "
            f"({self.down:.2f}s down / {self.up:.2f}s up)"
        )


class RouterBlackout(FaultAction, Record, frozen=True):
    """Every link touching ``router`` goes dark — a rebooting gateway."""

    router: str
    start: float
    duration: float

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        links = ctx.links_of(self.router)
        if not links:
            raise TopologyError(f"router {self.router!r} has no links to black out")
        for link in links:
            link.schedule_outage(self.start, self.duration)

    def describe(self) -> str:
        return f"blackout {self.router} [{self.start:.2f}s, +{self.duration:.2f}s]"


class AckLossEpisode(FaultAction, Record, frozen=True):
    """i.i.d. ACK loss on a (reverse-path) link within a window."""

    link: str
    rate: float
    start: float = 0.0
    end: Optional[float] = None

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        module = WindowedLoss(
            ctx.sim, AckLoss(rate=self.rate, rng=rng), start=self.start, end=self.end
        )
        ctx.add_loss(ctx.link(self.link), module)

    def describe(self) -> str:
        end = "∞" if self.end is None else f"{self.end:.2f}s"
        return f"ack-loss {self.link} p={self.rate:.3f} [{self.start:.2f}s, {end})"


class PacketDuplication(FaultAction, Record, frozen=True):
    """Duplicate data packets on a link within a window."""

    link: str
    rate: float
    start: float = 0.0
    end: Optional[float] = None

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        ctx.add_tamper(
            ctx.link(self.link),
            PacketTamperer(
                ctx.sim, rng, duplicate_rate=self.rate, start=self.start, end=self.end
            ),
        )

    def describe(self) -> str:
        end = "∞" if self.end is None else f"{self.end:.2f}s"
        return f"duplicate {self.link} p={self.rate:.3f} [{self.start:.2f}s, {end})"


class PacketCorruption(FaultAction, Record, frozen=True):
    """Corrupt (checksum-drop) data packets on a link within a window."""

    link: str
    rate: float
    start: float = 0.0
    end: Optional[float] = None

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        ctx.add_tamper(
            ctx.link(self.link),
            PacketTamperer(
                ctx.sim, rng, corrupt_rate=self.rate, start=self.start, end=self.end
            ),
        )

    def describe(self) -> str:
        end = "∞" if self.end is None else f"{self.end:.2f}s"
        return f"corrupt {self.link} p={self.rate:.3f} [{self.start:.2f}s, {end})"


class BurstLossEpisode(FaultAction, Record, frozen=True):
    """A Gilbert-Elliott bursty channel on a link for a bounded window."""

    link: str
    start: float
    end: float
    p_good_to_bad: float = 0.02
    p_bad_to_good: float = 0.3
    p_bad: float = 0.5

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        inner = GilbertElliott(
            rng,
            p_good_to_bad=self.p_good_to_bad,
            p_bad_to_good=self.p_bad_to_good,
            p_bad=self.p_bad,
        )
        ctx.add_loss(
            ctx.link(self.link),
            WindowedLoss(ctx.sim, inner, start=self.start, end=self.end),
        )

    def describe(self) -> str:
        return (
            f"burst-loss {self.link} [{self.start:.2f}s, {self.end:.2f}s) "
            f"g→b={self.p_good_to_bad:.3f} b→g={self.p_bad_to_good:.3f} "
            f"p_bad={self.p_bad:.2f}"
        )


class PeriodicDropEpisode(FaultAction, Record, frozen=True):
    """Every ``period``-th first-transmission data packet dropped,
    within a window."""

    link: str
    period: int
    start: float = 0.0
    end: Optional[float] = None

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        ctx.add_loss(
            ctx.link(self.link),
            WindowedLoss(ctx.sim, PeriodicLoss(self.period), start=self.start, end=self.end),
        )

    def describe(self) -> str:
        end = "∞" if self.end is None else f"{self.end:.2f}s"
        return f"periodic-drop {self.link} 1/{self.period} [{self.start:.2f}s, {end})"


class TimerSkew(FaultAction, Record, frozen=True):
    """Scale the RTO timer granularity of every sender (or one flow):
    coarse, skewed retransmission clocks."""

    factor: float
    flow_id: Optional[int] = None

    def install(self, ctx: FaultContext, rng: RngStream) -> None:
        if self.factor <= 0:
            raise ConfigurationError("timer skew factor must be > 0")
        for flow_id, sender in ctx.senders.items():
            if self.flow_id is not None and flow_id != self.flow_id:
                continue
            sender.set_timer_granularity(sender.timer_granularity * self.factor)

    def describe(self) -> str:
        scope = "all flows" if self.flow_id is None else f"flow {self.flow_id}"
        return f"timer-skew x{self.factor:.2f} ({scope})"


class FaultPlan(Record):
    """A seeded, composable schedule of fault actions.

    ``seed`` drives every stochastic action through per-action derived
    streams; two installs of the same plan are bit-identical, and
    actions never share randomness (adding one cannot perturb another).
    """

    seed: int
    actions: List[FaultAction] = field(default_factory=list)
    name: str = "plan"

    def add(self, action: FaultAction) -> "FaultPlan":
        """Append an action (fluent)."""
        self.actions.append(action)
        return self

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        """Compose two plans; the left plan's seed and name win."""
        return FaultPlan(
            seed=self.seed,
            actions=list(self.actions) + list(other.actions),
            name=self.name,
        )

    def __len__(self) -> int:
        return len(self.actions)

    def install(self, ctx: FaultContext) -> None:
        """Wire every action into the built topology."""
        for index, action in enumerate(self.actions):
            rng = RngStream(
                self.seed, f"{self.name}/{index}/{type(action).__name__}"
            )
            action.install(ctx, rng)

    def describe(self) -> str:
        lines = [f"fault plan {self.name!r} (seed {self.seed}, {len(self.actions)} actions)"]
        for action in self.actions:
            lines.append(f"  - {action.describe()}")
        return "\n".join(lines)
