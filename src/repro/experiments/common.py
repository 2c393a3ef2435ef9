"""Shared scenario plumbing for the experiment harnesses.

:func:`build_dumbbell_scenario` assembles the paper's Figure-4 world in
one call: the dumbbell, one TCP connection per host pair (each with a
:class:`~repro.metrics.flowstats.FlowStats` observer and an FTP
source), and drop watching on the trace bus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro._record import Record, field, replace
from repro.config import TcpConfig
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.app.ftp import FtpSource
    from repro.metrics.flowstats import FlowStats
    from repro.net.loss import LossModule
    from repro.net.queues import PacketQueue
    from repro.net.topology import Dumbbell, DumbbellParams
    from repro.sim.engine import Simulator
    from repro.tcp.base import TcpSender
    from repro.tcp.receiver import TcpReceiver


def known_variants(names: Sequence[str]) -> Tuple[str, ...]:
    """``names`` as a tuple, once each is known to name a TCP variant
    (:class:`~repro.errors.ConfigurationError` otherwise) — how the
    ``--variants`` harnesses reject a typo before building any cell."""
    from repro.tcp.factory import sender_class_for

    for name in names:
        sender_class_for(name)
    return tuple(names)


class FlowSpec(Record):
    """One connection in a scenario."""

    variant: str
    start_time: float = 0.0
    amount_packets: Optional[int] = None  # None = infinite backlog
    config: Optional[TcpConfig] = None


class ScenarioResult(Record):
    """Everything a scenario run leaves behind, keyed by flow id."""

    sim: Simulator
    dumbbell: Dumbbell
    senders: Dict[int, TcpSender] = field(default_factory=dict)
    receivers: Dict[int, TcpReceiver] = field(default_factory=dict)
    stats: Dict[int, FlowStats] = field(default_factory=dict)
    sources: Dict[int, FtpSource] = field(default_factory=dict)

    def flow(self, flow_id: int) -> Tuple[TcpSender, FlowStats]:
        return self.senders[flow_id], self.stats[flow_id]


def build_dumbbell_scenario(
    flows: Sequence[FlowSpec],
    params: Optional[DumbbellParams] = None,
    default_config: Optional[TcpConfig] = None,
    bottleneck_queue_factory: Optional[Callable[[str], PacketQueue]] = None,
    forward_loss: Optional[LossModule] = None,
    reverse_loss: Optional[LossModule] = None,
    sender_overrides: Optional[Dict[int, Type[TcpSender]]] = None,
    sim: Optional[Simulator] = None,
) -> ScenarioResult:
    """Build a ready-to-run dumbbell scenario.

    Flow ids are 1-based and map to host pairs (flow i runs S_i -> K_i),
    mirroring the paper's notation.  ``sender_overrides`` substitutes a
    custom sender class for specific flow ids (used by the ablation
    harness to plug in modified RR variants).  Pass ``sim`` when a
    component built before the scenario (e.g. a RED queue factory)
    needs to share the simulator.
    """
    # The simulator is imported here, not at module level, so a harness
    # whose cells all replay from the cache never loads it.
    from repro.app.ftp import FtpSource
    from repro.metrics.flowstats import FlowStats
    from repro.net.topology import Dumbbell, DumbbellParams
    from repro.sim.engine import Simulator
    from repro.tcp.factory import VARIANTS, make_connection

    if not flows:
        raise ConfigurationError("scenario needs at least one flow")
    if sim is None:
        sim = Simulator()
    topo_params = params or DumbbellParams()
    if topo_params.n_pairs < len(flows):
        topo_params = replace(topo_params, n_pairs=len(flows))
    bell = Dumbbell(
        sim,
        topo_params,
        bottleneck_queue_factory=bottleneck_queue_factory,
        forward_loss=forward_loss,
        reverse_loss=reverse_loss,
    )
    result = ScenarioResult(sim=sim, dumbbell=bell)
    overrides = sender_overrides or {}
    for index, spec in enumerate(flows, start=1):
        flow_id = index
        config = spec.config or default_config
        stats = FlowStats(flow_id=flow_id)
        stats.watch_drops(bell.net.trace)
        if flow_id in overrides:
            sender_cls = overrides[flow_id]
            receiver_cls = VARIANTS[spec.variant][1]
            sender = sender_cls(
                sim,
                flow_id,
                bell.receiver(flow_id).name,
                config=config,
                observer=stats,
                trace=bell.net.trace,
            )
            receiver = receiver_cls(sim, flow_id, config=config)
            bell.sender(flow_id).register(sender)
            bell.receiver(flow_id).register(receiver)
        else:
            sender, receiver = make_connection(
                sim,
                spec.variant,
                flow_id,
                bell.sender(flow_id),
                bell.receiver(flow_id),
                config=config,
                observer=stats,
                trace=bell.net.trace,
            )
        source = FtpSource(
            sim, sender, amount_packets=spec.amount_packets, start_time=spec.start_time
        )
        result.senders[flow_id] = sender
        result.receivers[flow_id] = receiver
        result.stats[flow_id] = stats
        result.sources[flow_id] = source
    return result


#: The four schemes the paper's evaluation compares (Section 3).
PAPER_VARIANTS: List[str] = ["tahoe", "newreno", "sack", "rr"]
