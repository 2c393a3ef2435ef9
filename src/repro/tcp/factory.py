"""Variant registry: build matched sender/receiver pairs by name.

The paper's evaluation names four schemes — Tahoe, (New-)Reno, SACK and
RR — plus the two introduction-discussed tweaks we ship as extras.
``make_connection`` wires a sender on one host to a receiver on another
and returns both agents.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.config import TcpConfig
from repro.core.robust_recovery import RobustRecoverySender
from repro.errors import ConfigurationError
from repro.net.node import Host
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceBus
from repro.tcp.base import SenderObserver, TcpSender
from repro.tcp.cubic import CubicSender
from repro.tcp.newreno import NewRenoSender
from repro.tcp.receiver import SackReceiver, TcpReceiver
from repro.tcp.relentless import RelentlessSender
from repro.tcp.reno import RenoSender
from repro.tcp.rightedge import LinKungSender, RightEdgeSender
from repro.tcp.sack import SackRfc3517Sender, SackSender
from repro.tcp.tahoe import TahoeSender
from repro.tcp.vegas import VegasSender

#: variant name -> (sender class, receiver class)
VARIANTS: Dict[str, Tuple[Type[TcpSender], Type[TcpReceiver]]] = {
    "tahoe": (TahoeSender, TcpReceiver),
    "reno": (RenoSender, TcpReceiver),
    "newreno": (NewRenoSender, TcpReceiver),
    "sack": (SackSender, SackReceiver),
    "sack3517": (SackRfc3517Sender, SackReceiver),
    "rr": (RobustRecoverySender, TcpReceiver),
    "rightedge": (RightEdgeSender, TcpReceiver),
    "linkung": (LinKungSender, TcpReceiver),
    "vegas": (VegasSender, TcpReceiver),
    # Post-paper senders (see docs/ALGORITHMS.md):
    "cubic": (CubicSender, TcpReceiver),
    "relentless": (RelentlessSender, TcpReceiver),
}


def sender_class_for(variant: str) -> Type[TcpSender]:
    try:
        return VARIANTS[variant][0]
    except KeyError:
        raise ConfigurationError(
            f"unknown TCP variant {variant!r}; choose from {sorted(VARIANTS)}"
        ) from None


def receiver_class_for(variant: str) -> Type[TcpReceiver]:
    try:
        return VARIANTS[variant][1]
    except KeyError:
        raise ConfigurationError(
            f"unknown TCP variant {variant!r}; choose from {sorted(VARIANTS)}"
        ) from None


def make_connection(
    sim: Simulator,
    variant: str,
    flow_id: int,
    src_host: Host,
    dst_host: Host,
    config: Optional[TcpConfig] = None,
    observer: Optional[SenderObserver] = None,
    trace: Optional[TraceBus] = None,
) -> Tuple[TcpSender, TcpReceiver]:
    """Create and register a sender on ``src_host`` and the matching
    receiver on ``dst_host``.  Note that only RR and the other
    sender-side schemes leave the receiver untouched; SACK swaps in a
    SACK-capable receiver — the deployment cost the paper highlights.
    """
    sender_cls = sender_class_for(variant)
    receiver_cls = receiver_class_for(variant)
    sender = sender_cls(
        sim, flow_id, dst_host.name, config=config, observer=observer, trace=trace
    )
    receiver = receiver_cls(sim, flow_id, config=config)
    src_host.register(sender)
    dst_host.register(receiver)
    return sender, receiver
