"""Shared test fixtures and helpers.

The TCP unit tests drive senders directly — a :class:`StubHost`
captures outgoing packets and ACKs are fed by hand — so each state
transition can be asserted without a network in between.  Integration
tests use the real dumbbell via :func:`repro.experiments.common.
build_dumbbell_scenario`.
"""

from __future__ import annotations

from typing import List, Optional, Type

import pytest

from repro.config import TcpConfig
from repro.net.packet import Packet, SackBlock, ack_packet
from repro.sim.engine import Simulator
from repro.tcp.base import TcpSender


class StubHost:
    """Captures everything a sender transmits."""

    def __init__(self, name: str = "S1"):
        self.name = name
        self.sent: List[Packet] = []

    def send(self, packet: Packet) -> None:
        self.sent.append(packet)

    # --- helpers for assertions -------------------------------------
    def data_seqs(self) -> List[int]:
        return [p.seqno for p in self.sent if p.is_data]

    def new_data_seqs(self) -> List[int]:
        return [p.seqno for p in self.sent if p.is_data and not p.is_retransmit]

    def retransmit_seqs(self) -> List[int]:
        return [p.seqno for p in self.sent if p.is_data and p.is_retransmit]

    def clear(self) -> None:
        self.sent.clear()


class SenderHarness:
    """A sender wired to a StubHost with manual ACK injection."""

    def __init__(
        self,
        sender_cls: Type[TcpSender],
        config: Optional[TcpConfig] = None,
        flow_id: int = 1,
    ):
        self.sim = Simulator()
        self.config = config or TcpConfig()
        self.host = StubHost()
        self.sender = sender_cls(self.sim, flow_id, "K1", config=self.config)
        self.sender.attach(self.host)

    def start(self) -> None:
        self.sender.start()

    def ack(self, ackno: int, sacks=None, ecn_echo: bool = False) -> None:
        """Deliver a cumulative ACK (with optional SACK blocks and ECN
        echo) to the sender."""
        blocks = [SackBlock(a, b) for a, b in (sacks or [])]
        packet = ack_packet(self.sender.flow_id, "K1", "S1", ackno, sack_blocks=blocks)
        packet.ecn_echo = ecn_echo
        self.sender.receive(packet)

    def dupacks(self, ackno: int, count: int, sacks=None) -> None:
        for _ in range(count):
            self.ack(ackno, sacks=sacks)

    def advance(self, seconds: float) -> None:
        """Advance simulated time (fires pending timers)."""
        self.sim.run(until=self.sim.now + seconds)


@pytest.fixture(autouse=True)
def _isolated_artifact_dir(tmp_path, monkeypatch):
    """Point run-telemetry output (manifests, heartbeats, chaos dumps)
    at a per-test directory, so tests exercising the CLI or the obs
    layer never write into the repo checkout or a CI artifact tree."""
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def harness_factory():
    """Factory fixture: ``harness_factory(SenderCls, config=...)``."""
    return SenderHarness
