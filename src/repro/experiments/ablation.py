"""Ablation study: which of RR's design choices buy the performance?

DESIGN.md calls out four load-bearing choices; each gets a modified RR
sender and runs through the Figure-5 6-drop scenario plus the Figure-6
RED scenario:

* ``rr`` — the full algorithm (baseline);
* ``rr-noprobe-growth`` — a clean RTT boundary neither sends the extra
  packet nor increments ``actnum`` (no linear probing for the new
  equilibrium: tests the claim that probing, not just loss repair,
  drives RR's link utilisation);
* ``rr-retreat-always`` — keeps the retreat policy (one new packet per
  *two* duplicate ACKs) for the whole recovery, New-Reno-style
  exponential decay (tests "exponential decrease is applied only during
  the first RTT");
* ``rr-reset-on-loss`` — on a further-loss detection collapses
  ``actnum`` to zero instead of the linear ``actnum = ndup`` shrink
  (tests the "treat bursty losses as a single congestion signal" rule);
* ``rr-burst-exit`` — exits with ``cwnd = ssthresh`` (as New-Reno/SACK
  do) instead of ``cwnd = actnum`` (tests the big-ACK-burst
  elimination).

Each overrides exactly one of RR's decision methods and reuses the rest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro._record import Record, field
from repro.config import TcpConfig
from repro.core.robust_recovery import RobustRecoverySender, RrPhase
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.throughput import goodput_bps, loss_recovery_span, loss_recovery_throughput
from repro.net.loss import DeterministicLoss
from repro.net.topology import DumbbellParams
from repro.runner import SweepRunner, TaskSpec
from repro.viz.ascii import format_table


class RrNoProbeGrowth(RobustRecoverySender):
    """RR without the linear probe: a clean RTT boundary neither sends
    the extra packet nor grows actnum."""

    variant = "rr-noprobe-growth"

    def _grow_on_clean_rtt(self) -> None:
        pass


class RrRetreatAlways(RobustRecoverySender):
    """RR that stays exponential (1 new pkt / 2 dups) in every recovery
    RTT — the New-Reno decay the paper argues against."""

    variant = "rr-retreat-always"

    def _recovery_dupack(self, packet) -> None:
        self.ndup += 1
        if self.ndup % 2 == 0:
            sent = self._send_one_new()
            self._sent_this_rtt += sent
            if self.phase is RrPhase.RETREAT:
                self._retreat_sent += sent


class RrResetOnLoss(RobustRecoverySender):
    """RR that collapses actnum to 0 on a further-loss detection,
    treating every loss as a fresh congestion signal."""

    variant = "rr-reset-on-loss"

    def _actnum_after_loss(self) -> int:
        return 0


class RrBurstExit(RobustRecoverySender):
    """RR that exits with cwnd = ssthresh (the big-ACK burst returns)."""

    variant = "rr-burst-exit"

    def _exit_cwnd(self) -> float:
        return self.ssthresh


ABLATIONS: Dict[str, Type[RobustRecoverySender]] = {
    "rr": RobustRecoverySender,
    "rr-noprobe-growth": RrNoProbeGrowth,
    "rr-retreat-always": RrRetreatAlways,
    "rr-reset-on-loss": RrResetOnLoss,
    "rr-burst-exit": RrBurstExit,
}


class AblationConfig(Record):
    """Knobs for the ablation harness."""

    ablations: Sequence[str] = tuple(ABLATIONS)
    burst_drops: int = 6
    first_drop_seq: int = 100
    transfer_packets: int = 600
    fixed_window_seconds: float = 2.0
    sim_duration: float = 120.0


class AblationRow(Record):
    name: str
    recovery_throughput_bps: Optional[float]
    window_throughput_bps: Optional[float]
    timeouts: int
    max_burst_after_exit: int


class AblationResult(Record):
    config: AblationConfig
    rows: List[AblationRow] = field(default_factory=list)


def _exit_burst(stats) -> int:
    """Largest number of packets sent within 1 ms of a recovery exit —
    quantifies the big-ACK burst."""
    biggest = 0
    for episode in stats.episodes:
        if episode.exit_time is None:
            continue
        burst = sum(
            1
            for t, _, _ in stats.send_series
            if episode.exit_time <= t <= episode.exit_time + 0.001
        )
        biggest = max(biggest, burst)
    return biggest


def run_one(name: str, config: AblationConfig) -> AblationRow:
    sender_cls = ABLATIONS[name]
    loss = DeterministicLoss(
        [(1, config.first_drop_seq + i) for i in range(config.burst_drops)]
    )
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant="rr", amount_packets=config.transfer_packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        forward_loss=loss,
        sender_overrides={1: sender_cls},
    )
    scenario.sim.run(until=config.sim_duration)
    sender, stats = scenario.flow(1)
    span = loss_recovery_span(stats)
    window_bps = None
    if span is not None:
        window_bps = goodput_bps(stats, span[0], span[0] + config.fixed_window_seconds)
    return AblationRow(
        name=name,
        recovery_throughput_bps=loss_recovery_throughput(stats),
        window_throughput_bps=window_bps,
        timeouts=sender.timeouts,
        max_burst_after_exit=_exit_burst(stats),
    )


def run_ablation(
    config: Optional[AblationConfig] = None,
    runner: Optional[SweepRunner] = None,
    manifest: Optional["RunManifest"] = None,
) -> AblationResult:
    config = config or AblationConfig()
    runner = runner or SweepRunner()
    result = AblationResult(config=config)
    if manifest is not None:
        manifest.describe_harness("ablation", config=config)
    specs = [
        TaskSpec(
            fn="repro.experiments.ablation:run_one",
            args=(name, config),
            label=f"ablation {name}",
        )
        for name in config.ablations
    ]
    result.rows.extend(runner.map(specs))
    return result


def format_report(result: AblationResult) -> str:
    lines = [
        "Ablation — RR design choices",
        f"({result.config.burst_drops}-drop burst, drop-tail dumbbell)",
        "",
    ]
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.name,
                f"{row.recovery_throughput_bps / 1000:.1f}" if row.recovery_throughput_bps else "-",
                f"{row.window_throughput_bps / 1000:.1f}" if row.window_throughput_bps else "-",
                row.timeouts,
                row.max_burst_after_exit,
            ]
        )
    lines.append(
        format_table(
            ["configuration", "recovery kbps", "2s-window kbps", "RTOs", "exit burst"],
            rows,
        )
    )
    lines.append("")
    lines.append(
        "expected: full RR leads; retreat-always decays like New-Reno;"
        " burst-exit shows a packet burst at recovery exit."
    )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = AblationConfig()
    if args.quick:
        config.transfer_packets = 300
        config.sim_duration = 30.0
    result = run_ablation(config, runner=runner, manifest=manifest)
    return format_report(result), None, None
