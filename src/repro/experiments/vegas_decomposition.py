"""Extension experiment: where does Vegas' gain come from?

The paper's introduction leans on Hengartner et al. [8]: "the
performance gain of TCP Vegas over TCP Reno is due mainly to TCP Vegas'
new techniques for slow-start and congestion recovery ... not the
innovative congestion-avoidance mechanism" — which is the motivation
for attacking the *recovery* path rather than inventing another CA.

This harness replays that decomposition with our Vegas implementation's
per-mechanism switches.  Each configuration transfers the same bounded
file through the paper's dumbbell with an engineered loss burst plus
emergent queue losses, so both the avoidance and the recovery machinery
matter:

* ``reno``           — the baseline;
* ``vegas``          — everything on;
* ``vegas-ca-only``  — delay-based CA, classic slow start, no
  expedited retransmit (the "innovative CA" in isolation);
* ``vegas-rec-only`` — expedited retransmit + Vegas slow start, Reno
  CA (the loss-avoidance/recovery techniques in isolation).

Expected shape ([8] via the paper): ``vegas-rec-only`` captures most of
Vegas' improvement over Reno; ``vegas-ca-only`` alone contributes the
rest mainly by *avoiding* self-induced losses on an uncontended path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.loss import DeterministicLoss
from repro.net.topology import DumbbellParams
from repro.runner import SweepRunner, TaskSpec
from repro.tcp.reno import RenoSender
from repro.tcp.vegas import VegasSender
from repro.viz.ascii import format_table


class VegasCaOnly(VegasSender):
    """Delay-based CA only; recovery-side tricks disabled."""

    variant = "vegas-ca-only"
    enable_vegas_ca = True
    enable_vegas_ss = False
    enable_expedited_rtx = False


class VegasRecoveryOnly(VegasSender):
    """Vegas' slow-start + expedited retransmit; Reno-style CA."""

    variant = "vegas-rec-only"
    enable_vegas_ca = False
    enable_vegas_ss = True
    enable_expedited_rtx = True


CONFIGURATIONS: Dict[str, Type[RenoSender]] = {
    "reno": RenoSender,
    "vegas": VegasSender,
    "vegas-ca-only": VegasCaOnly,
    "vegas-rec-only": VegasRecoveryOnly,
}


@dataclass
class VegasDecompositionConfig:
    configurations: Sequence[str] = tuple(CONFIGURATIONS)
    transfer_packets: int = 400
    burst_drops: int = 3
    first_drop_seq: int = 120
    buffer_packets: int = 10     # small buffer: slow-start overshoot bites
    sim_duration: float = 120.0


@dataclass
class VegasDecompositionRow:
    name: str
    complete_time: Optional[float]
    retransmits: int
    timeouts: int
    drops_observed: int


@dataclass
class VegasDecompositionResult:
    config: VegasDecompositionConfig
    rows: List[VegasDecompositionRow] = field(default_factory=list)

    def row(self, name: str) -> VegasDecompositionRow:
        return next(r for r in self.rows if r.name == name)


def run_one(name: str, config: VegasDecompositionConfig) -> VegasDecompositionRow:
    sender_cls = CONFIGURATIONS[name]
    loss = DeterministicLoss(
        [(1, config.first_drop_seq + i) for i in range(config.burst_drops)]
    )
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant="reno", amount_packets=config.transfer_packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=config.buffer_packets),
        default_config=TcpConfig(receiver_window=64),
        forward_loss=loss,
        sender_overrides={1: sender_cls},
    )
    scenario.sim.run(until=config.sim_duration)
    sender, stats = scenario.flow(1)
    return VegasDecompositionRow(
        name=name,
        complete_time=sender.complete_time,
        retransmits=sender.retransmits,
        timeouts=sender.timeouts,
        drops_observed=stats.drops_observed,
    )


def run_vegas_decomposition(
    config: Optional[VegasDecompositionConfig] = None,
    runner: Optional[SweepRunner] = None,
    manifest: Optional["RunManifest"] = None,
) -> VegasDecompositionResult:
    config = config or VegasDecompositionConfig()
    runner = runner or SweepRunner()
    result = VegasDecompositionResult(config=config)
    if manifest is not None:
        manifest.describe_harness("vegas", config=config)
    specs = [
        TaskSpec(
            fn="repro.experiments.vegas_decomposition:run_one",
            args=(name, config),
            label=f"vegas {name}",
        )
        for name in config.configurations
    ]
    result.rows.extend(runner.map(specs))
    return result


def format_report(result: VegasDecompositionResult) -> str:
    config = result.config
    lines = [
        "Vegas decomposition — which mechanism buys the gain? (paper §1 / ref [8])",
        f"({config.transfer_packets}-packet transfer, {config.burst_drops}-drop burst,"
        f" {config.buffer_packets}-packet buffer)",
        "",
    ]
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.name,
                f"{row.complete_time:.2f}" if row.complete_time else "DNF",
                row.drops_observed,
                row.retransmits,
                row.timeouts,
            ]
        )
    lines.append(
        format_table(["configuration", "done at s", "drops", "rtx", "RTOs"], rows)
    )
    lines.append("")
    lines.append(
        "expected ([8]): the recovery/slow-start techniques, not the delay-based"
        " CA alone, account for most of Vegas' edge over Reno."
    )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = VegasDecompositionConfig()
    if args.quick:
        config.transfer_packets = 200
        config.sim_duration = 60.0
    result = run_vegas_decomposition(config, runner=runner, manifest=manifest)
    return format_report(result), None, None
