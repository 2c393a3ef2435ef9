"""Extension experiment: the effect of ACK losses (paper Section 2.3).

RR relies on returning duplicate ACKs to clock out new data during
recovery, so the paper argues:

* rare ACK losses cause only a *linear* slowdown — an ACK loss makes
  ``ndup`` undercount, which RR reads as a further data loss and
  answers with a linear ``actnum`` shrink (never a multiplicative cut);
* New-Reno is hit harder (its inflated-window arithmetic starves);
* SACK is the least vulnerable but still times out if the ACK of a
  retransmission is lost.

This harness injects i.i.d. ACK losses on the reverse bottleneck path
at increasing rates while the forward path engineers a 4-drop burst,
then reports goodput and timeout counts per scheme.

ACK losses switch on just before the engineered burst (the warm-start
capture point): every cell of one variant shares the same clean
slow-start prefix — the forward burst is programmed identically
everywhere, so only the reverse-path loss module differs per cell —
and the measured window (``measure_seconds`` from loss detection) sees
the ACK-loss process throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.config import TcpConfig
from repro.errors import SnapshotError
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.throughput import goodput_bps
from repro.net.loss import AckLoss, DeterministicLoss
from repro.net.packet import set_uid_state
from repro.runner.grid import GridCell, run_grid, step_until
from repro.sim.rng import RngStream
from repro.viz.ascii import format_table


@dataclass
class AckLossConfig:
    """Knobs for the ACK-loss study."""

    variants: Sequence[str] = ("newreno", "sack", "rr")
    ack_loss_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2)
    burst_drops: int = 4
    first_drop_seq: int = 100
    transfer_packets: int = 600
    measure_seconds: float = 4.0
    seed: int = 23
    runs_per_point: int = 3
    sim_duration: float = 120.0


@dataclass
class AckLossRow:
    variant: str
    ack_loss_rate: float
    goodput_bps: float
    timeouts: float
    completed_ratio: float


@dataclass
class AckLossResult:
    config: AckLossConfig
    rows: List[AckLossRow] = field(default_factory=list)


#: Safety margin (packets) the warm-up capture keeps below the first
#: engineered drop (same rationale as the Figure-5 harness).
WARM_MARGIN_PACKETS = 20

#: Step size (seconds) of the warm-up capture loop.
WARM_STEP_SECONDS = 0.02


def prefix_world(variant: str, config: AckLossConfig):
    """Build one variant's cell with the engineered forward burst
    programmed (identical in every cell) and a still-inert reverse
    path, and step it to just before the first drop."""
    from repro.net.topology import DumbbellParams

    set_uid_state(1)
    forward = DeterministicLoss(
        [(1, config.first_drop_seq + i) for i in range(config.burst_drops)]
    )
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=config.transfer_packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=TcpConfig(receiver_window=64, initial_ssthresh=20.0),
        forward_loss=forward,
    )
    sender = scenario.senders[1]
    target = config.first_drop_seq - WARM_MARGIN_PACKETS
    step_until(
        scenario.sim,
        lambda: sender.maxseq >= target,
        step=WARM_STEP_SECONDS,
        deadline=config.sim_duration,
    )
    if sender.maxseq >= config.first_drop_seq:
        raise SnapshotError(
            f"warm-up overran the engineered burst: maxseq={sender.maxseq} >= "
            f"first_drop_seq={config.first_drop_seq}"
        )
    return scenario


def _measure_from(scenario, variant: str, ack_rate: float, run: int, config: AckLossConfig):
    """Arm the cell's reverse-path ACK losses and finish the run."""
    rng = RngStream(config.seed + run, f"ackloss-{variant}-{ack_rate}")
    scenario.dumbbell.reverse_link.loss = AckLoss(rate=ack_rate, rng=rng)
    scenario.sim.run(until=config.sim_duration)
    sender, stats = scenario.flow(1)
    # Goodput over a fixed window starting at the engineered burst.
    t_loss = next(
        (t for t, _, retransmit in stats.send_series if retransmit), None
    )
    if t_loss is None:
        t_loss = 0.0
    return (
        goodput_bps(stats, t_loss, t_loss + config.measure_seconds),
        sender.timeouts,
        1.0 if sender.completed else 0.0,
    )


def finish_point(
    fresh_world, variant: str, ack_rate: float, config: AckLossConfig
) -> AckLossRow:
    """Average ``runs_per_point`` seeds for one (variant, rate) point,
    each run on its own copy of the clean pre-burst prefix."""
    measurements = [
        _measure_from(fresh_world(), variant, ack_rate, run, config)
        for run in range(config.runs_per_point)
    ]
    goodputs, timeouts, completions = zip(*measurements)
    n = len(goodputs)
    return AckLossRow(
        variant=variant,
        ack_loss_rate=ack_rate,
        goodput_bps=sum(goodputs) / n,
        timeouts=sum(timeouts) / n,
        completed_ratio=sum(completions) / n,
    )


def run_point(variant: str, ack_rate: float, config: AckLossConfig) -> AckLossRow:
    """One (variant, rate) point from t=0."""
    return finish_point(lambda: prefix_world(variant, config), variant, ack_rate, config)


def run_ackloss(
    config: Optional[AckLossConfig] = None,
    runner: Optional["SweepRunner"] = None,
    warm_start: bool = False,
    store: Optional["SnapshotStore"] = None,
    manifest: Optional["RunManifest"] = None,
) -> AckLossResult:
    """Regenerate the ACK-loss grid.

    With a true ``warm_start`` the clean slow-start prefix (forward
    burst programmed, reverse path still inert) is simulated once per
    variant and every ``ack_loss_rates x runs_per_point`` cell forks it
    — bit-identical rows.
    """
    config = config or AckLossConfig()
    if manifest is not None:
        manifest.describe_harness("ackloss", config=config, seed=config.seed)
    cells = [
        GridCell(
            "repro.experiments.ackloss:prefix_world",
            (variant, config),
            "repro.experiments.ackloss:finish_point",
            (variant, rate, config),
            label=f"ackloss {variant}/{rate}",
        )
        for variant in config.variants
        for rate in config.ack_loss_rates
    ]
    rows = run_grid(cells, runner, warm_start, store)
    return AckLossResult(config=config, rows=rows)


def format_report(result: AckLossResult) -> str:
    config = result.config
    lines = [
        "Section 2.3 extension — robustness to ACK losses",
        f"(engineered {config.burst_drops}-drop burst + i.i.d. reverse-path ACK"
        f" loss; goodput over {config.measure_seconds:.0f}s from loss detection)",
        "",
    ]
    rows = []
    for rate in config.ack_loss_rates:
        row: List[object] = [f"{rate * 100:.0f}%"]
        for variant in config.variants:
            cell = next(
                r for r in result.rows
                if r.variant == variant and r.ack_loss_rate == rate
            )
            row.append(f"{cell.goodput_bps / 1000:.0f}")
            row.append(f"{cell.timeouts:.1f}")
        rows.append(row)
    headers: List[str] = ["ACK loss"]
    for variant in config.variants:
        headers += [f"{variant} kbps", f"{variant} RTOs"]
    lines.append(format_table(headers, rows))
    lines.append("")
    lines.append(
        "paper shape: RR degrades gracefully (linear shrink on false further-loss"
        " signals) and keeps outperforming New-Reno as ACK loss grows."
    )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = AckLossConfig()
    if args.quick:
        config.ack_loss_rates = (0.0, 0.1)
        config.runs_per_point = 1
        config.sim_duration = 30.0
    result = run_ackloss(config, runner=runner, manifest=manifest)
    return format_report(result), None, None
