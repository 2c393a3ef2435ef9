"""Extension experiment: recovery schemes on a Gilbert-Elliott bursty
channel.

The paper's opening premise is that "bursty packet losses are reported
to be common" [18] and that surviving them without timeouts is the key
to TCP performance.  Figures 5/6 engineer specific bursts; this sweep
stresses the schemes on a *channel whose loss process is inherently
bursty* (two-state Markov), across mean burst lengths at a fixed
stationary loss rate.

Expected shape: at equal average loss, longer bursts hurt every scheme,
but the gap between {RR, SACK} and {New-Reno, Reno} widens with burst
length — exactly the regime the paper targets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro._record import Record, field
from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.throughput import effective_throughput_bps
from repro.net.loss import GilbertElliott
from repro.net.topology import DumbbellParams
from repro.runner import SweepRunner, TaskSpec
from repro.sim.rng import RngStream
from repro.viz.ascii import format_table


class BurstChannelConfig(Record):
    variants: Sequence[str] = ("reno", "newreno", "sack", "rr")
    #: mean bad-state burst lengths to sweep (packets)
    burst_lengths: Sequence[float] = (1.0, 2.0, 4.0)
    target_loss_rate: float = 0.02
    p_bad: float = 0.5
    transfer_packets: int = 400
    runs_per_point: int = 3
    seed: int = 31
    sim_duration: float = 600.0


class BurstChannelRow(Record):
    variant: str
    burst_length: float
    throughput_bps: float
    timeouts: float
    completed_ratio: float


class BurstChannelResult(Record):
    config: BurstChannelConfig
    rows: List[BurstChannelRow] = field(default_factory=list)

    def cell(self, variant: str, burst_length: float) -> BurstChannelRow:
        return next(
            r for r in self.rows
            if r.variant == variant and r.burst_length == burst_length
        )


def _chain_params(target_rate: float, burst_length: float, p_bad: float):
    """Solve the two-state chain for a given stationary loss rate and
    mean bad-burst length: pi_bad * p_bad = target, E[burst] = 1/p_b2g.
    """
    p_bad_to_good = 1.0 / burst_length
    pi_bad = target_rate / p_bad
    # pi_bad = p_g2b / (p_g2b + p_b2g)  ->  p_g2b = pi_bad*p_b2g/(1-pi_bad)
    p_good_to_bad = pi_bad * p_bad_to_good / (1.0 - pi_bad)
    return p_good_to_bad, p_bad_to_good


def run_point(variant: str, burst_length: float, config: BurstChannelConfig) -> BurstChannelRow:
    p_g2b, p_b2g = _chain_params(config.target_loss_rate, burst_length, config.p_bad)
    throughputs, timeouts, completions = [], [], []
    for run in range(config.runs_per_point):
        # Stream name deliberately excludes the variant: every scheme
        # faces the same channel realization per seed (paired design).
        rng = RngStream(config.seed + run, f"ge-{burst_length}")
        channel = GilbertElliott(
            rng,
            p_good_to_bad=p_g2b,
            p_bad_to_good=p_b2g,
            p_bad=config.p_bad,
        )
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant=variant, amount_packets=config.transfer_packets)],
            params=DumbbellParams(n_pairs=1, buffer_packets=50),
            default_config=TcpConfig(receiver_window=64),
            forward_loss=channel,
        )
        scenario.sim.run(until=config.sim_duration)
        sender, stats = scenario.flow(1)
        throughputs.append(effective_throughput_bps(stats))
        timeouts.append(sender.timeouts)
        completions.append(1.0 if sender.completed else 0.0)
    n = len(throughputs)
    return BurstChannelRow(
        variant=variant,
        burst_length=burst_length,
        throughput_bps=sum(throughputs) / n,
        timeouts=sum(timeouts) / n,
        completed_ratio=sum(completions) / n,
    )


def run_burstchannel(
    config: Optional[BurstChannelConfig] = None,
    runner: Optional[SweepRunner] = None,
    manifest: Optional["RunManifest"] = None,
) -> BurstChannelResult:
    config = config or BurstChannelConfig()
    runner = runner or SweepRunner()
    result = BurstChannelResult(config=config)
    if manifest is not None:
        manifest.describe_harness("burst", config=config, seed=config.seed)
    specs = [
        TaskSpec(
            fn="repro.experiments.burstchannel:run_point",
            args=(variant, burst_length, config),
            label=f"burst {variant}/{burst_length}",
        )
        for variant in config.variants
        for burst_length in config.burst_lengths
    ]
    result.rows.extend(runner.map(specs))
    return result


def format_report(result: BurstChannelResult) -> str:
    config = result.config
    lines = [
        "Bursty-channel sweep — Gilbert-Elliott loss at fixed average rate",
        f"(stationary loss {config.target_loss_rate:.0%}, p_bad {config.p_bad},"
        f" {config.transfer_packets}-packet transfers, mean of"
        f" {config.runs_per_point} seeds)",
        "",
    ]
    rows = []
    for burst_length in config.burst_lengths:
        row: List[object] = [f"{burst_length:.0f}"]
        for variant in config.variants:
            cell = result.cell(variant, burst_length)
            row.append(f"{cell.throughput_bps / 1000:.0f}")
            row.append(f"{cell.timeouts:.1f}")
        rows.append(row)
    headers: List[str] = ["burst len"]
    for variant in config.variants:
        headers += [f"{variant} kbps", f"{variant} RTOs"]
    lines.append(format_table(headers, rows))
    lines.append("")
    lines.append(
        "expected: every scheme slows as bursts lengthen at the same average"
        " loss; the RR/SACK advantage over Reno/New-Reno widens."
    )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = BurstChannelConfig()
    if args.quick:
        config.runs_per_point = 1
        config.transfer_packets = 200
    result = run_burstchannel(config, runner=runner, manifest=manifest)
    return format_report(result), result, "burst"
