"""Figure 6: sequence-number dynamics under RED gateways.

Paper setup (Section 3.3, Table 4): the dumbbell with RED on the
bottleneck (min_th 5, max_th 20, max_p 0.02, w_q 0.002, buffer 25),
ten TCP flows sharing 0.8 Mb/s — the first five start at t=0, then one
more every 0.5 s, all with infinite data; 6 s of simulation, heavy
congestion.  All flows run the same recovery scheme; flow 1 is plotted.

The harness returns flow 1's send/retransmit/ACK series (the paper's
"standard TCP sequence number plots") and summary numbers: the final
cumulatively-acknowledged packet (the headline of Fig. 6 — higher means
more delivered in the same 6 seconds), effective throughput, timeouts
and the longest ACK stall.

Expected shape (paper): RR finishes highest, SACK close, New-Reno far
behind with a visible stall ending in a coarse timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.packet import set_uid_state
from repro.sim.engine import Simulator
from repro.metrics.timeseries import SequenceTrace, SequenceTracer
from repro.metrics.throughput import effective_throughput_bps
from repro.net.red import RedParams, RedQueue
from repro.net.topology import DumbbellParams
from repro.runner.grid import GridCell, run_grid
from repro.sim.rng import RngStream
from repro.viz.ascii import ascii_scatter, format_table


@dataclass
class Figure6Config:
    """Knobs for the Figure 6 harness (defaults = paper values)."""

    variants: Sequence[str] = ("newreno", "sack", "rr")
    n_flows: int = 10
    initial_flows: int = 5          # start at t=0
    stagger_seconds: float = 0.5    # "a new TCP flow starts every 0.5 second"
    duration: float = 6.0
    # Warm-start capture point: all ten flows are up by 2.5 s, so 3 s
    # freezes the fully-populated system with congestion still ahead.
    prefix_seconds: float = 3.0
    red: RedParams = field(default_factory=lambda: RedParams())
    seed: int = 7


@dataclass
class Figure6FlowResult:
    variant: str
    final_ack: int
    throughput_bps: float
    timeouts: int
    retransmits: int
    longest_stall: float
    trace: SequenceTrace
    # fleet-wide aggregates across all ten flows (extension):
    fleet_goodput_bps: float = 0.0
    fleet_jain: float = 0.0
    fleet_timeouts: int = 0


@dataclass
class Figure6Result:
    config: Figure6Config
    flows: Dict[str, Figure6FlowResult] = field(default_factory=dict)


def prefix_world(variant: str, config: Figure6Config):
    """Build the ten-flow RED scenario and advance it to the warm-start
    capture point (``prefix_seconds``).

    Figure 6's cells have nothing to reprogram — the variant is baked
    into every flow — so the prefix is simply the first few seconds of
    the run, shared between repeated sweeps (and the cold path, which
    continues the same world in-process).
    """
    set_uid_state(1)
    rng = RngStream(config.seed, f"red-{variant}")
    flows = []
    for i in range(config.n_flows):
        start = 0.0 if i < config.initial_flows else (
            (i - config.initial_flows + 1) * config.stagger_seconds
        )
        flows.append(FlowSpec(variant=variant, start_time=start, amount_packets=None))

    sim = Simulator()

    def red_factory(name: str) -> RedQueue:
        return RedQueue(sim, config.red, rng.substream(name), name=name)

    scenario = build_dumbbell_scenario(
        flows=flows,
        params=DumbbellParams(n_pairs=config.n_flows, buffer_packets=config.red.limit),
        bottleneck_queue_factory=red_factory,
        sim=sim,
    )
    scenario.sim.run(until=min(config.prefix_seconds, config.duration))
    return scenario


def finish_variant(
    fresh_world, variant: str, config: Figure6Config
) -> Figure6FlowResult:
    """Run the remainder of a (possibly warm-started) cell and reduce it
    to flow 1's dynamics."""
    scenario = fresh_world()
    scenario.sim.run(until=config.duration)
    sender, stats = scenario.flow(1)
    tracer = SequenceTracer(stats)
    stalls = tracer.stall_periods(threshold=0.5, t_end=config.duration)
    from repro.metrics.fairness import jain_index

    fleet_acks = [scenario.stats[i].final_ack for i in scenario.stats]
    return Figure6FlowResult(
        variant=variant,
        final_ack=stats.final_ack,
        throughput_bps=effective_throughput_bps(stats, until=config.duration),
        timeouts=sender.timeouts,
        retransmits=sender.retransmits,
        longest_stall=max((b - a for a, b in stalls), default=0.0),
        trace=tracer.trace(),
        fleet_goodput_bps=sum(fleet_acks) * 8000.0 / config.duration,
        fleet_jain=jain_index(fleet_acks),
        fleet_timeouts=sum(s.timeouts for s in scenario.senders.values()),
    )


def run_variant(variant: str, config: Figure6Config) -> Figure6FlowResult:
    """Run the ten-flow RED scenario with every flow using ``variant``
    and return flow 1's dynamics."""
    return finish_variant(lambda: prefix_world(variant, config), variant, config)


def run_figure6(
    config: Optional[Figure6Config] = None,
    runner: Optional["SweepRunner"] = None,
    warm_start: bool = False,
    store: Optional["SnapshotStore"] = None,
    manifest: Optional["RunManifest"] = None,
) -> Figure6Result:
    """Regenerate all three panels of Figure 6.

    With a true ``warm_start`` each variant's first ``prefix_seconds``
    are simulated once per code version (then replayed from ``store``)
    and the cells continue from the frozen worlds — bit-identical rows.
    One cell per variant means a first pass can never win: the capture
    IS the prefix run plus a snapshot round-trip.
    """
    config = config or Figure6Config()
    if manifest is not None:
        manifest.describe_harness("fig6", config=config, seed=config.seed)
    cells = [
        GridCell(
            "repro.experiments.figure6:prefix_world",
            (variant, config),
            "repro.experiments.figure6:finish_variant",
            (variant, config),
            label=f"fig6 {variant}",
        )
        for variant in config.variants
    ]
    flows = run_grid(cells, runner, warm_start, store)
    return Figure6Result(config=config, flows=dict(zip(config.variants, flows)))


def format_report(result: Figure6Result, plots: bool = True) -> str:
    lines = [
        "Figure 6 — sequence-number dynamics under RED gateways",
        f"(10 flows sharing 0.8 Mb/s, RED min=5 max=20 max_p=0.02 w_q=0.002,"
        f" {result.config.duration:.0f}s; flow 1 shown)",
        "",
    ]
    rows = []
    for variant, flow in result.flows.items():
        rows.append(
            [
                variant,
                flow.final_ack,
                f"{flow.throughput_bps / 1000:.1f}",
                flow.timeouts,
                flow.retransmits,
                f"{flow.longest_stall:.2f}",
            ]
        )
    lines.append(
        format_table(
            ["scheme", "final pkt", "kbps", "RTOs", "rtx", "longest stall s"], rows
        )
    )
    lines.append("")
    fleet_rows = [
        [
            variant,
            f"{flow.fleet_goodput_bps / 1000:.0f}",
            f"{flow.fleet_jain:.3f}",
            flow.fleet_timeouts,
        ]
        for variant, flow in result.flows.items()
    ]
    lines.append("fleet-wide (all 10 flows):")
    lines.append(
        format_table(["scheme", "fleet kbps", "Jain", "fleet RTOs"], fleet_rows)
    )
    if plots:
        for variant, flow in result.flows.items():
            lines.append("")
            lines.append(
                ascii_scatter(
                    {
                        "send": flow.trace.sends,
                        "rtx": flow.trace.retransmits,
                        "ack": flow.trace.acks,
                    },
                    x_label="time (s)",
                    y_label="packet number",
                    title=f"--- {variant} (flow 1) ---",
                    height=16,
                )
            )
    lines.append("")
    lines.append("paper shape: RR highest final packet; New-Reno stalls into a timeout.")
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = Figure6Config()
    if args.quick:
        config.duration = 3.0
    result = run_figure6(config, runner=runner, manifest=manifest)
    return format_report(result, plots=not args.quick), result, "fig6"
