"""Figure 5: effective throughput during recovery from 3 / 6 packet
losses within one window, drop-tail gateways.

Paper setup (Table 3 + Section 3.2): dumbbell, bottleneck 0.8 Mb/s,
drop-tail buffer, side links 10 Mb/s, FTP traffic, ACK per packet.  The
paper engineered deterministic 3-drop and 6-drop windows for flow 1 via
two background flows and an 8-packet buffer; we inject the drops
deterministically instead (same determinism, no tuning fragility — see
DESIGN.md §4) with the buffer at 25 packets so the *only* losses are
the engineered ones, and cap the pre-loss window around 20 packets via
the initial ssthresh (the regime of Fig. 6, "bursty packet losses occur
after cwnd reaches 16").

Two effective-throughput readings are reported per scheme:

* ``recovery`` — goodput from loss detection until the cumulative ACK
  first covers everything sent before the loss (the recovery period);
* ``window2s`` — goodput over a fixed 2 s window from loss detection,
  which also captures how well each scheme's exit state carries into
  congestion avoidance.

Expected shape (paper): RR ≈/≥ SACK >> New-Reno; for 6 drops Tahoe
beats New-Reno ("Tahoe is more robust than New-Reno in case of high
bursty losses").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro._record import Record, field
from repro.config import TcpConfig
from repro.errors import SnapshotError
from repro.experiments.common import (
    FlowSpec,
    PAPER_VARIANTS,
    ScenarioResult,
    build_dumbbell_scenario,
)
from repro.metrics.throughput import (
    goodput_bps,
    loss_recovery_span,
    loss_recovery_throughput,
)
from repro.net.loss import DeterministicLoss
from repro.net.packet import set_uid_state
from repro.runner.grid import GridCell, run_grid, step_until
from repro.viz.ascii import format_table

if TYPE_CHECKING:
    from repro.snapshot import Snapshot


class Figure5Config(Record):
    """Knobs for the Figure 5 harness (defaults = paper values)."""

    variants: Sequence[str] = tuple(PAPER_VARIANTS)
    drop_counts: Sequence[int] = (3, 6)
    first_drop_seq: int = 100
    transfer_packets: int = 600
    buffer_packets: int = 25
    pre_loss_window: int = 20      # via initial ssthresh
    fixed_window_seconds: float = 2.0
    sim_duration: float = 120.0


class Figure5Row(Record):
    variant: str
    drops: int
    recovery_throughput_bps: Optional[float]
    window_throughput_bps: Optional[float]
    recovery_duration: Optional[float]
    timeouts: int
    retransmits: int
    completed: bool
    complete_time: Optional[float]


class Figure5Result(Record):
    config: Figure5Config
    rows: List[Figure5Row] = field(default_factory=list)

    def row(self, variant: str, drops: int) -> Figure5Row:
        for row in self.rows:
            if row.variant == variant and row.drops == drops:
                return row
        raise KeyError((variant, drops))


def _tcp_config(config: Figure5Config) -> TcpConfig:
    return TcpConfig(
        receiver_window=64, initial_ssthresh=float(config.pre_loss_window)
    )


#: Safety margin (packets) the warm-up capture keeps below the first
#: engineered drop.  Must exceed the per-step window growth so the
#: stepping loop cannot overshoot the loss point within one check.
WARM_MARGIN_PACKETS = 20

#: Step size (seconds) of the warm-up capture loop.
WARM_STEP_SECONDS = 0.02


def prefix_world(variant: str, config: Figure5Config) -> ScenarioResult:
    """Build and advance the shared pre-loss prefix of a Figure-5 cell.

    The world is built with an *empty* drop list — identical on the wire
    to any cell's world before its first engineered drop — and stepped
    until the sender's highest transmitted sequence approaches (but has
    provably not reached) ``first_drop_seq``.  Each sweep cell continues
    from this world (re-built cold, forked from one frozen copy warm)
    and reprograms the loss module with its own drops.
    """
    from repro.net.topology import DumbbellParams

    set_uid_state(1)  # the capture is a function of the arguments alone
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=config.transfer_packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=config.buffer_packets),
        default_config=_tcp_config(config),
        forward_loss=DeterministicLoss([]),
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
            f"warm-up overran the loss point: maxseq={sender.maxseq} >= "
            f"first_drop_seq={config.first_drop_seq} (margin too small for "
            "this bandwidth/window configuration)"
        )
    return scenario


def capture_warm_snapshot(variant: str, config: Figure5Config) -> Snapshot:
    """Run the shared pre-loss prefix of a Figure-5 cell and freeze it."""
    from repro.snapshot import Snapshot

    return Snapshot.capture(
        prefix_world(variant, config), label=f"fig5 warm prefix {variant}"
    )


def _cell_drops(n_drops: int, config: Figure5Config) -> List[tuple]:
    return [(1, config.first_drop_seq + i) for i in range(n_drops)]


def finish_cell(
    fresh_world, variant: str, n_drops: int, config: Figure5Config
) -> Figure5Row:
    """Fork the pre-loss prefix, program the cell's engineered drops
    into its loss module, run the remainder and reduce it to a row."""
    scenario: ScenarioResult = fresh_world()
    scenario.dumbbell.forward_link.loss.reprogram(_cell_drops(n_drops, config))
    scenario.sim.run(until=config.sim_duration)
    tcp_config = _tcp_config(config)
    sender, stats = scenario.flow(1)
    span = loss_recovery_span(stats)
    recovery_bps = loss_recovery_throughput(stats, tcp_config.mss_bytes)
    window_bps = None
    duration = None
    if span is not None:
        t_start, t_end, _ = span
        duration = t_end - t_start
        window_bps = goodput_bps(
            stats, t_start, t_start + config.fixed_window_seconds, tcp_config.mss_bytes
        )
    return Figure5Row(
        variant=variant,
        drops=n_drops,
        recovery_throughput_bps=recovery_bps,
        window_throughput_bps=window_bps,
        recovery_duration=duration,
        timeouts=sender.timeouts,
        retransmits=sender.retransmits,
        completed=sender.completed,
        complete_time=sender.complete_time,
    )


def run_figure5(
    config: Optional[Figure5Config] = None,
    runner: Optional["SweepRunner"] = None,
    warm_start: bool = False,
    store: Optional["SnapshotStore"] = None,
    manifest: Optional["RunManifest"] = None,
) -> Figure5Result:
    """Regenerate both panels of Figure 5.

    With a true ``warm_start`` the pre-loss prefix is simulated once
    per variant, captured into ``store``, and every drop-count cell
    forks the frozen world instead of re-running slow start from t=0
    (bit-identical rows, see tests/experiments/test_warmstart_grids.py;
    1.2x slower than cold at this grid's paper size, see
    docs/WARMSTART.md "What warm start costs").  A :class:`~repro.obs.RunManifest` passed
    as ``manifest`` is annotated with the harness identity and
    canonical config (docs/OBSERVABILITY.md).
    """
    config = config or Figure5Config()
    if manifest is not None:
        manifest.describe_harness("fig5", config=config)
    cells = [
        GridCell(
            "repro.experiments.figure5:prefix_world",
            (variant, config),
            "repro.experiments.figure5:finish_cell",
            (variant, n_drops, config),
            label=f"fig5 {variant}/{n_drops}-drop",
        )
        for n_drops in config.drop_counts
        for variant in config.variants
    ]
    rows = run_grid(cells, runner, warm_start, store)
    return Figure5Result(config=config, rows=rows)


def format_report(result: Figure5Result) -> str:
    """Render the paper-vs-measured comparison."""
    lines = [
        "Figure 5 — effective throughput during congestion recovery",
        "(drop-tail; deterministic 3/6 packet drops within one window)",
        "",
    ]
    for n_drops in result.config.drop_counts:
        rows = []
        for variant in result.config.variants:
            row = result.row(variant, n_drops)
            rows.append(
                [
                    variant,
                    _kbps(row.recovery_throughput_bps),
                    _kbps(row.window_throughput_bps),
                    f"{row.recovery_duration:.2f}" if row.recovery_duration else "-",
                    row.timeouts,
                    row.retransmits,
                ]
            )
        lines.append(f"--- {n_drops} packet losses in a window ---")
        lines.append(
            format_table(
                ["scheme", "recovery kbps", "2s-window kbps", "rec s", "RTOs", "rtx"],
                rows,
            )
        )
        lines.append("")
    lines.append(
        "paper shape: RR >= SACK >> New-Reno; Tahoe > New-Reno at 6 drops."
    )
    return "\n".join(lines)


def _kbps(bps: Optional[float]) -> str:
    return f"{bps / 1000:.1f}" if bps is not None else "-"


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = Figure5Config()
    if args.quick:
        config.transfer_packets = 300
        config.sim_duration = 30.0
    result = run_figure5(config, runner=runner, manifest=manifest)
    return format_report(result), result, "fig5"
