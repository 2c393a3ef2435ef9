"""Figure 7: fitness to the Mathis square-root model.

Paper setup (Section 4): one TCP connection, 100 s simulation, start-up
ignored; artificial uniform random losses injected at gateway R1 with
the rate varied per experiment; MSS 1000 bytes and RTT fixed at 200 ms;
the receiver ACKs every packet.  The y-axis is the achieved window
``W = BW * RTT / MSS``, compared against the model bound ``C/sqrt(p)``.

We set one-way propagation so that base RTT = 200 ms and keep the
bottleneck fast (10 Mb/s) so queueing does not distort RTT — matching
the model's assumption that RTT is a constant.  Losses switch on when
the ignored start-up phase ends (``loss_start``), so the measured
window over ``[warmup, duration]`` always sees the loss process while
the start-up prefix stays loss-free and shared across the whole grid
(the prefix/finish contract of :mod:`repro.runner.grid`).

Expected shape (paper): both RR and SACK track the bound at small
loss rates and drop below it at high rates, where retransmission losses
and tiny windows force timeouts; RR at least as close to the bound as
SACK.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._record import Record, field
from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.models.mathis import MATHIS_C_ACK_EVERY_PACKET, PAPER_C, mathis_window
from repro.net.loss import UniformLoss
from repro.net.packet import set_uid_state
from repro.runner.grid import GridCell, run_grid
from repro.sim.rng import RngStream
from repro.viz.ascii import ascii_scatter, format_table


class Figure7Config(Record):
    """Knobs for the Figure 7 harness (defaults = paper values)."""

    variants: Sequence[str] = ("sack", "rr")
    loss_rates: Sequence[float] = (0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1)
    duration: float = 100.0
    warmup: float = 5.0           # "its start-up phase is ignored"
    # Uniform losses switch on at ``loss_start`` (= the ignored start-up
    # phase): the loss-free prefix is then identical for every loss rate
    # and seed, which is what makes the sweep warm-startable per variant.
    # The measured window over [warmup, duration] sees losses throughout.
    loss_start: float = 5.0
    rtt: float = 0.2              # 200 ms
    mss_bytes: int = 1000
    seed: int = 11
    runs_per_point: int = 3       # average a few seeds per point


class Figure7Point(Record):
    variant: str
    loss_rate: float
    window: float                 # measured W = BW*RTT/MSS
    model_window: float           # C/sqrt(p) with the standard C
    throughput_bps: float
    timeouts: float               # mean across runs


class Figure7Result(Record):
    config: Figure7Config
    points: List[Figure7Point] = field(default_factory=list)

    def series(self, variant: str) -> List[Tuple[float, float]]:
        return [
            (point.loss_rate, point.window)
            for point in self.points
            if point.variant == variant
        ]


def prefix_world(variant: str, config: Figure7Config):
    """Build the single-flow world and run its loss-free start-up phase.

    The prefix depends only on the variant — losses (rate *and* seed)
    switch on at ``loss_start`` via :func:`_measure_from`'s reprogram
    step — so one frozen world serves the whole
    ``loss_rates x runs_per_point`` grid.
    """
    from repro.net.topology import DumbbellParams

    set_uid_state(1)
    # side 1 ms + bottleneck 97 ms + side 1 ms, doubled ≈ 198 ms; plus
    # transmission/ACK time it comes to ~200 ms.
    params = DumbbellParams(
        n_pairs=1,
        bottleneck_bandwidth_bps=10e6,
        bottleneck_delay=0.097,
        side_bandwidth_bps=100e6,
        buffer_packets=200,
    )
    tcp_config = TcpConfig(receiver_window=200, initial_ssthresh=100.0)
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=None)],
        params=params,
        default_config=tcp_config,
    )
    scenario.sim.run(until=min(config.loss_start, config.duration))
    return scenario


def _measure_from(scenario, loss_rate: float, seed: int, config: Figure7Config):
    """Reprogram the cell's losses onto a prefix world and finish it."""
    # Stream name excludes the variant so RR and SACK face the same
    # loss realization per seed (paired comparison).
    rng = RngStream(seed, f"fig7-{loss_rate}")
    scenario.dumbbell.forward_link.loss = UniformLoss(loss_rate, rng)
    scenario.sim.run(until=config.duration)
    sender, stats = scenario.flow(1)
    acked = stats.acked_at(config.duration) - stats.acked_at(config.warmup)
    bw_bps = acked * config.mss_bytes * 8.0 / (config.duration - config.warmup)
    window = bw_bps * config.rtt / (config.mss_bytes * 8.0)
    return window, bw_bps, sender.timeouts


def finish_point(
    fresh_world, variant: str, loss_rate: float, config: Figure7Config
) -> Figure7Point:
    """Average ``runs_per_point`` seeds for one (variant, p) point, each
    run on its own copy of the loss-free prefix."""
    measurements = [
        _measure_from(fresh_world(), loss_rate, config.seed + run, config)
        for run in range(config.runs_per_point)
    ]
    windows, bws, timeouts = zip(*measurements)
    n = len(windows)
    return Figure7Point(
        variant=variant,
        loss_rate=loss_rate,
        window=sum(windows) / n,
        model_window=mathis_window(loss_rate),
        throughput_bps=sum(bws) / n,
        timeouts=sum(timeouts) / n,
    )


def run_point(variant: str, loss_rate: float, config: Figure7Config) -> Figure7Point:
    """One (variant, p) point from t=0."""
    return finish_point(
        lambda: prefix_world(variant, config), variant, loss_rate, config
    )


def run_figure7(
    config: Optional[Figure7Config] = None,
    runner: Optional["SweepRunner"] = None,
    warm_start: bool = False,
    store: Optional["SnapshotStore"] = None,
    manifest: Optional["RunManifest"] = None,
) -> Figure7Result:
    """Regenerate Figure 7's sweep.

    With a true ``warm_start`` the loss-free start-up phase is
    simulated once per variant and all ``loss_rates x runs_per_point``
    cells fork the frozen world — bit-identical rows, one prefix per
    variant for the whole grid.
    """
    config = config or Figure7Config()
    if manifest is not None:
        manifest.describe_harness("fig7", config=config, seed=config.seed)
    cells = [
        GridCell(
            "repro.experiments.figure7:prefix_world",
            (variant, config),
            "repro.experiments.figure7:finish_point",
            (variant, loss_rate, config),
            label=f"fig7 {variant}/p={loss_rate}",
        )
        for variant in config.variants
        for loss_rate in config.loss_rates
    ]
    points = run_grid(cells, runner, warm_start, store)
    return Figure7Result(config=config, points=points)


def format_report(result: Figure7Result, plot: bool = True) -> str:
    config = result.config
    lines = [
        "Figure 7 — fitness to the Mathis square-root model",
        f"(single flow, uniform loss, RTT={config.rtt * 1000:.0f} ms,"
        f" MSS={config.mss_bytes} B, {config.duration:.0f}s runs)",
        "",
    ]
    rows = []
    for loss_rate in config.loss_rates:
        row: List[object] = [f"{loss_rate:.3f}", f"{mathis_window(loss_rate):.2f}"]
        for variant in config.variants:
            point = next(
                p for p in result.points
                if p.variant == variant and p.loss_rate == loss_rate
            )
            row.append(f"{point.window:.2f}")
            row.append(f"{point.timeouts:.1f}")
        rows.append(row)
    headers = ["p", f"model C={MATHIS_C_ACK_EVERY_PACKET:.2f}"]
    for variant in config.variants:
        headers += [f"{variant} W", f"{variant} RTOs"]
    lines.append(format_table(headers, rows))
    lines.append("")
    # Fit the effective constant on the low-loss half of the sweep,
    # where the timeout-free model assumption holds.
    from repro.models.fit import estimate_mathis_c

    low_rates = [p for p in config.loss_rates if p <= sorted(config.loss_rates)[len(config.loss_rates) // 2]]
    for variant in config.variants:
        points = [(p, w) for p, w in result.series(variant) if p in low_rates]
        if points:
            c_hat = estimate_mathis_c(points)
            lines.append(
                f"fitted C for {variant} over p <= {max(low_rates)}: {c_hat:.2f}"
                f" (theory {MATHIS_C_ACK_EVERY_PACKET:.2f})"
            )
    lines.append(
        f"(the paper plots the bound with C={PAPER_C:.0f}; with that constant every"
        " measured point sits below the bound, as in the paper's Figure 7)"
    )
    if plot:
        series = {"model": [(p, mathis_window(p)) for p in config.loss_rates]}
        for variant in config.variants:
            series[variant] = result.series(variant)
        lines.append("")
        lines.append(
            ascii_scatter(
                series,
                x_label="loss rate p",
                y_label="window = BW*RTT/MSS (packets)",
                title="window vs loss rate",
                height=16,
            )
        )
    lines.append("")
    lines.append(
        "paper shape: both schemes track the bound at small p and fall below it"
        " at large p (timeouts); RR comparable to SACK."
    )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = Figure7Config()
    if args.quick:
        config.loss_rates = (0.01, 0.05, 0.1)
        config.duration = 30.0
        config.runs_per_point = 1
    result = run_figure7(config, runner=runner, manifest=manifest)
    return format_report(result, plot=not args.quick), result, "fig7"
