"""The ``rivals`` harness: RR vs. the post-paper competition.

The paper's fairness and friendliness tables (Section 5) assume every
competitor halves on loss.  Modern rivals do not: CUBIC backs off by
0.3 and regrows along a cubic, Relentless sheds only what the path
destroyed.  This harness re-runs the fairness/friendliness questions
with RR sharing a bottleneck against {Reno, NewReno, CUBIC,
Relentless} under four regimes:

* ``wired``    — the paper's drop-tail dumbbell, scaled up;
* ``delack``   — RFC 1122 delayed ACKs at every receiver;
* ``ecn-red``  — an ECN-marking RED bottleneck with ECN-capable
  senders (RFC 3168);
* ``mobile``   — a time-varying wireless bottleneck: a seeded
  :class:`~repro.net.varlink.RateSchedule` with deep handover outages
  over a bufferbloat-sized buffer.  Every mobile cell rides the *same*
  channel trace, so variants are compared over identical conditions.

Each (mix, regime) cell measures post-warmup per-group goodput, the
Jain index across all flows, per-group timeout/recovery counts and
bottleneck-queue behaviour.  Pure single-variant baselines per regime
turn mixed-cell goodputs into *friendliness ratios* (share kept in the
mix relative to the variant's own company).

Dedicated ``relentless-model`` cells run one Relentless flow over a
uniform-loss link and gate the measurement against the Diana & Lochin
``W* = 1/p`` model (:mod:`repro.models.relentless`); the pass/fail
verdict lands in the run manifest via ``note_oracle``, exactly like
the PR-8 mean-field verdicts.  The model assumes an ACK per packet, so
these cells deliberately ignore ``--delayed-ack``/``--ecn``.

Every cell — match, pure baseline or model oracle — is an independent
cached :class:`TaskSpec` in one ``runner.map``, so rows are
bit-identical at any ``--jobs`` count and a repeated sweep is served by
the result cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._record import Record, field
from repro.config import TcpConfig
from repro.errors import ConfigurationError
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.fairness import jain_index
from repro.metrics.queuemon import QueueMonitor
from repro.models.relentless import (
    RelentlessModelParams,
    RelentlessVerdict,
    relentless_verdict,
)
from repro.net.loss import PeriodicLoss
from repro.net.packet import set_uid_state
from repro.net.red import RedParams, RedQueue
from repro.net.topology import DumbbellParams
from repro.net.varlink import RateSchedule, bufferbloat_limit
from repro.runner import SweepRunner, TaskSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.viz.ascii import format_table

#: Regimes the grid understands (docs/SCENARIOS.md, mobile-link family).
REGIMES = ("wired", "delack", "ecn-red", "mobile")

#: Fraction of a cell's duration simulated before measurement starts.
WARMUP_FRACTION = 0.25


class RivalsConfig(Record):
    """Knobs for the rivals grid.

    The wired bottleneck is sized so four flows each hold an ~8-packet
    fair-share window (big enough for fast recovery, small enough to
    congest); the mobile channel averages half that rate and swings
    ``+-spread`` around it with periodic handover blackouts.
    """

    rivals: Sequence[str] = ("reno", "newreno", "cubic", "relentless")
    regimes: Sequence[str] = REGIMES
    flows_per_side: int = 2
    duration: float = 60.0
    #: Measurement starts here; pinned to ``duration * WARMUP_FRACTION``
    #: by :func:`run_rivals`.
    warmup: float = 15.0
    start_stagger: float = 0.25
    bottleneck_bandwidth_bps: float = 4_000_000.0
    bottleneck_delay: float = 0.030
    buffer_packets: int = 32
    # ecn-red regime (thresholds on the early-drop ramp, ECN marking on)
    red_min_th: float = 8.0
    red_max_th: float = 24.0
    red_max_p: float = 0.05
    red_weight: float = 0.002
    red_limit: int = 64
    # mobile regime (shared seeded channel trace, bufferbloat buffer)
    mobile_mean_bps: float = 2_000_000.0
    mobile_spread: float = 0.6
    mobile_interval: float = 1.0
    mobile_handover_period: float = 20.0
    mobile_handover_duration: float = 0.4
    bufferbloat_multiple: float = 10.0
    # relentless-model oracle cells (solo flow, uniform loss)
    model_loss_rates: Sequence[float] = (0.01, 0.03)
    model_duration: float = 120.0
    model_bandwidth_bps: float = 10_000_000.0
    model_delay: float = 0.097
    model_receiver_window: int = 200
    # CLI --delayed-ack / --ecn: force the knobs across every grid cell
    # (recorded in the manifest through describe_harness).
    force_delayed_ack: bool = False
    force_ecn: bool = False
    queue_sample_period: float = 0.01
    seed: int = 31


class RivalsCellResult(Record):
    """One executed cell (match, pure baseline, or model oracle)."""

    label: str
    kind: str      # "match" | "pure" | "model"
    variant: str   # the rival (match), the sole variant (pure/model)
    regime: str
    rr_goodput_bps: float = 0.0      # mean per-flow goodput, RR group
    rival_goodput_bps: float = 0.0   # mean per-flow goodput, rival group
    jain: float = 0.0
    rr_timeouts: int = 0
    rival_timeouts: int = 0
    rr_recoveries: int = 0
    rival_recoveries: int = 0
    drops: int = 0
    mean_queue: float = 0.0
    utilization: float = 0.0
    events: int = 0
    verdict: Optional[RelentlessVerdict] = None


class RivalsRow(Record):
    """One reduced friendliness row: a match cell + its baselines."""

    regime: str
    rival: str
    rr_goodput_bps: float
    rival_goodput_bps: float
    rival_share: float        # rival group's fraction of the mixed total
    jain: float
    friendliness: float       # rival per-flow goodput vs. pure-rival run
    rr_retained: float        # RR per-flow goodput vs. pure-RR run
    rr_timeouts: int
    rival_timeouts: int
    drops: int
    utilization: float


class RivalsResult(Record):
    config: RivalsConfig
    cells: List[RivalsCellResult] = field(default_factory=list)
    rows: List[RivalsRow] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """Every model-oracle cell within tolerance."""
        return all(c.verdict.passed for c in self.cells if c.verdict is not None)


# ----------------------------------------------------------------------
# cell construction
# ----------------------------------------------------------------------


def _regime_tcp_config(regime: str, config: RivalsConfig) -> TcpConfig:
    return TcpConfig(
        delayed_ack=config.force_delayed_ack or regime == "delack",
        ecn_enabled=config.force_ecn or regime == "ecn-red",
    )


def _base_rtt(config: RivalsConfig) -> float:
    # Two side links at the DumbbellParams default 1 ms each way.
    return 2 * (0.001 + config.bottleneck_delay + 0.001)


def _regime_params(regime: str, config: RivalsConfig, n_pairs: int) -> DumbbellParams:
    if regime == "mobile":
        return DumbbellParams(
            n_pairs=n_pairs,
            bottleneck_bandwidth_bps=config.mobile_mean_bps,
            bottleneck_delay=config.bottleneck_delay,
            buffer_packets=bufferbloat_limit(
                config.mobile_mean_bps, _base_rtt(config), config.bufferbloat_multiple
            ),
        )
    return DumbbellParams(
        n_pairs=n_pairs,
        bottleneck_bandwidth_bps=config.bottleneck_bandwidth_bps,
        bottleneck_delay=config.bottleneck_delay,
        buffer_packets=(
            config.red_limit if regime == "ecn-red" else config.buffer_packets
        ),
    )


def _red_params(config: RivalsConfig) -> RedParams:
    return RedParams(
        min_th=config.red_min_th,
        max_th=config.red_max_th,
        max_p=config.red_max_p,
        weight=config.red_weight,
        limit=config.red_limit,
        ecn=True,
    )


def mobile_schedule(config: RivalsConfig) -> RateSchedule:
    """The shared mobile-channel trace every mobile cell replays."""
    return RateSchedule.mobile(
        config.seed,
        duration=config.duration,
        mean_bps=config.mobile_mean_bps,
        interval=config.mobile_interval,
        spread=config.mobile_spread,
        handover_period=config.mobile_handover_period,
        handover_duration=config.mobile_handover_duration,
        name="rivals-mobile",
    )


def build_cell_world(kind: str, variant: str, regime: str, config: RivalsConfig):
    """Build one grid cell's world (deterministic in its arguments)."""
    if regime not in REGIMES:
        raise ConfigurationError(
            f"unknown rivals regime {regime!r}; choose from {REGIMES}"
        )
    set_uid_state(1)
    total = 2 * config.flows_per_side
    if kind == "match":
        # Interleave the groups (rr on odd flow ids, the rival on even)
        # so the staggered starts don't hand either side a head start —
        # behind a bufferbloat standing queue, start order alone can
        # decide who owns the pipe.
        variants = ["rr", variant] * config.flows_per_side
    else:
        variants = [variant] * total
    tcp = _regime_tcp_config(regime, config)
    flows = [
        FlowSpec(variant=v, start_time=i * config.start_stagger, config=tcp)
        for i, v in enumerate(variants)
    ]
    sim = Simulator()
    factory = None
    if regime == "ecn-red":
        red = _red_params(config)
        rng = RngStream(config.seed, f"rivals/red/{kind}/{variant}/{regime}")
        factory = lambda name: RedQueue(sim, red, rng.substream(name), name=name)
    world = build_dumbbell_scenario(
        flows,
        params=_regime_params(regime, config, total),
        bottleneck_queue_factory=factory,
        sim=sim,
    )
    if regime == "mobile":
        mobile_schedule(config).apply(world.dumbbell.forward_link)
    return world


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def _group_ids(kind: str, variant: str, config: RivalsConfig):
    total = 2 * config.flows_per_side
    if kind == "match":
        rr = list(range(1, total + 1, 2))
        rival = list(range(2, total + 1, 2))
    elif variant == "rr":
        rr, rival = list(range(1, total + 1)), []
    else:
        rr, rival = [], list(range(1, total + 1))
    return rr, rival


def _cell_bandwidth(regime: str, config: RivalsConfig) -> float:
    return (
        config.mobile_mean_bps
        if regime == "mobile"
        else config.bottleneck_bandwidth_bps
    )


def run_cell(
    kind: str, variant: str, regime: str, label: str, config: RivalsConfig
) -> RivalsCellResult:
    """Build one grid cell, run its warm-up and measure the rest."""
    world = build_cell_world(kind, variant, regime, config)
    world.sim.run(until=config.duration * WARMUP_FRACTION)
    mss = TcpConfig().mss_bytes
    queue = world.dumbbell.bottleneck_queue
    base_drops = queue.drops
    base_acks = {fid: s.final_ack for fid, s in world.stats.items()}
    base_rtos = {fid: s.timeouts for fid, s in world.stats.items()}
    base_recov = {fid: len(s.episodes) for fid, s in world.stats.items()}
    window_start = world.sim.now
    monitor = QueueMonitor(
        world.sim, queue, period=config.queue_sample_period, start_time=window_start
    )
    world.sim.run(until=config.duration)

    window = max(config.duration - window_start, 1e-9)
    goodputs = {
        fid: (s.final_ack - base_acks[fid]) * mss * 8.0 / window
        for fid, s in world.stats.items()
    }
    rr_ids, rival_ids = _group_ids(kind, variant, config)

    def group_mean(ids):
        return sum(goodputs[fid] for fid in ids) / len(ids) if ids else 0.0

    def group_sum(base, ids, current):
        return sum(current(fid) - base[fid] for fid in ids)

    bandwidth = _cell_bandwidth(regime, config)
    return RivalsCellResult(
        label=label,
        kind=kind,
        variant=variant,
        regime=regime,
        rr_goodput_bps=group_mean(rr_ids),
        rival_goodput_bps=group_mean(rival_ids),
        jain=jain_index(list(goodputs.values())),
        rr_timeouts=group_sum(base_rtos, rr_ids, lambda f: world.stats[f].timeouts),
        rival_timeouts=group_sum(
            base_rtos, rival_ids, lambda f: world.stats[f].timeouts
        ),
        rr_recoveries=group_sum(
            base_recov, rr_ids, lambda f: len(world.stats[f].episodes)
        ),
        rival_recoveries=group_sum(
            base_recov, rival_ids, lambda f: len(world.stats[f].episodes)
        ),
        drops=queue.drops - base_drops,
        mean_queue=monitor.mean_occupancy(),
        utilization=sum(goodputs.values()) / bandwidth if bandwidth else 0.0,
        events=world.sim.events_processed,
    )


def run_model_cell(loss_rate: float, config: RivalsConfig) -> RivalsCellResult:
    """One Diana & Lochin oracle cell: a solo Relentless flow over a
    uniform-loss link, measured against ``W* = 1/p``.

    The model assumes an ACK per packet and loss-only feedback, so
    these cells keep the default TcpConfig (no delayed ACKs, no ECN)
    regardless of the forced grid knobs.
    """
    set_uid_state(1)
    mss = TcpConfig().mss_bytes
    tcp = TcpConfig(receiver_window=config.model_receiver_window)
    params = DumbbellParams(
        n_pairs=1,
        bottleneck_bandwidth_bps=config.model_bandwidth_bps,
        bottleneck_delay=config.model_delay,
        # A BDP of headroom: the flow must be loss-limited, not
        # buffer-limited, for the fluid model to apply.
        buffer_packets=int(
            config.model_bandwidth_bps * 2 * config.model_delay / (8 * mss)
        )
        + config.model_receiver_window,
    )
    world = build_dumbbell_scenario(
        [FlowSpec(variant="relentless", config=tcp)],
        params=params,
        # The loss process the fluid derivation actually assumes: one
        # loss every 1/p first transmissions, perfectly regular.  An
        # i.i.d. process at the same rate clusters losses into RTO
        # stalls the model has no term for (measured ~40% below the
        # fluid line); the periodic process isolates the question the
        # oracle asks — does the *window arithmetic* follow W* = 1/p?
        forward_loss=PeriodicLoss(
            period=max(int(round(1.0 / loss_rate)), 1),
            offset=max(int(round(1.0 / loss_rate)), 1) // 2,
        ),
    )
    warmup = config.model_duration * WARMUP_FRACTION
    world.sim.run(until=warmup)
    base_ack = world.stats[1].final_ack
    world.sim.run(until=config.model_duration)
    window = config.model_duration - warmup
    goodput = (world.stats[1].final_ack - base_ack) * mss * 8.0 / window
    base_rtt = world.dumbbell.base_rtt()
    measured_window = goodput * base_rtt / (mss * 8.0)
    verdict = relentless_verdict(
        RelentlessModelParams(
            loss_rate=loss_rate,
            base_rtt=base_rtt,
            bandwidth_bps=config.model_bandwidth_bps,
            mss_bytes=mss,
            max_window=float(config.model_receiver_window),
        ),
        measured_bps=goodput,
        measured_window=measured_window,
    )
    return RivalsCellResult(
        label=f"relentless-model p={loss_rate:g}",
        kind="model",
        variant="relentless",
        regime="uniform-loss",
        rival_goodput_bps=goodput,
        rival_timeouts=world.stats[1].timeouts,
        utilization=goodput / config.model_bandwidth_bps,
        events=world.sim.events_processed,
        verdict=verdict,
    )


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------


def _reduce(result: RivalsResult) -> None:
    """Turn match cells + pure baselines into friendliness rows."""
    pure: Dict[Tuple[str, str], float] = {}
    for cell in result.cells:
        if cell.kind == "pure":
            mean = cell.rr_goodput_bps if cell.variant == "rr" else cell.rival_goodput_bps
            pure[(cell.variant, cell.regime)] = mean
    for cell in result.cells:
        if cell.kind != "match":
            continue
        total = cell.rr_goodput_bps + cell.rival_goodput_bps
        pure_rival = pure.get((cell.variant, cell.regime), 0.0)
        pure_rr = pure.get(("rr", cell.regime), 0.0)
        result.rows.append(
            RivalsRow(
                regime=cell.regime,
                rival=cell.variant,
                rr_goodput_bps=cell.rr_goodput_bps,
                rival_goodput_bps=cell.rival_goodput_bps,
                rival_share=cell.rival_goodput_bps / total if total else 0.0,
                jain=cell.jain,
                friendliness=(
                    cell.rival_goodput_bps / pure_rival if pure_rival else 0.0
                ),
                rr_retained=cell.rr_goodput_bps / pure_rr if pure_rr else 0.0,
                rr_timeouts=cell.rr_timeouts,
                rival_timeouts=cell.rival_timeouts,
                drops=cell.drops,
                utilization=cell.utilization,
            )
        )


def run_rivals(
    config: Optional[RivalsConfig] = None,
    runner: Optional[SweepRunner] = None,
    manifest: Optional["RunManifest"] = None,
) -> RivalsResult:
    """Run the mix x regime grid plus the model-oracle cells.

    Every cell is an independent task fanned out through ``runner``
    (bit-identical at any job count); Diana & Lochin verdicts land in
    the manifest via :meth:`RunManifest.note_oracle`.
    """
    config = config or RivalsConfig()
    runner = runner or SweepRunner()
    if abs(config.warmup - config.duration * WARMUP_FRACTION) > 1e-9:
        config.warmup = config.duration * WARMUP_FRACTION
    result = RivalsResult(config=config)
    if manifest is not None:
        manifest.describe_harness("rivals", config=config, seed=config.seed)
    # Grid cells: per regime, each RR-vs-rival match plus the pure
    # baselines that anchor the friendliness ratios.
    grid: List[Tuple[str, str, str, str]] = []
    for regime in config.regimes:
        for rival in config.rivals:
            grid.append((f"{regime} rr+{rival}", "match", rival, regime))
        for variant in ("rr",) + tuple(config.rivals):
            grid.append((f"{regime} pure {variant}", "pure", variant, regime))
    specs = [
        TaskSpec(
            fn="repro.experiments.rivals:run_cell",
            args=(kind, variant, regime, label, config),
            label=f"rivals {label}",
        )
        for label, kind, variant, regime in grid
    ]
    specs += [
        TaskSpec(
            fn="repro.experiments.rivals:run_model_cell",
            args=(loss_rate, config),
            label=f"rivals relentless-model p={loss_rate:g}",
        )
        for loss_rate in config.model_loss_rates
    ]
    for cell in runner.map(specs):
        result.cells.append(cell)
        if manifest is not None and cell.verdict is not None:
            manifest.note_oracle(cell.label, cell.verdict)
    _reduce(result)
    return result


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def format_report(result: RivalsResult) -> str:
    config = result.config
    knobs = []
    if config.force_delayed_ack:
        knobs.append("delayed ACKs forced on")
    if config.force_ecn:
        knobs.append("ECN forced on")
    lines = [
        "rivals — RR vs. modern congestion control under modern regimes",
        f"({config.flows_per_side}+{config.flows_per_side} flows per cell,"
        f" {config.duration:g}s, measured after"
        f" {config.duration * WARMUP_FRACTION:g}s warmup"
        + (", " + ", ".join(knobs) if knobs else "")
        + ")",
        "",
    ]
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.regime,
                f"rr+{row.rival}",
                f"{row.rr_goodput_bps / 1e3:.0f}",
                f"{row.rival_goodput_bps / 1e3:.0f}",
                f"{row.rival_share:.2f}",
                f"{row.jain:.3f}",
                f"{row.friendliness:.2f}",
                f"{row.rr_retained:.2f}",
                f"{row.rr_timeouts}/{row.rival_timeouts}",
                f"{row.utilization:.2f}",
            ]
        )
    lines.append(
        format_table(
            [
                "regime",
                "mix",
                "rr kbps",
                "rival kbps",
                "share",
                "Jain",
                "friendly",
                "rr kept",
                "RTOs",
                "util",
            ],
            rows,
        )
    )
    lines.append("")
    lines.append(
        "share  = rival fraction of the mixed goodput (0.5 = even split)"
    )
    lines.append(
        "friendly = rival per-flow goodput vs. its all-rival baseline;"
        " rr kept = same for RR vs. all-RR"
    )
    checked = [c for c in result.cells if c.verdict is not None]
    if checked:
        lines.append("")
        for cell in checked:
            lines.append(cell.verdict.format())
        passed = sum(1 for c in checked if c.verdict.passed)
        lines.append(
            f"oracle: {passed}/{len(checked)} relentless-model cells within"
            " tolerance (docs/SCENARIOS.md)"
        )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = RivalsConfig()
    if args.delayed_ack:
        config.force_delayed_ack = True
    if args.ecn:
        config.force_ecn = True
    if args.quick:
        config.rivals = ("cubic", "relentless")
        config.regimes = ("delack", "ecn-red", "mobile")
        config.duration = 10.0
        config.model_loss_rates = (0.03,)
        config.model_duration = 40.0
    result = run_rivals(config, runner=runner, manifest=manifest)
    return format_report(result), result, "rivals"
