"""The ``manyflow`` harness: scenes vs. the mean-field RED oracle.

Sweeps flow count x RED ``max_p`` over generated scenes (default: the
generalized dumbbell, bandwidth scaled with the flow count so the
per-flow share stays in the fast-recovery regime) and compares each
cell's *measured* bottleneck behaviour — mean queue occupancy and
per-packet drop probability over the post-warmup window — against the
McDonald-Reynier mean-field fixed point computed by
:mod:`repro.models.meanfield`.  The pass/fail verdict of every oracle
cell is recorded in the run manifest (``oracle`` field), so a run
doesn't just finish: it says whether the simulator still agrees with
the analytic model at scales no golden digest covers.

Non-dumbbell families (``--scene parkinglot`` / ``fattree`` / ``wan``)
run the same sweep and measurement on their first designated
bottleneck but skip the verdict — the single-queue fixed point does
not describe multi-bottleneck systems (docs/SCENARIOS.md).

Cells are plain cached tasks of :func:`run_cell`: every cell's warm-up
is its own (keyed on the whole spec), so there is no prefix two cells
could share — a repeated sweep is served by the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import TcpConfig
from repro.metrics.queuemon import QueueMonitor
from repro.models.meanfield import (
    MeanFieldParams,
    MeanFieldPrediction,
    OracleVerdict,
    meanfield_fixed_point,
    oracle_verdict,
)
from repro.net.parkinglot import ParkingLotParams
from repro.net.red import RedParams
from repro.net.topology import DumbbellParams
from repro.runner import SweepRunner, TaskSpec
from repro.scenes import ArrivalSpec, FlowPopulation, Scene, SceneSpec, build_scene
from repro.scenes.registry import default_topology, family as scene_family
from repro.viz.ascii import format_table

#: Data-packet size every scene connection uses (TcpConfig default).
_MSS_BYTES = TcpConfig().mss_bytes
_MAX_WINDOW = float(TcpConfig().receiver_window)


@dataclass
class ManyflowConfig:
    """Knobs for the manyflow sweep.

    The RED thresholds are wider than the paper's Table 4 (the oracle
    wants the fixed point on the early-drop ramp, not pinned to the
    forced-drop cliff) and the bottleneck bandwidth scales with the
    flow count: each flow gets ``bandwidth_per_flow_bps`` of fair
    share, keeping the per-flow window around 8-10 packets at any N —
    big enough for fast recovery, small enough to congest.
    """

    family: str = "dumbbell"
    flow_counts: Sequence[int] = (25, 50, 100)
    max_ps: Sequence[float] = (0.02, 0.1)
    bandwidth_per_flow_bps: float = 800_000.0
    variant: str = "rr"
    duration: float = 20.0
    #: Measurement starts here (pinned to ``duration * WARMUP_FRACTION``
    #: by :func:`run_manyflow`).
    warmup: float = 5.0
    red_min_th: float = 10.0
    red_max_th: float = 40.0
    red_weight: float = 0.002
    red_limit: int = 120
    start_jitter: float = 0.5
    queue_sample_period: float = 0.005
    # CLI --delayed-ack / --ecn: the (previously dead) TcpConfig knobs,
    # carried inside each cell's SceneSpec so they participate in the
    # content address.  With ECN the RED bottlenecks mark instead of
    # early-dropping and the oracle compares the fixed point against
    # the *congestion-signal* probability (marks + drops).
    delayed_ack: bool = False
    ecn: bool = False
    seed: int = 21


@dataclass
class ManyflowCellResult:
    """One (flow count, max_p) cell: measurement + oracle comparison."""

    label: str
    n_flows: int
    max_p: float
    bandwidth_bps: float
    events: int
    measured_queue: float
    measured_loss: float
    goodput_bps: float
    utilization: float
    prediction: Optional[MeanFieldPrediction] = None
    verdict: Optional[OracleVerdict] = None


@dataclass
class ManyflowResult:
    config: ManyflowConfig
    cells: List[ManyflowCellResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        """Every oracle-checked cell within tolerance (vacuously true
        for families without an oracle)."""
        return all(c.verdict.passed for c in self.cells if c.verdict is not None)


def cell_spec(n_flows: int, max_p: float, config: ManyflowConfig) -> SceneSpec:
    """The content-addressed scene one sweep cell runs.

    RED thresholds and the buffer scale linearly with the population
    past 25 flows (the config values are the <= 25-flow baseline).
    This is the McDonald-Reynier scaling regime: the mean-field limit
    holds when the buffer grows with N, and with fixed thresholds a
    thousand-flow cell would park ~1% of its bandwidth-delay product
    in the RED band — aggregate burst noise then swamps [min_th,
    max_th] and overflow drops, not the RED ramp, set the loss rate.
    """
    scale = max(1.0, n_flows / 25.0)
    limit = int(round(config.red_limit * scale))
    red = RedParams(
        min_th=config.red_min_th * scale,
        max_th=config.red_max_th * scale,
        max_p=max_p,
        weight=config.red_weight,
        limit=limit,
        ecn=config.ecn,
    )
    tcp = None
    if config.delayed_ack or config.ecn:
        tcp = TcpConfig(delayed_ack=config.delayed_ack, ecn_enabled=config.ecn)
    topology = None
    if config.family == "dumbbell":
        topology = DumbbellParams(
            n_pairs=n_flows,
            bottleneck_bandwidth_bps=n_flows * config.bandwidth_per_flow_bps,
            buffer_packets=limit,
        )
    elif config.family == "parkinglot":
        # Flows round-robin over 1 long + n_hops cross pairs, so each
        # hop carries roughly half the population; give it that much
        # fair-share bandwidth (and sides fat enough to stay out of
        # the way — every long-path flow shares one access link).
        per_hop = max(1, n_flows // 2)
        topology = ParkingLotParams(
            bottleneck_bandwidth_bps=per_hop * config.bandwidth_per_flow_bps,
            side_bandwidth_bps=max(
                10_000_000.0, n_flows * config.bandwidth_per_flow_bps
            ),
            buffer_packets=limit,
        )
    return SceneSpec(
        family=config.family,
        topology=topology,
        flows=FlowPopulation(count=n_flows, variant=config.variant),
        arrivals=ArrivalSpec(process="jitter", jitter=config.start_jitter),
        red=red,
        tcp=tcp,
        seed=config.seed,
        duration=config.duration,
    )


def _cell_bandwidth(spec: SceneSpec) -> float:
    """The swept bottleneck's bandwidth, whatever the family calls it."""
    topo = spec.topology if spec.topology is not None else default_topology(spec.family)
    for attr in (
        "bottleneck_bandwidth_bps",
        "fabric_bandwidth_bps",
        "core_bandwidth_bps",
    ):
        value = getattr(topo, attr, None)
        if value is not None:
            return float(value)
    raise AttributeError(f"{type(topo).__name__} declares no bottleneck bandwidth")


#: Fraction of a scene's duration simulated before measurement starts
#: (flows ramp out of slow start; the RED average reaches steady state).
WARMUP_FRACTION = 0.25


def run_cell(spec: SceneSpec, label: str, config: ManyflowConfig) -> ManyflowCellResult:
    """Build one cell's scene, run its warm-up, measure the rest of the
    run and compare against the fixed point where one applies."""
    scene: Scene = build_scene(spec)
    scene.sim.run(until=spec.duration * WARMUP_FRACTION)
    queue = (scene.oracle_link or scene.bottlenecks[0]).queue
    base_drops, base_enqueues = queue.drops, queue.enqueues
    # With ECN the RED feedback arrives as marks, not early drops; the
    # fixed point describes the congestion-signal probability, so marks
    # count alongside drops.
    base_marks = getattr(queue, "ecn_marks", 0)
    base_acks = {fid: s.final_ack for fid, s in scene.stats.items()}
    window_start = scene.sim.now
    monitor = QueueMonitor(
        scene.sim, queue, period=config.queue_sample_period, start_time=window_start
    )
    scene.watchdog()
    scene.sim.run(until=spec.duration)

    window = max(spec.duration - window_start, 1e-9)
    drops = queue.drops - base_drops
    enqueues = queue.enqueues - base_enqueues
    signals = drops + getattr(queue, "ecn_marks", 0) - base_marks
    offered = drops + enqueues
    measured_loss = signals / offered if offered else 0.0
    measured_queue = monitor.mean_occupancy()
    acked = sum(s.final_ack - base_acks[fid] for fid, s in scene.stats.items())
    bandwidth = _cell_bandwidth(spec)
    goodput = acked * _MSS_BYTES * 8.0 / window

    # Aggregate goodput over one hop's bandwidth only means something
    # when that hop carries every flow; multi-bottleneck families get
    # the measured queue's busy fraction instead.
    utilization = (
        goodput / bandwidth
        if scene.oracle_link is not None and bandwidth
        else monitor.utilisation_proxy()
    )
    result = ManyflowCellResult(
        label=label,
        n_flows=spec.flows.count,
        max_p=spec.red.max_p if spec.red else 0.0,
        bandwidth_bps=bandwidth,
        events=scene.sim.events_processed,
        measured_queue=measured_queue,
        measured_loss=measured_loss,
        goodput_bps=goodput,
        utilization=utilization,
    )
    if scene.oracle_link is not None and spec.red is not None:
        prediction = meanfield_fixed_point(
            MeanFieldParams(
                n_flows=spec.flows.count,
                bandwidth_bps=bandwidth,
                base_rtt=scene.base_rtt,
                red=spec.red,
                mss_bytes=_MSS_BYTES,
                max_window=_MAX_WINDOW,
            )
        )
        result.prediction = prediction
        result.verdict = oracle_verdict(prediction, measured_queue, measured_loss)
    return result


def run_manyflow(
    config: Optional[ManyflowConfig] = None,
    runner: Optional[SweepRunner] = None,
    manifest: Optional["RunManifest"] = None,
) -> ManyflowResult:
    """Run the flow-count x max_p sweep and return per-cell verdicts.

    Every cell is an independent task fanned out through ``runner``
    (bit-identical at any job count); oracle verdicts land in the
    manifest via :meth:`RunManifest.note_oracle`.
    """
    config = config or ManyflowConfig()
    runner = runner or SweepRunner()
    # The report and the cells measure from duration * WARMUP_FRACTION;
    # make the config say the same.
    if abs(config.warmup - config.duration * WARMUP_FRACTION) > 1e-9:
        config.warmup = config.duration * WARMUP_FRACTION
    result = ManyflowResult(config=config)
    if manifest is not None:
        manifest.describe_harness("manyflow", config=config, seed=config.seed)
    specs = []
    for n in config.flow_counts:
        for max_p in config.max_ps:
            label = f"{config.family} n={n} max_p={max_p:g}"
            specs.append(
                TaskSpec(
                    "repro.experiments.manyflow:run_cell",
                    (cell_spec(n, max_p, config), label, config),
                    label=f"manyflow {label}",
                )
            )
    for cell in runner.map(specs):
        result.cells.append(cell)
        if manifest is not None and cell.verdict is not None:
            manifest.note_oracle(cell.label, cell.verdict)
    return result


def format_report(result: ManyflowResult) -> str:
    config = result.config
    lines = [
        "manyflow — generated scenes vs. the mean-field RED oracle",
        f"(family {config.family}, variant {config.variant},"
        f" {config.duration:g}s per cell, measured after"
        f" {config.duration * WARMUP_FRACTION:g}s warmup)",
        "",
    ]
    rows = []
    for cell in result.cells:
        if cell.verdict is not None:
            pred_q = f"{cell.verdict.predicted_queue:.1f}"
            pred_p = f"{cell.verdict.predicted_loss:.4f}"
            verdict = ("PASS" if cell.verdict.passed else "FAIL") + (
                f" [{cell.verdict.regime}]"
            )
        else:
            pred_q = pred_p = "-"
            verdict = "no oracle"
        rows.append(
            [
                cell.label,
                f"{cell.measured_queue:.1f}",
                pred_q,
                f"{cell.measured_loss:.4f}",
                pred_p,
                f"{cell.utilization:.2f}",
                verdict,
            ]
        )
    lines.append(
        format_table(
            ["cell", "queue", "model q", "loss", "model p", "util", "oracle"],
            rows,
        )
    )
    lines.append("")
    checked = [c for c in result.cells if c.verdict is not None]
    if checked:
        passed = sum(1 for c in checked if c.verdict.passed)
        lines.append(
            f"oracle: {passed}/{len(checked)} cells within tolerance"
            f" (queue +-35%/4 pkts, loss +-50%/0.01; docs/SCENARIOS.md)"
        )
    else:
        lines.append(
            "oracle: not applicable (multi-bottleneck family; measured only)"
        )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = ManyflowConfig()
    if args.scene:
        scene_family(args.scene)  # unknown name: ConfigurationError, no cell built
        config.family = args.scene
    if args.delayed_ack:
        config.delayed_ack = True
    if args.ecn:
        config.ecn = True
    if args.quick:
        config.flow_counts = (25,)
        config.max_ps = (0.02,)
        config.duration = 10.0
    result = run_manyflow(config, runner=runner, manifest=manifest)
    return format_report(result), result, "manyflow"
