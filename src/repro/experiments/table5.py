"""Table 5: fairness — RR interoperating with TCP Reno.

Paper setup (Section 5): the drop-tail dumbbell with a 25-packet buffer
and 0.8 Mb/s bottleneck shared by 20 connections.  Nineteen background
connections have infinite data and staggered starts (first at t=0, one
more every 0.5 s); the targeted connection transfers a 100 KByte file
from S20 to K20 starting at t=4.8 s.  The transfer delay and packet
loss rate of the targeted connection are measured for the four (target
implementation, background implementation) combinations of {Reno, RR}.

Expected shape (paper Table 5):

* a Reno target is *not hurt* — in fact helped — when the background
  switches from Reno to RR (reduced synchronisation/fluctuation);
* an RR target among Renos sees lower delay and loss than the all-Reno
  baseline (paper row: 18.0 s, 11%) — by using bandwidth Reno leaves
  idle, not by stealing (Section 5's bandwidth accounting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.app.ftp import FtpSource
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.metrics.fairness import jain_index
from repro.metrics.flowstats import FlowStats
from repro.net.packet import set_uid_state
from repro.net.topology import DumbbellParams
from repro.runner.grid import GridCell, run_grid
from repro.sim.rng import RngStream
from repro.tcp.factory import make_connection
from repro.viz.ascii import format_table


@dataclass
class Table5Config:
    """Knobs for the Table 5 harness (defaults = paper values)."""

    cases: Sequence[Tuple[str, str]] = (
        ("reno", "reno"),
        ("reno", "rr"),
        ("rr", "rr"),
        ("rr", "reno"),
    )
    n_connections: int = 20
    stagger_seconds: float = 0.5
    target_bytes: int = 100_000
    target_start: float = 4.8
    buffer_packets: int = 25
    sim_duration: float = 180.0
    # The 20-flow drop-tail system is chaotic: tiny phase changes flip
    # individual runs.  Each case is replicated with jittered background
    # start times and the mean is reported (the paper reports one run of
    # an unpublished background mix; means are the comparable statistic).
    runs_per_case: int = 5
    start_jitter: float = 0.1
    seed: int = 17
    # Warm-start capture point: the background system is frozen this
    # many seconds *before* the target starts, leaving room to attach
    # the target connection (whose FTP source schedules an absolute
    # start event) while the prefix stays target-agnostic.
    attach_margin: float = 0.25


@dataclass
class Table5Row:
    target_variant: str
    background_variant: str
    transfer_delay: Optional[float]   # mean across replications
    loss_rate: float                  # mean across replications
    timeouts: float                   # mean across replications
    retransmits: float
    background_jain: float   # fairness across background flows (extension)
    completed_runs: int = 0
    total_runs: int = 0


@dataclass
class Table5Result:
    config: Table5Config
    rows: List[Table5Row] = field(default_factory=list)


def prefix_world(background_variant: str, run_index: int, config: Table5Config):
    """Build the 19-background-flow system (with the target's host pair
    wired but unused) and run it to just before the target starts.

    The prefix is *target-agnostic*: both target variants of one
    ``(background, run)`` replication fork the same frozen world and
    attach their own target connection (:func:`_attach_target`).
    """
    set_uid_state(1)
    n_background = config.n_connections - 1
    rng = RngStream(config.seed + run_index, "table5-jitter")
    flows = [
        FlowSpec(
            variant=background_variant,
            start_time=i * config.stagger_seconds
            + (rng.uniform(0.0, config.start_jitter) if run_index else 0.0),
            amount_packets=None,
        )
        for i in range(n_background)
    ]
    scenario = build_dumbbell_scenario(
        flows=flows,
        params=DumbbellParams(
            n_pairs=config.n_connections, buffer_packets=config.buffer_packets
        ),
    )
    scenario.sim.run(until=max(config.target_start - config.attach_margin, 0.0))
    return scenario


def _attach_target(scenario, target_variant: str, config: Table5Config):
    """Wire the targeted connection onto host pair ``n_connections`` of
    a prefix world — the Table-5 reprogram step."""
    flow_id = config.n_connections
    mss = 1000  # paper MSS; TcpConfig default
    target_packets = (config.target_bytes + mss - 1) // mss
    bell = scenario.dumbbell
    stats = FlowStats(flow_id=flow_id)
    stats.watch_drops(bell.net.trace)
    sender, receiver = make_connection(
        scenario.sim,
        target_variant,
        flow_id,
        bell.sender(flow_id),
        bell.receiver(flow_id),
        config=None,
        observer=stats,
        trace=bell.net.trace,
    )
    source = FtpSource(
        scenario.sim,
        sender,
        amount_packets=target_packets,
        start_time=config.target_start,
    )
    scenario.senders[flow_id] = sender
    scenario.receivers[flow_id] = receiver
    scenario.stats[flow_id] = stats
    scenario.sources[flow_id] = source
    return scenario


def finish_replica(fresh_world, target_variant: str, config: Table5Config):
    """One replication: attach the target to the frozen background
    system, run to the end and measure it.  Returns
    ``(delay|None, loss, timeouts, rtx, jain)``."""
    scenario = _attach_target(fresh_world(), target_variant, config)
    target_id = config.n_connections
    target_sender = scenario.senders[target_id]
    scenario.sim.run(until=config.sim_duration)

    target_stats = scenario.stats[target_id]
    delay = (
        target_sender.complete_time - config.target_start
        if target_sender.complete_time is not None
        else None
    )
    background_goodputs = [
        scenario.stats[i].final_ack for i in range(1, config.n_connections)
    ]
    return (
        delay,
        target_stats.loss_rate(),
        target_sender.timeouts,
        target_sender.retransmits,
        jain_index(background_goodputs),
    )


def run_replica(
    target_variant: str, background_variant: str, config: Table5Config, run_index: int
):
    """One replication from t=0."""
    return finish_replica(
        lambda: prefix_world(background_variant, run_index, config),
        target_variant,
        config,
    )


def _reduce_case(
    target_variant: str, background_variant: str, config: Table5Config, replicas
) -> Table5Row:
    """Aggregate the replications of one (target, background) cell."""
    delays, losses, timeouts, retransmits, jains = [], [], [], [], []
    completed = 0
    for delay, loss, n_timeouts, n_retransmits, jain in replicas:
        if delay is not None:
            delays.append(delay)
            completed += 1
        losses.append(loss)
        timeouts.append(n_timeouts)
        retransmits.append(n_retransmits)
        jains.append(jain)
    n = len(losses)
    return Table5Row(
        target_variant=target_variant,
        background_variant=background_variant,
        transfer_delay=sum(delays) / len(delays) if delays else None,
        loss_rate=sum(losses) / n,
        timeouts=sum(timeouts) / n,
        retransmits=sum(retransmits) / n,
        background_jain=sum(jains) / n,
        completed_runs=completed,
        total_runs=n,
    )


def run_case(target_variant: str, background_variant: str, config: Table5Config) -> Table5Row:
    """One (target, background) cell of Table 5 (mean of replications)."""
    replicas = [
        run_replica(target_variant, background_variant, config, run_index)
        for run_index in range(config.runs_per_case)
    ]
    return _reduce_case(target_variant, background_variant, config, replicas)


def run_table5(
    config: Optional[Table5Config] = None,
    runner: Optional["SweepRunner"] = None,
    warm_start: bool = False,
    store: Optional["SnapshotStore"] = None,
    manifest: Optional["RunManifest"] = None,
) -> Table5Result:
    """Regenerate all four cases of Table 5.

    The sweep fans out per *replication* rather than per case.  With a
    true ``warm_start`` each (background, run) prefix — the chaotic
    19-flow build-up — is simulated once and both target variants fork
    it, so the four-case grid needs ``2 x runs_per_case`` prefixes
    instead of ``4 x runs_per_case`` warm-ups, and rows stay
    bit-identical to the cold path.
    """
    config = config or Table5Config()
    if manifest is not None:
        manifest.describe_harness("table5", config=config, seed=config.seed)
    cells = [
        GridCell(
            "repro.experiments.table5:prefix_world",
            (background_variant, run_index, config),
            "repro.experiments.table5:finish_replica",
            (target_variant, config),
            label=f"table5 {target_variant}/{background_variant}s run{run_index}",
        )
        for target_variant, background_variant in config.cases
        for run_index in range(config.runs_per_case)
    ]
    replicas = run_grid(cells, runner, warm_start, store)
    per_case = config.runs_per_case
    rows = [
        _reduce_case(
            target_variant,
            background_variant,
            config,
            replicas[index * per_case : (index + 1) * per_case],
        )
        for index, (target_variant, background_variant) in enumerate(config.cases)
    ]
    return Table5Result(config=config, rows=rows)


def format_report(result: Table5Result) -> str:
    lines = [
        "Table 5 — performance of the targeted TCP connection",
        "(20 connections, drop-tail buffer 25, 0.8 Mb/s; target sends 100 KB"
        " starting at 4.8 s)",
        "",
    ]
    rows = []
    for row in result.rows:
        rows.append(
            [
                f"{row.target_variant} / {row.background_variant}s",
                f"{row.transfer_delay:.1f}" if row.transfer_delay else "DNF",
                f"{row.loss_rate * 100:.1f}%",
                f"{row.timeouts:.1f}",
                f"{row.background_jain:.3f}",
                f"{row.completed_runs}/{row.total_runs}",
            ]
        )
    lines.append(
        format_table(
            ["target/background", "delay s", "loss", "RTOs", "bg Jain", "done"], rows
        )
    )
    lines.append(
        f"(means of {result.config.runs_per_case} replications with jittered"
        " background start times)"
    )
    lines.append("")
    lines.append(
        "paper shape: Reno target improves when background becomes RR; RR target"
        " among Renos gets lower delay & loss (paper: 18.0 s, 11%)."
    )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = Table5Config()
    if args.quick:
        config.sim_duration = 90.0
        config.runs_per_case = 2
    result = run_table5(config, runner=runner, manifest=manifest)
    return format_report(result), result, "table5"
