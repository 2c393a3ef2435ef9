"""Chaos campaigns: every variant vs. randomized fault plans.

The capstone of the chaos harness (docs/FAULTS.md).  Each TCP variant
runs a bounded transfer through ``seeds`` randomized fault campaigns —
link outages and flaps, router blackouts, reverse-path ACK loss,
duplication, corruption-drop, Gilbert-Elliott burst episodes, periodic
drops and RTO clock skew — while the full invariant suite
(:mod:`repro.sim.invariants`) listens on the trace bus and a
:class:`~repro.sim.watchdog.Watchdog` guards against stalls and event
storms.  A run *survives* when the transfer completes with exactly-once
in-order delivery, zero invariant violations and no watchdog abort.

The report gives per-variant survival, violation/abort/timeout counts
and goodput relative to a fault-free baseline.  The paper's §2.3 claim
— RR degrades linearly (not multiplicatively) when ACKs vanish, because
a missing dup-ACK only shrinks ``actnum`` by one — predicts RR keeps a
higher fraction of its baseline goodput than New-Reno under the mixed
fault load; the chaos table lets you check that shape directly.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro._record import Record, field
from repro.config import TcpConfig
from repro.errors import InvariantViolation
from repro.experiments.common import FlowSpec, build_dumbbell_scenario, known_variants
from repro.faults.campaign import CampaignRunner, CampaignSpec
from repro.faults.plan import FaultContext, FaultPlan
from repro.faults.triage import TriageResult, triage_crash
from repro.ident.features import FlowTraceCollector
from repro.ident.oracle import IdentityVerdict, identify_trace
from repro.net.topology import DumbbellParams
from repro.runner import SnapshotStore, SweepRunner, TaskSpec
from repro.snapshot import Snapshot
from repro.sim.invariants import InvariantSuite
from repro.sim.watchdog import CrashReport, Watchdog
from repro.viz.ascii import format_table


class ChaosConfig(Record):
    """Knobs for the chaos harness."""

    variants: Sequence[str] = ("tahoe", "reno", "newreno", "sack", "rr")
    seeds: int = 5
    seed_base: int = 211
    transfer_packets: int = 1500
    sim_duration: float = 400.0
    stall_timeout: float = 120.0   # > max RTO back-off (64s), so healthy
    check_interval: float = 5.0    #   timeout recovery never reads as a stall
    max_events: int = 2_000_000
    tail_size: int = 50
    # Snapshot-based crash triage: freeze the world where a guard
    # tripped, fork it with and without the active fault, and attach
    # the bisection verdict (and both fork digests) to the report.
    triage: bool = False
    triage_grace: float = 30.0
    # Where triage snapshots persist (crash point and both forks).
    # None = digests only, nothing written to disk.
    snapshot_store_root: Optional[str] = None
    # Behavior-class identity check (repro.ident): collect each run's
    # trace features and classify them against the reference model.  A
    # run whose *conclusive* identification contradicts its declared
    # variant is flagged in the report — heavy fault plans legitimately
    # distort dynamics, so an inconclusive verdict is recorded but
    # never flagged, and divergence does not count against survival.
    identify: bool = True
    campaign: CampaignSpec = field(
        default_factory=lambda: CampaignSpec(
            horizon=20.0,      # faults land while the transfer is in flight
            warmup=1.0,
            max_actions=3,
            episode_max=8.0,
        )
    )

    def tcp_config(self) -> TcpConfig:
        return TcpConfig(receiver_window=64, initial_ssthresh=20.0)


class ChaosRun(Record):
    """One (variant, seed) cell."""

    variant: str
    seed_index: int
    plan: str                       # human-readable plan description
    completed: bool = False
    delivered: int = 0
    delivered_ok: bool = False
    duplicates: int = 0
    timeouts: int = 0
    finish_time: Optional[float] = None
    violation: Optional[InvariantViolation] = None
    crash: Optional[CrashReport] = None
    records_checked: int = 0
    snapshot_digest: Optional[str] = None
    triage: Optional[TriageResult] = None
    identity: Optional[IdentityVerdict] = None

    @property
    def identity_diverged(self) -> bool:
        """True when the behavior-class oracle conclusively identified
        this run as a *different* variant than declared."""
        return self.identity is not None and self.identity.diverged

    @property
    def survived(self) -> bool:
        return (
            self.completed
            and self.delivered_ok
            and self.violation is None
            and self.crash is None
        )


class ChaosVariantSummary(Record):
    variant: str
    runs: int
    survived: int
    violations: int
    watchdog_aborts: int
    incomplete: int
    mean_timeouts: float
    baseline_time: float
    goodput_vs_baseline: float      # mean over completed runs, 1.0 = no loss


class ChaosResult(Record):
    config: ChaosConfig
    runs: List[ChaosRun] = field(default_factory=list)
    baselines: Dict[str, float] = field(default_factory=dict)

    def summary(self, variant: str) -> ChaosVariantSummary:
        rows = [r for r in self.runs if r.variant == variant]
        baseline = self.baselines.get(variant, 0.0)
        ratios = [
            baseline / r.finish_time
            for r in rows
            if r.finish_time and baseline > 0.0
        ]
        return ChaosVariantSummary(
            variant=variant,
            runs=len(rows),
            survived=sum(1 for r in rows if r.survived),
            violations=sum(1 for r in rows if r.violation is not None),
            watchdog_aborts=sum(1 for r in rows if r.crash is not None),
            incomplete=sum(1 for r in rows if not r.completed),
            mean_timeouts=(
                sum(r.timeouts for r in rows) / len(rows) if rows else 0.0
            ),
            baseline_time=baseline,
            goodput_vs_baseline=(sum(ratios) / len(ratios)) if ratios else 0.0,
        )

    @property
    def clean(self) -> bool:
        """True when every run survived."""
        return all(r.survived for r in self.runs)


class _StopOnComplete:
    """Completion hook that halts the engine — a named callable instead
    of a lambda so a chaos world stays snapshot-safe (picklable)."""

    __slots__ = ("sim",)

    def __init__(self, sim):
        self.sim = sim

    def __call__(self, _t: float) -> None:
        self.sim.request_stop("transfer complete")


def _run_one(
    variant: str,
    config: ChaosConfig,
    plan: Optional[FaultPlan],
    seed_index: int = -1,
) -> ChaosRun:
    """One guarded transfer; ``plan=None`` is the fault-free baseline."""
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=config.transfer_packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
        default_config=config.tcp_config(),
    )
    sim, bell = scenario.sim, scenario.dumbbell

    suite = InvariantSuite.standard(tail_size=config.tail_size)
    suite.watch_queue(bell.bottleneck_queue)
    suite.install(bell.net.trace)

    watchdog = Watchdog(
        sim,
        senders=scenario.senders,
        stall_timeout=config.stall_timeout,
        check_interval=config.check_interval,
        max_events=config.max_events,
        tail=suite.tail,
    ).arm()

    if plan is not None:
        plan.install(FaultContext.from_scenario(scenario))

    collector = None
    if config.identify:
        collector = FlowTraceCollector().install(bell.net.trace)

    sender = scenario.senders[1]
    sender.completion_callbacks.append(_StopOnComplete(sim))

    run = ChaosRun(
        variant=variant,
        seed_index=seed_index,
        plan=plan.describe() if plan is not None else "fault-free baseline",
    )
    try:
        sim.run(until=config.sim_duration)
    except InvariantViolation as violation:
        run.violation = violation
    finally:
        watchdog.disarm()
        suite.uninstall()
        if collector is not None:
            collector.uninstall()

    if collector is not None and 1 in collector.flows:
        run.identity = identify_trace(collector.flows[1], declared=variant)

    receiver = scenario.receivers[1]
    run.completed = sender.completed
    run.delivered = receiver.delivered
    run.delivered_ok = receiver.delivered == config.transfer_packets
    run.duplicates = receiver.duplicates_received
    run.timeouts = sender.timeouts
    run.finish_time = sender.complete_time
    run.crash = watchdog.report
    run.records_checked = suite.records_seen
    failed = run.crash is not None or run.violation is not None
    if failed and config.triage and plan is not None:
        _triage_failure(run, scenario, config)
    if failed:
        _dump_failure_artifact(run)
    return run


def _triage_failure(run: ChaosRun, scenario, config: ChaosConfig) -> None:
    """Freeze the crash point and bisect it (see repro.faults.triage).

    Runs after the watchdog is disarmed and the invariant suite
    uninstalled, so the world is capturable and the forks re-run
    without guards re-tripping mid-triage.
    """
    crash_snapshot = Snapshot.capture(
        scenario, label=f"chaos crash {run.variant} seed {run.seed_index}"
    )
    store = (
        SnapshotStore(config.snapshot_store_root)
        if config.snapshot_store_root
        else None
    )
    triage = triage_crash(crash_snapshot, grace=config.triage_grace, store=store)
    run.snapshot_digest = crash_snapshot.digest
    run.triage = triage
    if run.crash is not None:
        run.crash.snapshot_digest = crash_snapshot.digest
        run.crash.triage = triage


def _dump_failure_artifact(run: ChaosRun) -> None:
    """Append the crash report / violation (with trace tail) to
    ``$REPRO_ARTIFACT_DIR/chaos-failures.txt`` so CI can upload it as a
    workflow artifact.  A no-op when the env var is unset."""
    artifact_dir = os.environ.get("REPRO_ARTIFACT_DIR")
    if not artifact_dir:
        return
    lines = [f"=== chaos failure: {run.variant} seed {run.seed_index} ===", run.plan]
    if run.violation is not None:
        lines.append(f"invariant violation: {run.violation}")
        lines.append(run.violation.format_tail())
    if run.crash is not None:
        lines.append(run.crash.format())
    elif run.triage is not None:
        lines.append(run.triage.format())
    lines.append("")
    try:
        path = Path(artifact_dir)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "chaos-failures.txt", "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError:  # pragma: no cover - artifact capture must not mask the run
        pass


def run_cell(variant: str, config: ChaosConfig, seed_index: int = -1) -> ChaosRun:
    """One chaos cell, self-contained for process fan-out.

    ``seed_index < 0`` is the fault-free baseline; otherwise the worker
    rebuilds campaign plan ``seed_index`` from ``(config.seed_base,
    config.campaign)`` — :meth:`CampaignRunner.plan_for` is pure in
    those arguments, so no plan crosses the process boundary and
    parallel campaigns match serial ones bit for bit.
    """
    plan = None
    if seed_index >= 0:
        campaign = CampaignRunner(seed=config.seed_base, spec=config.campaign)
        plan = campaign.plan_for(seed_index)
    return _run_one(variant, config, plan, seed_index)


def run_chaos(
    config: Optional[ChaosConfig] = None,
    runner: Optional[SweepRunner] = None,
    manifest: Optional["RunManifest"] = None,
) -> ChaosResult:
    """All variants x ``seeds`` campaigns (+ one baseline per variant)."""
    config = config or ChaosConfig()
    runner = runner or SweepRunner()
    result = ChaosResult(config=config)
    if manifest is not None:
        manifest.describe_harness("chaos", config=config, seed=config.seed_base)
    campaign = CampaignRunner(seed=config.seed_base, spec=config.campaign)
    specs: List[TaskSpec] = []
    for variant in config.variants:
        specs.append(
            TaskSpec(
                fn="repro.experiments.chaos:run_cell",
                args=(variant, config),
                label=f"chaos {variant} baseline",
            )
        )
        specs.extend(
            campaign.cell_specs(
                "repro.experiments.chaos:run_cell",
                config.seeds,
                args=(variant, config),
            )
        )
    cells = runner.map(specs)
    per_variant = 1 + config.seeds
    for slot, variant in enumerate(config.variants):
        baseline, *campaign_runs = cells[slot * per_variant : (slot + 1) * per_variant]
        if baseline.finish_time is None:
            raise RuntimeError(
                f"fault-free baseline for {variant!r} did not complete "
                f"within {config.sim_duration}s"
            )
        result.baselines[variant] = baseline.finish_time
        result.runs.extend(campaign_runs)
        if manifest is not None:
            if baseline.identity is not None:
                manifest.note_identity(f"{variant}/baseline", baseline.identity)
            for run in campaign_runs:
                if run.identity is not None:
                    manifest.note_identity(
                        f"{variant}/seed{run.seed_index}", run.identity
                    )
    return result


def format_report(result: ChaosResult) -> str:
    config = result.config
    lines = [
        "Chaos harness — fault-injection campaigns with online invariant"
        " checking and watchdog",
        f"({config.seeds} seeded campaigns/variant, {config.transfer_packets}"
        f" packets/transfer, faults within "
        f"[{config.campaign.warmup:.0f}s, {config.campaign.horizon:.0f}s),"
        f" stall timeout {config.stall_timeout:.0f}s)",
        "",
    ]
    rows = []
    for variant in config.variants:
        s = result.summary(variant)
        rows.append(
            [
                variant,
                f"{s.survived}/{s.runs}",
                s.violations,
                s.watchdog_aborts,
                s.incomplete,
                f"{s.mean_timeouts:.1f}",
                f"{s.baseline_time:.2f}",
                f"{100 * s.goodput_vs_baseline:.0f}%",
            ]
        )
    lines.append(
        format_table(
            [
                "variant",
                "survived",
                "inv-viol",
                "wd-abort",
                "incomplete",
                "RTOs",
                "base s",
                "goodput",
            ],
            rows,
        )
    )
    lines.append("")
    if result.clean:
        lines.append(
            "all runs survived: exactly-once in-order delivery, zero invariant"
            " violations, zero watchdog aborts."
        )
    else:
        for run in result.runs:
            if run.survived:
                continue
            reason = (
                "invariant violation"
                if run.violation is not None
                else f"watchdog abort ({run.crash.reason})"
                if run.crash is not None
                else "incomplete/short delivery"
            )
            lines.append(f"FAILED {run.variant} seed {run.seed_index}: {reason}")
            lines.append(f"  {run.plan}")
            if run.violation is not None:
                lines.append(f"  {run.violation}")
            if run.crash is not None:
                lines.append("  " + run.crash.format().replace("\n", "\n  "))
            elif run.triage is not None:
                lines.append("  " + run.triage.format().replace("\n", "\n  "))
    if config.identify:
        diverged = [r for r in result.runs if r.identity_diverged]
        checked = sum(1 for r in result.runs if r.identity is not None)
        inconclusive = sum(
            1
            for r in result.runs
            if r.identity is not None and not r.identity.conclusive
        )
        lines.append("")
        if diverged:
            lines.append(
                f"IDENTITY DIVERGENCE: {len(diverged)}/{checked} runs"
                " conclusively behave like a different variant than declared:"
            )
            for run in diverged:
                lines.append(
                    f"  {run.variant} seed {run.seed_index}:"
                    f" {run.identity.describe()}"
                )
        else:
            lines.append(
                f"behavior-class oracle: {checked} runs checked, no declared/"
                f"identified divergence ({inconclusive} inconclusive under"
                " fault load)."
            )
    lines.append("")
    lines.append(
        "paper shape (Section 2.3): under ACK loss RR degrades linearly —"
        " expect RR to keep a goodput fraction at or above New-Reno's here."
    )
    return "\n".join(lines)


def run_cli(args, runner, manifest=None):
    """``python -m repro.experiments`` adapter: parsed CLI options ->
    ``(report, result, export id)`` (see :mod:`repro.experiments.cli`)."""
    config = ChaosConfig()
    if args.quick:
        config.seeds = 2
        config.variants = ("newreno", "rr")
        config.transfer_packets = 600
    if args.seeds is not None:
        config.seeds = args.seeds
    if args.variants:
        config.variants = known_variants(args.variants)
    if args.triage:
        config.triage = True
        config.snapshot_store_root = str(SnapshotStore().root)
    result = run_chaos(config, runner=runner, manifest=manifest)
    return format_report(result), None, None
