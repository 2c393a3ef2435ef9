"""Command-line entry point: ``python -m repro.experiments <id>``.

Experiment ids match DESIGN.md's experiment index: fig5, fig6, fig7,
table5, plus the extension studies (ackloss, ablation, vegas, burst),
the robustness harnesses (chaos, identify) and the scene sweep
(manyflow), or ``all``.  ``--quick`` shrinks sweeps for smoke runs;
``--out DIR`` additionally writes each report to ``DIR/<id>.txt``;
``--seeds`` / ``--variants`` size the chaos campaign (see
docs/FAULTS.md); ``--grid`` picks the identification scenario grid
(see docs/IDENTIFICATION.md).

Every experiment grid is executed through :mod:`repro.runner`:
``--jobs N`` fans the independent cells out over N worker processes
(bit-identical results at any N), and completed cells are memoized in
an on-disk cache keyed by task + code fingerprint, so repeating a run
is nearly free.  ``--no-cache`` forces recomputation; see
docs/PERFORMANCE.md.  ``--triage`` bisects chaos crashes from frozen
crash points (docs/WARMSTART.md).

Every run writes a provenance manifest (plus a JSONL event log) to
``$REPRO_ARTIFACT_DIR/runs/<run_id>/``; ``--progress`` / ``--quiet``
force the live progress line on/off (default: only on a TTY) and
``--profile`` captures a cProfile per executed task and prints the
merged hot-function table.  See docs/OBSERVABILITY.md.

Fault tolerance (docs/RESILIENCE.md): ``--max-retries`` re-runs
failing cells on a deterministic backoff schedule, ``--task-timeout``
kills and retries cells that overrun a wall-clock deadline, and
``python -m repro.experiments fsck`` verifies/repairs the on-disk
result cache and snapshot store.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.obs.telemetry import RunTelemetry
from repro.runner.cache import ResultCache
from repro.runner.pool import SweepRunner
from repro.runner.resilience import RetryPolicy

#: Experiment id -> harness module under :mod:`repro.experiments`.  A
#: harness is imported when its id is selected (``--list``, ``fsck`` and
#: ``snapshot inspect`` import none); its ``run_cli(args, runner,
#: manifest)`` maps the parsed options to ``(report, result, export id)``.
EXPERIMENTS = {
    "fig5": "figure5",
    "fig6": "figure6",
    "fig7": "figure7",
    "table5": "table5",
    "ackloss": "ackloss",
    "ablation": "ablation",
    "vegas": "vegas_decomposition",
    "burst": "burstchannel",
    "chaos": "chaos",
    "manyflow": "manyflow",
    "rivals": "rivals",
    "identify": "identify",
}

#: One-line descriptions for ``--list``.
DESCRIPTIONS = {
    "fig5": "effective throughput during 3/6-drop recovery (drop-tail)",
    "fig6": "sequence-number dynamics under RED gateways (ten flows)",
    "fig7": "fitness to the Mathis square-root model (window vs. loss rate)",
    "table5": "targeted connection's transfer delay, RR interoperating with Reno",
    "ackloss": "RR's linear degradation under reverse-path ACK loss (§2.3)",
    "ablation": "RR mechanism knock-outs (actnum/ndup/exit-point variants)",
    "vegas": "Vegas-decomposition extension study",
    "burst": "Gilbert-Elliott burst-channel extension study",
    "chaos": "fault-injection campaigns with invariants + watchdog",
    "manyflow": "generated scenes swept against the mean-field RED oracle",
    "rivals": "RR vs {Reno,NewReno,CUBIC,Relentless} under modern regimes",
    "identify": "trace-based variant identification vs the reference model",
}

#: Long-form spellings accepted on the command line.
ALIASES = {"figure5": "fig5", "figure6": "fig6", "figure7": "fig7"}


def format_listing() -> str:
    """The ``--list`` output: every experiment id + description."""
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments (python -m repro.experiments <id>):"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:<{width}}  {DESCRIPTIONS[name]}")
    alias_bits = ", ".join(f"{a}={t}" for a, t in sorted(ALIASES.items()))
    lines.append(f"  {'all':<{width}}  run every experiment above")
    lines.append(f"aliases: {alias_bits}")
    from repro.scenes.registry import describe_families

    lines.append("scene families (manyflow --scene <family>):")
    lines.append(describe_families())
    lines.append("snapshot tools: python -m repro.experiments snapshot --help")
    lines.append("storage fsck:   python -m repro.experiments fsck --help")
    return "\n".join(lines)


def build_runner(
    jobs: int = 1,
    cache: bool = True,
    max_retries: int = 1,
    task_timeout: Optional[float] = None,
) -> SweepRunner:
    """The CLI's sweep runner: N workers + the default on-disk cache,
    with one deterministic retry per failing cell by default (see
    docs/RESILIENCE.md; ``--max-retries 0`` restores fail-fast)."""
    policy = RetryPolicy(max_retries=max_retries) if max_retries > 0 else None
    return SweepRunner(
        jobs=jobs,
        cache=ResultCache() if cache else None,
        retry_policy=policy,
        task_timeout=task_timeout,
    )


def fsck_cli(argv: List[str]) -> int:
    """``python -m repro.experiments fsck ...``: verify (and repair)
    the on-disk result cache and snapshot store.

    Corrupt artifacts are quarantined and foreign ones counted and left
    in place; ``--dry-run`` reports without touching anything (see
    docs/RESILIENCE.md).  Exits non-zero when issues were found and
    left unrepaired.
    """
    from repro.runner.fsck import fsck

    parser = argparse.ArgumentParser(
        prog="repro-experiments fsck",
        description="Verify and repair the sweep result cache and"
        " snapshot store (see docs/RESILIENCE.md).",
    )
    parser.add_argument(
        "--cache-root",
        metavar="DIR",
        default=None,
        help="cache root to sweep (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report issues without quarantining anything",
    )
    args = parser.parse_args(argv)
    report = fsck(
        cache_root=Path(args.cache_root) if args.cache_root else None,
        repair=not args.dry_run,
    )
    print(report.summary())
    unrepaired = sum(
        1 for issue in report.issues if issue.action == "reported"
    )
    return 1 if unrepaired else 0


def snapshot_cli(argv: List[str]) -> int:
    """``python -m repro.experiments snapshot <verb> ...``.

    ``capture`` runs a variant's golden scenario to ``--checkpoint-at T``
    and writes the frozen world to ``--out``; ``inspect`` prints a
    snapshot file's header without loading the payload; ``run`` resumes
    a snapshot (``--from-snapshot``) and simulates to ``--until`` (or
    until the event queue drains); ``diff`` compares two snapshot files
    (per-section byte drift, delta-encoding size, and the semantic
    state-fingerprint diff of the restored worlds).
    """
    from repro.snapshot.core import Snapshot
    from repro.tcp.factory import VARIANTS

    parser = argparse.ArgumentParser(
        prog="repro-experiments snapshot",
        description="Checkpoint, inspect and resume frozen simulations"
        " (see docs/SNAPSHOT.md).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    cap = sub.add_parser(
        "capture",
        help="run a variant's golden scenario to T and freeze it",
    )
    cap.add_argument("variant", choices=sorted(VARIANTS))
    cap.add_argument(
        "--checkpoint-at",
        type=float,
        required=True,
        metavar="T",
        help="simulation time (seconds) to capture at",
    )
    cap.add_argument("--out", required=True, metavar="PATH")
    insp = sub.add_parser("inspect", help="print a snapshot file's header")
    insp.add_argument("path", metavar="PATH")
    runp = sub.add_parser("run", help="resume a snapshot and simulate onward")
    runp.add_argument("--from-snapshot", required=True, metavar="PATH")
    runp.add_argument(
        "--until",
        type=float,
        default=None,
        metavar="T",
        help="absolute simulation time to stop at (default: drain the queue)",
    )
    diffp = sub.add_parser("diff", help="compare two snapshot files")
    diffp.add_argument("base", metavar="BASE")
    diffp.add_argument("target", metavar="TARGET")
    diffp.add_argument(
        "--semantic",
        action="store_true",
        help="also restore both worlds and diff their per-attribute"
        " state fingerprints (slower; mutates nothing on disk)",
    )
    args = parser.parse_args(argv)

    if args.verb == "capture":
        from repro.snapshot.golden import build_golden_scenario

        scenario = build_golden_scenario(args.variant)
        scenario.sim.run(until=args.checkpoint_at)
        snapshot = Snapshot.capture(
            scenario, label=f"golden {args.variant} @ t={args.checkpoint_at:g}"
        )
        path = snapshot.save(args.out)
        print(
            f"captured {args.variant} at t={snapshot.sim_time:g} -> {path}\n"
            f"  digest {snapshot.digest}\n"
            f"  {snapshot.nbytes} bytes, "
            f"{snapshot.info.events_processed} events processed"
        )
        return 0
    if args.verb == "inspect":
        info = Snapshot.read_info(args.path)
        print(
            f"{args.path}: format {info.format}, label {info.label!r}\n"
            f"  t={info.sim_time:g}, {info.events_processed} events processed\n"
            f"  digest {info.digest}"
        )
        return 0
    if args.verb == "diff":
        return _snapshot_diff(args)
    # run
    world = Snapshot.load(args.from_snapshot).restore()
    fired = world.sim.run(until=args.until)
    print(
        f"resumed {args.from_snapshot}: fired {fired} events, "
        f"now t={world.sim.now:g}"
    )
    senders = getattr(world, "senders", None)
    if senders:
        for flow_id, sender in sorted(senders.items()):
            print(
                f"  flow {flow_id} ({sender.variant}): una={sender.snd_una} "
                f"cwnd={sender.cwnd:.2f} rtos={sender.timeouts} "
                f"{'done' if sender.completed else 'open'}"
            )
    return 0


def _snapshot_diff(args) -> int:
    """``snapshot diff BASE TARGET``: section drift + delta size, and
    optionally the semantic per-attribute fingerprint diff."""
    from repro.snapshot import DeltaSnapshot, Snapshot, state_fingerprints

    base = Snapshot.load(args.base)
    target = Snapshot.load(args.target)
    print(f"base:   {args.base}  t={base.sim_time:g}  digest {base.digest[:16]}…")
    print(f"target: {args.target}  t={target.sim_time:g}  digest {target.digest[:16]}…")
    if base.digest == target.digest:
        print("snapshots are identical (same state digest)")
        return 0
    base_sections = base.section_bytes()
    target_sections = target.section_bytes()
    print(f"{'section':<16} {'base B':>8} {'target B':>8}  drift")
    names = list(target_sections)
    names += [n for n in base_sections if n not in target_sections]
    for name in names:
        b = base_sections.get(name)
        t = target_sections.get(name)
        if b is None or t is None:
            drift = "only in " + ("target" if b is None else "base")
        elif b == t:
            drift = "identical"
        else:
            drift = "changed"
        print(f"{name:<16} {len(b) if b else 0:>8} {len(t) if t else 0:>8}  {drift}")
    delta = DeltaSnapshot.diff(target, base)
    pct = 100.0 * delta.nbytes / target.nbytes if target.nbytes else 0.0
    print(
        f"delta encoding (target vs base): {delta.nbytes} B vs {target.nbytes} B"
        f" full ({pct:.0f}%)"
    )
    if args.semantic:
        base_fp = state_fingerprints(base.restore(verify=False))
        target_fp = state_fingerprints(target.restore(verify=False))
        drifted = [
            k
            for k in sorted(set(base_fp) | set(target_fp))
            if base_fp.get(k) != target_fp.get(k)
        ]
        if drifted:
            print("semantic drift (state fingerprints):")
            for key in drifted:
                print(
                    f"  {key}: {base_fp.get(key, '-')[:12]} ->"
                    f" {target_fp.get(key, '-')[:12]}"
                )
        else:
            print("no semantic drift at the top level (byte-only differences)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "snapshot":
        return snapshot_cli(list(argv[1:]))
    if argv and argv[0] == "fsck":
        return fsck_cli(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of 'Robust TCP Congestion"
        " Recovery' (Wang & Shin, ICDCS 2001).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + sorted(ALIASES) + ["all", "snapshot", "fsck"],
        help="experiment id from DESIGN.md, 'snapshot' for the"
        " checkpoint tools, or 'fsck' for storage verification",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list every experiment with a one-line description and exit",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps for a fast smoke run"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep grid (default 1 = in-process)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="memoize completed cells on disk (default; see docs/PERFORMANCE.md)",
    )
    cache_group.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="recompute every cell, ignore and do not write the cache",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write each report to DIR/<id>.txt",
    )
    parser.add_argument(
        "--scene",
        metavar="FAMILY",
        default=None,
        help="manyflow only: topology family to sweep (dumbbell,"
        " parkinglot, fattree, wan; see --list)",
    )
    parser.add_argument(
        "--delayed-ack",
        dest="delayed_ack",
        action="store_true",
        help="rivals/manyflow: enable RFC 1122 delayed ACKs at every"
        " receiver (recorded in the run manifest)",
    )
    parser.add_argument(
        "--ecn",
        dest="ecn",
        action="store_true",
        help="rivals/manyflow: negotiate ECN end-to-end (RED bottlenecks"
        " mark instead of early-dropping; recorded in the run manifest)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="chaos only: number of seeded campaigns per variant",
    )
    parser.add_argument(
        "--variants",
        nargs="+",
        metavar="VARIANT",
        default=None,
        help="chaos/identify: restrict to these TCP variants",
    )
    parser.add_argument(
        "--grid",
        choices=("heldout", "training", "both"),
        default=None,
        help="identify only: which labeled scenario grid to sweep"
        " (default heldout; see docs/IDENTIFICATION.md)",
    )
    parser.add_argument(
        "--triage",
        action="store_true",
        help="chaos only: on a watchdog/invariant trip, freeze the crash"
        " point and bisect it with/without the active fault"
        " (see docs/WARMSTART.md)",
    )
    progress_group = parser.add_mutually_exclusive_group()
    progress_group.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        default=None,
        help="force the live progress line on (default: only on a TTY)",
    )
    progress_group.add_argument(
        "--quiet",
        dest="progress",
        action="store_false",
        help="suppress the live progress line",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="capture a cProfile per executed task under"
        " runs/<run_id>/profiles/ and print the merged hot-function"
        " table (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="deterministic retries per failing cell before it is"
        " quarantined (default 1; 0 = fail fast; see docs/RESILIENCE.md)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per cell execution; an overrunning"
        " worker is killed and the cell retried under --max-retries"
        " (default: no deadline)",
    )
    args = parser.parse_args(argv)
    if args.list:
        print(format_listing())
        return 0
    if args.experiment is None:
        parser.error("an experiment id is required (or --list)")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error(f"--task-timeout must be > 0 seconds, got {args.task_timeout}")
    if args.seeds is not None and args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    experiment = ALIASES.get(args.experiment, args.experiment)
    names = sorted(EXPERIMENTS) if experiment == "all" else [experiment]
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    runner = build_runner(
        jobs=args.jobs,
        cache=args.cache,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
    )
    invocation = {
        "quick": args.quick,
        "jobs": args.jobs,
        "cache": args.cache,
        "max_retries": args.max_retries,
        "task_timeout": args.task_timeout,
        "delayed_ack": args.delayed_ack,
        "ecn": args.ecn,
    }
    for name in names:
        telemetry = RunTelemetry(
            name, args=invocation, progress=args.progress, profile=args.profile
        )
        telemetry.attach(runner)
        try:
            harness = import_module(f"repro.experiments.{EXPERIMENTS[name]}")
            report, result, export_id = harness.run_cli(
                args, runner, manifest=telemetry.manifest
            )
        except ConfigurationError as error:
            # A bad option value or name: one line, not a traceback.
            telemetry.abort(error)
            print(f"{parser.prog}: error: {error}", file=sys.stderr)
            return 2
        except BaseException as error:
            telemetry.abort(error)
            raise
        finally:
            telemetry.detach(runner)
        manifest_path = telemetry.finish()
        print(f"===== {name} =====")
        print(report)
        stats = runner.stats
        if stats.total:
            print(
                f"[runner] {stats.total} cells: {stats.cache_hits} cached,"
                f" {stats.executed} executed on {stats.jobs} job(s)"
                f" in {stats.wall_seconds:.2f}s"
            )
        print(f"[manifest] {manifest_path}")
        if args.profile:
            profile_report = telemetry.profile_report()
            if profile_report:
                print(profile_report)
        print()
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(report + "\n")
            if result is not None and export_id is not None:
                from repro.experiments.export_results import export_result

                export_result(export_id, result, out_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
