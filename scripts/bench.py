#!/usr/bin/env python3
"""Record the repo's performance trajectory.

Runs the engine micro-benchmarks (the same workloads as
``benchmarks/test_bench_engine.py``) plus one macro experiment campaign
through :mod:`repro.runner`, and writes two JSON baselines:

* ``BENCH_engine.json``      — seconds (and events/sec) per engine workload;
* ``BENCH_experiments.json`` — campaign wall-clock per cell, parallel
  speedup, cache-replay hit rate, per-grid warm-start speedups for the
  five warm-startable sweeps, and delta-vs-full snapshot sizes.

Committed baselines live at the repo root; ``--check`` compares a fresh
run against them per workload, with per-bench regression thresholds
(:data:`CHECK_THRESHOLDS`, fallback ``--max-regression``) and
best-of-N timing so the gate rides real slowdowns, not CI noise.  Every
gated workload is fixed-size, so the gate compares recorded **seconds**
(:func:`gate`); events/sec is printed as information only, because a
change that needs fewer engine events for the same simulated result
lowers it while getting faster.  The gate only fires when the fresh run
and the committed baseline used the same engine backend
(``core_backend`` in the JSON): comparing a pure-python run against a
compiled-core baseline measures the build matrix, not a regression.
``--quick`` trims repeats and the macro campaign for CI smoke runs —
the micro workloads themselves are unchanged, so their seconds stay
comparable to a full run.

Usage::

    python scripts/bench.py                 # refresh baselines in-place
    python scripts/bench.py --quick --check --out bench-out   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from workloads import MICRO_WORKLOADS  # noqa: E402

from repro.experiments.ackloss import AckLossConfig, run_ackloss  # noqa: E402
from repro.experiments.figure5 import (  # noqa: E402
    Figure5Config,
    capture_warm_snapshot,
    run_figure5,
)
from repro.experiments.figure6 import Figure6Config, run_figure6  # noqa: E402
from repro.experiments.figure7 import Figure7Config, run_figure7  # noqa: E402
from repro.experiments.table5 import Table5Config, run_table5  # noqa: E402
from repro.obs import RunTelemetry  # noqa: E402
from repro.runner import (  # noqa: E402
    ResultCache,
    SnapshotStore,
    SweepRunner,
    default_jobs,
)
from repro.sim.engine import CORE_BACKEND  # noqa: E402
from repro.snapshot import Snapshot  # noqa: E402
from repro.snapshot.delta import DeltaSnapshot, should_fall_back  # noqa: E402

ENGINE_BASELINE = "BENCH_engine.json"
EXPERIMENTS_BASELINE = "BENCH_experiments.json"

#: Per-workload tolerated fractional speed drop (``baseline seconds /
#: fresh seconds - 1``) for ``--check``.
#: The micro workloads are near-pure engine and time stably, so they
#: get a tight gate; ten_flow_red_second runs mostly Python callback
#: code (RED, TCP, per-drop observers) and needs headroom for CI-runner
#: variance.  Workloads not listed fall back to ``--max-regression``.
CHECK_THRESHOLDS = {
    "event_scheduling": 0.25,
    "timer_churn": 0.25,
    "end_to_end_transfer": 0.30,
    "ten_flow_red_second": 0.35,
}

#: Minimum timing repeats whenever ``--check`` gates the run: best-of-1
#: is a coin flip on a noisy runner, best-of-3 tracks the machine's
#: true ceiling.
CHECK_MIN_REPEATS = 3

#: Tolerated fractional speed drop for the manyflow WAN scene, per
#: engine backend (the existing macro-gate threshold).
MANYFLOW_THRESHOLD = 0.30

#: The manyflow smoke scene: deliberately identical for ``--quick`` and
#: full runs so CI smoke numbers gate against the committed baseline.
MANYFLOW_SCENE = {"family": "wan", "n_routers": 40, "flows": 60, "duration": 2.0}

#: Tolerated fractional speed drop for the rivals mobile cell, same
#: macro-gate threshold as manyflow.
RIVALS_THRESHOLD = 0.30

#: The rivals smoke cell: a CUBIC-vs-RR match on the time-varying
#: mobile bottleneck — exercises the modern-rival senders plus the
#: RateSchedule machinery.  Identical for ``--quick`` and full runs.
#: Sized long enough (~50k events) that the probe isn't all startup
#: noise on a busy runner.
RIVALS_CELL = {"variant": "cubic", "regime": "mobile", "duration": 20.0}


def time_workload(fn, kwargs, repeats: int) -> dict:
    """Best-of-``repeats`` timing (one untimed warmup)."""
    events = fn(**kwargs)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(**kwargs)
        best = min(best, time.perf_counter() - start)
    return {
        "seconds": round(best, 6),
        "events": events,
        "events_per_sec": round(events / best, 1),
    }


def bench_engine(repeats: int) -> dict:
    benches = {}
    for name, (fn, kwargs) in MICRO_WORKLOADS.items():
        benches[name] = time_workload(fn, kwargs, repeats)
        print(
            f"  {name:<24} {benches[name]['seconds'] * 1000:8.2f} ms"
            f"  {benches[name]['events_per_sec']:>12,.0f} ev/s"
        )
    return benches


def bench_experiments(quick: bool, jobs: int) -> dict:
    """The macro campaign: figure5's grid, cold then cache-replayed.

    The whole campaign runs under one :class:`RunTelemetry`, so the
    committed baseline names the run manifest (spec digests, per-task
    wall times, code fingerprint) that produced its numbers.
    """
    config = Figure5Config()
    if quick:
        config.transfer_packets = 300
        config.sim_duration = 30.0
    cells = len(config.drop_counts) * len(config.variants)
    telemetry = RunTelemetry(
        "bench-fig5", args={"quick": quick, "jobs": jobs}, progress=False
    )
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            runner = SweepRunner(jobs=jobs, cache=ResultCache(root=tmp))
            telemetry.attach(runner)
            start = time.perf_counter()
            run_figure5(config, runner=runner, manifest=telemetry.manifest)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            run_figure5(config, runner=runner)
            warm = time.perf_counter() - start
            hit_rate = runner.stats.cache_hit_rate
            telemetry.detach(runner)
        serial_runner = SweepRunner(jobs=1)
        telemetry.attach(serial_runner)
        start = time.perf_counter()
        run_figure5(config, runner=serial_runner)
        serial = time.perf_counter() - start
        telemetry.detach(serial_runner)
    except BaseException as error:
        telemetry.abort(error)
        raise
    manifest_path = telemetry.finish()
    report = {
        "campaign": "figure5" + ("-quick" if quick else ""),
        "cells": cells,
        "jobs": jobs,
        "serial_seconds": round(serial, 3),
        "cold_seconds": round(cold, 3),
        "warm_seconds": round(warm, 4),
        "seconds_per_cell": round(cold / cells, 4),
        "parallel_speedup": round(serial / cold, 2) if cold else None,
        "cache_hit_rate": hit_rate,
        "warm_over_cold": round(warm / cold, 4) if cold else None,
        "run_id": telemetry.manifest.run_id,
        "manifest": str(manifest_path),
    }
    for key, value in report.items():
        print(f"  {key:<18} {value}")
    return report


def _warmstart_grids(quick: bool) -> list:
    """(name, run_fn, config, cells, result-extractor) per warm-startable
    sweep.

    Bench sizings trim the slowest paper grids (figure7's 100 s runs,
    table5's 180 s replicas) so a full baseline refresh stays in
    minutes — the warm/cold ratio is the tracked quantity, not paper
    numbers.  figure5 uses a late-loss grid (first engineered drop at
    packet 400 of a 600-packet transfer) so the shared prefix dominates
    each cell — the regime warm starting exists for.
    """
    fig5 = Figure5Config(
        drop_counts=(1, 2, 3, 4, 5, 6),
        first_drop_seq=400,
        transfer_packets=600,
        sim_duration=60.0,
    )
    fig6 = Figure6Config()
    fig7 = Figure7Config(loss_rates=(0.01, 0.03, 0.05), duration=40.0, runs_per_point=2)
    tab5 = Table5Config(runs_per_case=2, sim_duration=60.0)
    ack = AckLossConfig()
    if quick:
        fig5.variants = ("newreno", "rr")
        fig6.duration = 4.0
        fig7 = Figure7Config(loss_rates=(0.01, 0.05), duration=20.0, runs_per_point=1)
        tab5 = Table5Config(
            cases=(("reno", "rr"), ("rr", "rr")), runs_per_case=2, sim_duration=30.0
        )
        ack = AckLossConfig(
            variants=("newreno", "rr"),
            ack_loss_rates=(0.0, 0.1),
            runs_per_point=2,
            sim_duration=30.0,
        )
    return [
        ("figure5-late-loss", run_figure5, fig5,
         len(fig5.drop_counts) * len(fig5.variants), lambda r: r.rows),
        ("figure6", run_figure6, fig6, len(fig6.variants), lambda r: r.flows),
        ("figure7", run_figure7, fig7,
         len(fig7.variants) * len(fig7.loss_rates), lambda r: r.points),
        ("table5", run_table5, tab5,
         len(tab5.cases) * tab5.runs_per_case, lambda r: r.rows),
        ("ackloss", run_ackloss, ack,
         len(ack.variants) * len(ack.ack_loss_rates), lambda r: r.rows),
    ]


def bench_warmstart(quick: bool) -> dict:
    """Per-grid warm-start speedup: fork one captured prefix snapshot
    per variant (per background mix for table5) instead of replaying
    the shared warm-up from t=0 in every cell.

    Cold and warm results are asserted equal, so the speedups are free
    of accuracy cost.  The second warm sweep replays already-captured
    prefixes via the prefix index — the steady state of iterating on a
    sweep's post-prefix cells.
    """
    suffix = "-quick" if quick else ""
    grids = {}
    telemetry = RunTelemetry("bench-warmstart", args={"quick": quick}, progress=False)

    def _timed(run_fn, config, store=None, warm_start=False):
        runner = SweepRunner()
        telemetry.attach(runner)
        try:
            start = time.perf_counter()
            result = run_fn(config, runner=runner, warm_start=warm_start, store=store)
            return result, time.perf_counter() - start
        finally:
            telemetry.detach(runner)

    try:
        for name, run_fn, config, cells, rows_of in _warmstart_grids(quick):
            with tempfile.TemporaryDirectory(prefix="repro-bench-snap-") as tmp:
                store = SnapshotStore(tmp)
                cold, cold_seconds = _timed(run_fn, config)
                # "force" bypasses the warm-start cost model: this bench
                # *measures* the warm machinery — including on grids the
                # model would (correctly) refuse — and its numbers are
                # what the model's constants are calibrated against.
                warm, warm_seconds = _timed(run_fn, config, store, warm_start="force")
                replay, replay_seconds = _timed(
                    run_fn, config, store, warm_start="force"
                )
            if rows_of(warm) != rows_of(cold) or rows_of(replay) != rows_of(cold):
                raise AssertionError(f"{name}: warm-start results diverged from cold")
            grids[name] = _warmstart_report(
                name + suffix, cells, cold_seconds, warm_seconds, replay_seconds
            )
    except BaseException as error:
        telemetry.abort(error)
        raise
    telemetry.finish()
    grids["run_id"] = telemetry.manifest.run_id
    return grids


def _warmstart_report(
    campaign: str, cells: int, cold_seconds: float, warm_seconds: float,
    replay_seconds: float,
) -> dict:
    report = {
        "campaign": campaign,
        "cells": cells,
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "warm_replay_seconds": round(replay_seconds, 3),
        "warm_speedup": (
            round(cold_seconds / warm_seconds, 2) if warm_seconds else None
        ),
        "warm_replay_speedup": (
            round(cold_seconds / replay_seconds, 2) if replay_seconds else None
        ),
        "bit_identical": True,
    }
    print(
        f"  {campaign:<20} cold {report['cold_seconds']:>7.3f}s"
        f"  warm {report['warm_seconds']:>7.3f}s (x{report['warm_speedup']})"
        f"  replay {report['warm_replay_seconds']:>7.3f}s"
        f" (x{report['warm_replay_speedup']})"
    )
    return report


def bench_delta() -> dict:
    """Delta-vs-full snapshot sizes for per-cell forks.

    Captures the figure5 late-loss prefix, forks it (restore, reprogram
    the cell's drops, run a little further — exactly what a warm cell
    or a triage fork does), and records how much smaller each fork is
    when stored as a delta against its base.  The far fork shows the
    delta degrading gracefully as the fork diverges.
    """
    from repro.experiments.figure5 import _cell_drops

    config = Figure5Config(
        drop_counts=(1, 2, 3),
        first_drop_seq=400,
        transfer_packets=600,
        sim_duration=60.0,
    )
    base = capture_warm_snapshot("rr", config)
    forks = {}
    for label, extra_seconds in (("near-fork", 0.25), ("far-fork", 5.0)):
        scenario = base.restore(verify=False)
        scenario.dumbbell.forward_link.loss.reprogram(_cell_drops(3, config))
        scenario.sim.run(until=scenario.sim.now + extra_seconds)
        fork = Snapshot.capture(scenario, label=f"bench {label}")
        delta = DeltaSnapshot.diff(fork, base)
        forks[label] = {
            "sim_seconds_past_base": extra_seconds,
            "full_bytes": fork.nbytes,
            "delta_bytes": delta.nbytes,
            "delta_over_full": round(delta.nbytes / fork.nbytes, 4),
            "fallback_to_full": should_fall_back(delta, fork),
        }
        print(
            f"  {label:<20} full {fork.nbytes:>8,} B"
            f"  delta {delta.nbytes:>8,} B"
            f"  ({forks[label]['delta_over_full']:.0%} of full)"
        )
    return {"base_bytes": base.nbytes, "forks": forks}


# Runs in a fresh interpreter so the engine backend is selected by the
# environment (REPRO_PURE_PYTHON), not by whatever this process loaded.
_MANYFLOW_PROBE = """
import json, sys, time
from repro.net.red import RedParams
from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene
from repro.sim.engine import CORE_BACKEND

scene_args = json.loads(sys.argv[1])
spec = SceneSpec(
    family="wan",
    topology=WaxmanParams(n_routers=scene_args["n_routers"], graph_seed=3),
    flows=FlowPopulation(count=scene_args["flows"]),
    red=RedParams(min_th=10.0, max_th=40.0, max_p=0.02, limit=120),
    seed=11,
    duration=scene_args["duration"],
)
scene = build_scene(spec)
start = time.perf_counter()
scene.run()
elapsed = time.perf_counter() - start
print(json.dumps({
    "backend": CORE_BACKEND,
    "events": scene.sim.events_processed,
    "seconds": round(elapsed, 6),
    "events_per_sec": round(scene.sim.events_processed / elapsed, 1),
}))
"""


def bench_manyflow(quick: bool) -> dict:
    """Wall seconds on the mid-size WAN scene, one entry per engine backend.

    The generated-scenes smoke cell: a seeded Waxman WAN with RED on
    every core link and 60 long-lived flows (docs/SCENARIOS.md).  Each
    backend runs in a subprocess — ``REPRO_PURE_PYTHON=1`` for the pure
    interpreter, a clean environment for the compiled core — so one
    refresh records both numbers and ``--check`` gates each against its
    own committed figure.  If the compiled core is unavailable both
    probes report ``python`` and the section simply carries one entry.
    """
    repeats = 1 if quick else 2
    backends = {}
    for env_value in (None, "1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_PURE_PYTHON", None)
        if env_value is not None:
            env["REPRO_PURE_PYTHON"] = env_value
        best = None
        for _ in range(repeats):
            out = subprocess.run(
                [sys.executable, "-c", _MANYFLOW_PROBE, json.dumps(MANYFLOW_SCENE)],
                capture_output=True, text=True, env=env, check=True,
            )
            probe = json.loads(out.stdout)
            if best is None or probe["seconds"] < best["seconds"]:
                best = probe
        backend = best.pop("backend")
        backends[backend] = best
        print(
            f"  wan-scene [{backend:<8}] {best['seconds'] * 1000:8.2f} ms"
            f"  {best['events_per_sec']:>12,.0f} ev/s"
        )
    return {"scene": dict(MANYFLOW_SCENE), "backends": backends}


# Same fresh-interpreter arrangement as the manyflow probe: the engine
# backend must come from the environment, not this process's imports.
_RIVALS_PROBE = """
import json, sys, time
from repro.experiments.rivals import RivalsConfig, build_cell_world
from repro.sim.engine import CORE_BACKEND

cell = json.loads(sys.argv[1])
config = RivalsConfig(
    duration=cell["duration"], warmup=cell["duration"] * 0.25
)
world = build_cell_world("match", cell["variant"], cell["regime"], config)
start = time.perf_counter()
world.sim.run(until=cell["duration"])
elapsed = time.perf_counter() - start
print(json.dumps({
    "backend": CORE_BACKEND,
    "events": world.sim.events_processed,
    "seconds": round(elapsed, 6),
    "events_per_sec": round(world.sim.events_processed / elapsed, 1),
}))
"""


def bench_rivals(quick: bool) -> dict:
    """Wall seconds on the rivals mobile match cell, per engine backend.

    A CUBIC-vs-RR match over the time-varying wireless bottleneck
    (docs/SCENARIOS.md §5) — the modern-rival counterpart of the
    manyflow WAN probe, with the same subprocess-per-backend
    arrangement so ``--check`` gates each backend against its own
    committed figure.  The probe is cheap (~100 ms), so even ``--quick``
    takes best-of-2 — a single sample of a short cell is too noisy to
    gate on.
    """
    repeats = 2 if quick else 3
    backends = {}
    for env_value in (None, "1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_PURE_PYTHON", None)
        if env_value is not None:
            env["REPRO_PURE_PYTHON"] = env_value
        best = None
        for _ in range(repeats):
            out = subprocess.run(
                [sys.executable, "-c", _RIVALS_PROBE, json.dumps(RIVALS_CELL)],
                capture_output=True, text=True, env=env, check=True,
            )
            probe = json.loads(out.stdout)
            if best is None or probe["seconds"] < best["seconds"]:
                best = probe
        backend = best.pop("backend")
        backends[backend] = best
        print(
            f"  rivals-cell [{backend:<8}] {best['seconds'] * 1000:8.2f} ms"
            f"  {best['events_per_sec']:>12,.0f} ev/s"
        )
    return {"cell": dict(RIVALS_CELL), "backends": backends}


def gate(label: str, base_bench: dict, fresh_bench: dict, threshold: float) -> bool:
    """Print one gate line; True if ``fresh_bench`` regressed.

    The workloads are fixed-size, so speed is compared on recorded
    seconds: ``baseline / fresh - 1`` is the fractional change in work
    per second whatever either side's engine-event count was.
    Events/sec rides along as information.
    """
    delta = base_bench["seconds"] / fresh_bench["seconds"] - 1.0
    regressed = delta < -threshold
    print(
        f"  {label:<24} baseline {base_bench['seconds'] * 1000:9.2f} ms"
        f"  fresh {fresh_bench['seconds'] * 1000:9.2f} ms"
        f"  ({delta:+.1%} vs -{threshold:.0%} allowed)"
        f"  {'REGRESSION' if regressed else 'ok'}"
        f"  [ev/s {base_bench['events_per_sec']:,.0f} -> {fresh_bench['events_per_sec']:,.0f}]"
    )
    return regressed


def check_backends_regression(
    section: str, sizing_key: str, threshold: float, fresh: dict, baseline_path: Path
) -> int:
    """Gate one per-backend macro probe (``manyflow`` / ``rivals``)
    against its committed figure, backend by backend."""
    if not baseline_path.exists():
        print(f"no committed baseline at {baseline_path}; skipping {section} check")
        return 0
    baseline = json.loads(baseline_path.read_text()).get(section)
    if not baseline:
        print(f"committed baseline has no {section} section; skipping {section} check")
        return 0
    if baseline.get(sizing_key) != fresh.get(sizing_key):
        print(f"{section} {sizing_key} sizing changed since the baseline; skipping the gate")
        return 0
    failures = 0
    for backend, fresh_bench in fresh["backends"].items():
        base_bench = baseline.get("backends", {}).get(backend)
        if base_bench is None or not base_bench.get("seconds"):
            continue
        failures += gate(f"{section} [{backend}]", base_bench, fresh_bench, threshold)
    if failures:
        print(f"{failures} {section} backend(s) regressed past the threshold")
    return 1 if failures else 0


def check_regression(fresh: dict, baseline_path: Path, max_regression: float) -> int:
    """Compare fresh seconds against the committed baseline, one
    threshold per workload (:data:`CHECK_THRESHOLDS`)."""
    if not baseline_path.exists():
        print(f"no committed baseline at {baseline_path}; skipping check")
        return 0
    baseline = json.loads(baseline_path.read_text())
    base_backend = baseline.get("core_backend", "python")
    if base_backend != CORE_BACKEND:
        print(
            f"baseline was recorded under the {base_backend!r} engine backend "
            f"but this run used {CORE_BACKEND!r}; skipping the gate (informational "
            "numbers above still stand)"
        )
        return 0
    failures = 0
    for name, fresh_bench in fresh.items():
        base_bench = baseline.get("benches", {}).get(name)
        if base_bench is None or not base_bench.get("seconds"):
            continue
        failures += gate(
            name, base_bench, fresh_bench, CHECK_THRESHOLDS.get(name, max_regression)
        )
    if failures:
        print(f"{failures} workload(s) regressed past their threshold")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizing")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on a seconds regression vs the committed BENCH_*.json",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="tolerated fractional speed drop for --check (default 0.30)",
    )
    parser.add_argument(
        "--micro-only",
        action="store_true",
        help="run only the engine micro-benchmarks (skip macro/warm-start/delta)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="workers for the macro campaign (default: up to 4)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write BENCH_*.json to DIR instead of the repo root",
    )
    args = parser.parse_args(argv)
    repeats = 3 if args.quick else 7
    if args.check:
        repeats = max(repeats, CHECK_MIN_REPEATS)
    jobs = args.jobs or min(4, default_jobs())
    out_dir = Path(args.out) if args.out else REPO_ROOT
    out_dir.mkdir(parents=True, exist_ok=True)

    meta = {
        "schema": 3,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "core_backend": CORE_BACKEND,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }

    print("engine micro-benchmarks:")
    benches = bench_engine(repeats)
    (out_dir / ENGINE_BASELINE).write_text(
        json.dumps({**meta, "benches": benches}, indent=2) + "\n"
    )

    if args.micro_only:
        print(f"wrote {out_dir / ENGINE_BASELINE} (micro-only run)")
    else:
        print("experiment macro campaign:")
        campaign = bench_experiments(args.quick, jobs)
        print("warm-start (snapshot fork) campaigns:")
        warmstart = bench_warmstart(args.quick)
        print("delta snapshot sizes:")
        delta = bench_delta()
        print("manyflow WAN scene (both engine backends):")
        manyflow = bench_manyflow(args.quick)
        print("rivals mobile cell (both engine backends):")
        rivals = bench_rivals(args.quick)
        (out_dir / EXPERIMENTS_BASELINE).write_text(
            json.dumps(
                {
                    **meta,
                    "campaign": campaign,
                    "warmstart": warmstart,
                    "delta": delta,
                    "manyflow": manyflow,
                    "rivals": rivals,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {out_dir / ENGINE_BASELINE} and {out_dir / EXPERIMENTS_BASELINE}")

    if args.check:
        print("regression check:")
        failed = check_regression(
            benches, REPO_ROOT / ENGINE_BASELINE, args.max_regression
        )
        if not args.micro_only:
            failed |= check_backends_regression(
                "manyflow", "scene", MANYFLOW_THRESHOLD, manyflow,
                REPO_ROOT / EXPERIMENTS_BASELINE,
            )
            failed |= check_backends_regression(
                "rivals", "cell", RIVALS_THRESHOLD, rivals,
                REPO_ROOT / EXPERIMENTS_BASELINE,
            )
        return failed
    return 0


if __name__ == "__main__":
    sys.exit(main())
