"""``paper_sweep``: the experiments CLI as real subprocesses.

One compiled round = every experiment once against an empty cache
(*cold*: simulation, cache and manifest writes) and then once more
(*replay*: interpreter start, imports, code fingerprint, spec digests,
cache reads, manifest write — the hit ratio must be 1.0).  A
pure-python round is the cold pass alone: a replay never reaches the
engine, so repeating it under ``REPRO_PURE_PYTHON=1`` would time the
same thing twice.  Compiled and pure-python rounds alternate until
``--seconds`` is spent.  Each CLI call is one timed segment, scored on
the child's own CPU time.
"""

import json
import re
import statistics
import sys
import time
from pathlib import Path

import inputs
import layers
from timing import MAX_ROUNDS, MIN_ROUNDS, normalised_seconds, round_info

BENCH_DIR = Path(__file__).resolve().parent
_MANIFEST_LINE = re.compile(r"^\[manifest\] (.+)$", re.MULTILINE)
BACKEND_PROBE = "from repro.sim.engine import CORE_BACKEND; print(CORE_BACKEND)"


def _report_text(stdout):
    """The experiment's report: stdout less the run-specific lines."""
    return "\n".join(
        line for line in stdout.splitlines()
        if not line.startswith(("[runner]", "[manifest]"))
    )


def _cli(experiment, flags, trace_out=None):
    if trace_out is None:
        return [sys.executable, "-m", "repro.experiments", experiment, *flags]
    return [
        sys.executable, str(BENCH_DIR / "trace.py"), "--out", trace_out,
        "--import", "repro.experiments.cli", "-m", "repro.experiments", experiment, *flags,
    ]


def run_round(session, plan, pure_python, checks, reports, traced=False):
    """Cold pass (then, compiled only, replay pass) on a fresh store.
    Returns the timings per segment key plus what the layer metrics
    need."""
    backend = "python" if pure_python else "compiled"
    store = session.fresh_store(f"sweep-{backend}")
    env = session.env(pure_python, store)
    timings, manifests, traces = {}, {}, {}
    peak_rss = 0.0
    for phase in ("cold",) if pure_python else ("cold", "replay"):
        for experiment in plan["experiments"]:
            key = f"{phase}/{experiment}"
            trace_out = str(store / f"trace-{phase}-{experiment}.json") if traced else None
            cmd = _cli(experiment, plan["flags"], trace_out)
            timings[key], child = session.norm.time_child(lambda: session.child(cmd, env))
            peak_rss = max(peak_rss, child.maxrss_mb)
            label = f"paper_sweep/{backend}/{key}"
            checks.check(child.returncode == 0, f"{label}: exit code {child.returncode}: {child.stderr[-300:]}")
            match = _MANIFEST_LINE.search(child.stdout)
            manifest = {}
            if match:
                with open(match.group(1), encoding="utf-8") as handle:
                    manifest = json.load(handle)
            manifests[key] = manifest
            checks.check(manifest.get("outcome") == "ok", f"{label}: no manifest with outcome ok")
            if phase == "cold":
                checks.check(
                    manifest.get("total", 0) > 0 and manifest.get("executed") == manifest.get("total"),
                    f"{label}: cold pass did not execute every cell (a warm cache leaked in)",
                )
            else:
                checks.check(
                    manifest.get("cache_hit_rate") == 1.0 and manifest.get("executed") == 0,
                    f"{label}: replay hit ratio {manifest.get('cache_hit_rate')} is not 1.0",
                )
            report = _report_text(child.stdout)
            reference = reports.setdefault(experiment, report)
            checks.check(report == reference, f"{label}: report differs from the first run of {experiment}")
            if traced:
                with open(trace_out, encoding="utf-8") as handle:
                    traces[key] = json.load(handle)
    cache_bytes = sum(p.stat().st_size for p in (store / "cache").rglob("*") if p.is_file())
    return {
        "timings": timings, "manifests": manifests, "traces": traces,
        "peak_rss_mb": peak_rss, "cache_bytes": cache_bytes,
    }


def save_trace(session, plan, traced):
    """One span file for the workload: the CLI children's, by call."""
    with open(session.out / "trace-paper_sweep.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": "paper_sweep", "plan": plan, "calls": traced["traces"]}, handle)


def _backend_of(session, pure_python):
    child = session.child([sys.executable, "-c", BACKEND_PROBE], session.env(pure_python))
    return child.stdout.strip()


def run_paper_sweep(session, checks, seed, seconds, trace, smoke):
    plan = inputs.paper_sweep_inputs(seed, smoke)
    reports = {}
    started = time.perf_counter()
    checks.check(_backend_of(session, False) == "compiled", "paper_sweep: CLI children do not load the compiled core")
    checks.check(_backend_of(session, True) == "python", "paper_sweep: REPRO_PURE_PYTHON=1 children are not pure python")

    rounds = {"compiled": [], "python": []}
    last_wall = {"compiled": 0.0, "python": 0.0}
    minimum = 1 if (trace or smoke) else MIN_ROUNDS
    maximum = 1 if (trace or smoke) else MAX_ROUNDS
    deadline = started + seconds
    while True:
        backend = "compiled" if len(rounds["compiled"]) <= len(rounds["python"]) else "python"
        done = len(rounds[backend])
        if done >= maximum:
            break
        if done >= minimum and time.perf_counter() + last_wall[backend] > deadline:
            break
        round_start = time.perf_counter()
        rounds[backend].append(run_round(session, plan, backend == "python", checks, reports))
        last_wall[backend] = time.perf_counter() - round_start

    result = {
        "workload": "paper_sweep", "seed": seed, "checks": checks, "plan": plan,
        "info": {
            "build": session.build,
            "backends": {backend: {"rounds": len(r)} for backend, r in rounds.items()},
        },
    }
    metrics = {}
    for metric, backend in (("norm_s", "compiled"), ("norm_py_s", "python")):
        timings = [r["timings"] for r in rounds[backend]]
        metrics[metric] = normalised_seconds(timings)
        result["info"][metric] = {
            **round_info(timings),
            "cold_norm_s": normalised_seconds(
                [{k: v for k, v in r.items() if k.startswith("cold/")} for r in timings]
            ),
            "replay_norm_s": normalised_seconds(
                [{k: v for k, v in r.items() if k.startswith("replay/")} for r in timings]
            ),
        }
    metrics["setup_s"] = session.build["timing"]["norm_s"]
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds["compiled"])
    result["end_to_end"] = metrics
    if trace:
        traced = run_round(session, plan, False, checks, reports, traced=True)
        probes = session.worker(
            {"workload": "sweep_probes", "scratch": str(session.tmp)}, pure_python=False
        )
        checks.check(not probes["failures"], "paper_sweep probes: " + "; ".join(probes["failures"]))
        save_trace(session, plan, traced)
        result["per_layer"] = layers.sweep_layer_metrics(
            session, checks, rounds["compiled"][0], traced, probes["probes"]
        )
    return result
