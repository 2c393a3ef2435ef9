#!/usr/bin/env python3
"""The simulator's benchmark: four workloads, one command.

    python3 bench/run.py                      # all four workloads, tables
    python3 bench/run.py --workload wan_red --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --trace              # per-layer metrics + span files
    python3 bench/run.py --smoke              # tiny inputs, a few seconds
    python3 bench/run.py --selfcheck          # two sets back to back, compared

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric of BENCHMARK.json (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).  See bench/README.md.

Everything runs from this one process, one child at a time.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import inputs
import layers
import sweep
from kernel import CHILD_NOMINAL_S
from procs import run_child
from timing import MAX_ROUNDS, MIN_ROUNDS, Normaliser, normalised_seconds, round_info

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
CORE_SOURCE = ROOT / "src" / "repro" / "sim" / "_engine_core.c"

#: Per in-process workload: how its inputs are made, the reference
#: amount of simulated work (link deliveries, "packet-hops") its time
#: metrics are scaled to, and the share of ``--seconds`` the compiled
#: pass gets (the pure-python pass is slower and gets the rest).
SCENE_WORKLOADS = {
    "lossy_recovery": {
        "inputs": inputs.lossy_recovery_inputs, "ref_work": 300_000, "compiled_share": 0.44,
    },
    "wan_red": {
        "inputs": inputs.wan_red_inputs, "ref_work": 190_000, "compiled_share": 0.42,
    },
    "observed_recovery": {
        "inputs": inputs.observed_recovery_inputs, "ref_work": 150_000, "compiled_share": 0.47,
    },
}
WORKLOAD_ORDER = ("lossy_recovery", "wan_red", "observed_recovery", "paper_sweep")


class Checks:
    """Attempted / failed bookkeeping with the reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Session:
    """Set-up shared by the workloads of one invocation: the scratch
    directory, the reference-kernel normaliser and the forced rebuild
    of the compiled engine core (once; its cost is part of every
    workload's ``setup_s``)."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.out = OUT
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        # Child processes are scored against the reference child.
        self.norm = Normaliser(self._reference_child, CHILD_NOMINAL_S)
        self.build = None

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def env(self, pure_python, store=None):
        """Environment of a child: the checkout's ``src`` on the path,
        the backend switch, and (hermetic runs) artifact and cache
        directories inside this session's scratch space, never the
        user's ``.repro-cache``."""
        env = dict(os.environ)
        env["TMPDIR"] = str(self.tmp)  # compilers and tempfile stay in the checkout
        env["PYTHONHASHSEED"] = "0"  # one less thing that differs between two runs
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("REPRO_PURE_PYTHON", None)
        if pure_python:
            env["REPRO_PURE_PYTHON"] = "1"
        store = store or self.fresh_store("default")
        env["REPRO_ARTIFACT_DIR"] = str(store / "artifacts")
        env["REPRO_CACHE_DIR"] = str(store / "cache")
        return env

    def fresh_store(self, tag):
        return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=self.tmp))

    def child(self, cmd, env):
        return run_child(cmd, env, str(ROOT), str(self.tmp))

    def _reference_child(self):
        return self.child(
            [sys.executable, str(BENCH_DIR / "kernel.py")], dict(os.environ, TMPDIR=str(self.tmp))
        ).cpu_s

    def build_extension(self):
        """Stale-build guard: always rebuild ``_engine_core`` from the
        checkout's source, so a ``.so`` left by another commit is never
        what gets measured."""
        env = self.env(pure_python=False)
        env["REPRO_REQUIRE_COMPILED"] = "1"
        started = time.time()
        timing, child = self.norm.time_child(
            lambda: self.child(
                [sys.executable, "setup.py", "build_ext", "--inplace", "--force"], env
            )
        )
        built = sorted((ROOT / "src" / "repro" / "sim").glob("_engine_core*.so"))
        fresh = [p for p in built if p.stat().st_mtime >= started - 1.0]
        self.build = {
            "ok": child.returncode == 0 and bool(fresh),
            "timing": timing,
            "extension": str(fresh[0]) if fresh else None,
            "source_sha256": hashlib.sha256(CORE_SOURCE.read_bytes()).hexdigest(),
            "stderr_tail": child.stderr[-400:] if child.returncode else "",
        }
        return self.build

    def worker(self, job, pure_python):
        child = self.child(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
            self.env(pure_python),
        )
        if child.returncode != 0:
            raise RuntimeError(
                f"worker failed ({child.returncode}) on {job['workload']}:\n{child.stderr[-2000:]}"
            )
        return json.loads(child.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
def run_scene_workload(session, checks, name, seed, seconds, trace, smoke):
    config = SCENE_WORKLOADS[name]
    job = {
        "workload": name,
        "inputs": config["inputs"](seed, smoke),
        "min_rounds": 1 if (trace or smoke) else MIN_ROUNDS,
        "max_rounds": 1 if (trace or smoke) else MAX_ROUNDS,
        "trace": trace,
    }
    share = config["compiled_share"]
    passes = {}
    for backend, pure, budget in (
        ("compiled", False, seconds * share),
        ("python", True, seconds * (1.0 - share)),
    ):
        job["budget_s"] = budget
        job["trace_out"] = str(OUT / f"trace-{name}{'' if not pure else '-python'}.json")
        passes[backend] = session.worker(job, pure)

    verify_passes(session, name, passes, checks)
    work = sum(
        s["counts"]["net.link.deliveries"]
        for s in passes["compiled"]["rounds"][0]["summaries"].values()
    )
    scale = config["ref_work"] / work
    result = {
        "workload": name,
        "seed": seed,
        "work_deliveries": work,
        "passes": passes,
        "checks": checks,
        "info": {
            "build": session.build,
            "backends": {
                backend: {
                    "core_backend": p["backend"], "extension": p["extension"],
                    "rounds": len(p["rounds"]), "reference": p["reference"],
                }
                for backend, p in passes.items()
            },
        },
    }
    metrics = {}
    for metric, backend in (("norm_s", "compiled"), ("norm_py_s", "python")):
        rounds = [r["timings"] for r in passes[backend]["rounds"]]
        metrics[metric] = normalised_seconds(rounds) * scale
        result["info"][metric] = round_info(rounds, scale)
    metrics["setup_s"] = session.build["timing"]["norm_s"] + statistics.mean(
        p["import"]["norm_s"] + statistics.median(r["construct_norm_s"] for r in p["rounds"])
        for p in passes.values()
    )
    metrics["peak_rss_mb"] = passes["compiled"]["peak_rss_mb"]
    result["end_to_end"] = metrics
    if trace:
        result["per_layer"] = layers.scene_layer_metrics(session, checks, name, passes, scale)
    return result


def verify_passes(session, name, passes, checks):
    """The differential checks: nothing here compares against a stored
    golden value, only run against run.  Worlds are digested in full
    in each backend's first round (two independent runs of every cell
    that must agree); later rounds are compared by count fingerprint."""
    compiled, python = passes["compiled"], passes["python"]
    checks.check(compiled["backend"] == "compiled", f"{name}: compiled pass ran on {compiled['backend']}")
    checks.check(python["backend"] == "python", f"{name}: python pass ran on {python['backend']}")
    checks.check(
        compiled["extension"] == session.build["extension"],
        f"{name}: loaded extension {compiled['extension']} is not the one just built",
    )
    for backend, result in passes.items():
        first = result["rounds"][0]["summaries"]
        for round_index, round_ in enumerate(result["rounds"]):
            for cell, summary in round_["summaries"].items():
                checks.check(
                    not summary["failures"],
                    f"{name}/{backend}/{cell}: {'; '.join(summary['failures'])}",
                )
                if round_index:
                    checks.check(
                        summary["fingerprint"] == first[cell]["fingerprint"],
                        f"{name}/{backend}/{cell}: round {round_index} counts differ from round 0",
                    )
        if "unsliced_digest" in result:
            checks.check(
                all(s["digest"] == result["unsliced_digest"] for s in first.values()),
                f"{name}/{backend}: sliced run differs from unsliced scene.run()",
            )
    for cell, summary in compiled["rounds"][0]["summaries"].items():
        other = python["rounds"][0]["summaries"][cell]
        checks.check(
            summary["digest"] == other["digest"] and summary["fingerprint"] == other["fingerprint"],
            f"{name}/{cell}: compiled and python backends disagree",
        )


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_workload(session, name, seed, seconds, trace, smoke):
    checks = Checks()
    if name == "paper_sweep":
        return sweep.run_paper_sweep(session, checks, seed, seconds, trace, smoke)
    return run_scene_workload(session, checks, name, seed, seconds, trace, smoke)


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def final_object(spec, result, trace):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{result['workload']}: metrics not produced: {missing}")
    checks = result["checks"]
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def print_report(spec, result, trace, session):
    name = result["workload"]
    checks = result["checks"]
    print(f"== {name} (seed {result['seed']}) ==")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    for metric in declared:
        value = values[metric["name"]]
        line = f"  {metric['name']:<34} {value:>16.6f} {metric['unit']}"
        info = result["info"].get(metric["name"])
        if info:
            per_round = info["norm_per_round"]
            wall = info["raw_wall_per_round_s"]
            line += (
                f"   rounds n={per_round['n']} min/median/max="
                f"{per_round['min']:.3f}/{per_round['median']:.3f}/{per_round['max']:.3f}"
                f"  raw wall {wall['median']:.3f}s"
            )
        print(line)
    share = len(checks.failures) / checks.attempted if checks.attempted else 1.0
    print(f"  checks: {checks.attempted} attempted, {len(checks.failures)} failed (failed_share {share:.4f})")
    for failure in checks.failures[:10]:
        print(f"    FAILED {failure}")
    for label, summary in [("reference child", session.norm.reference_summary())] + [
        (f"reference kernel ({backend})", info["reference"])
        for backend, info in result["info"]["backends"].items()
        if "reference" in info
    ]:
        print(
            f"  {label}: n={summary['n']} min={summary['min_s']:.4f}s"
            f" median={summary['median_s']:.4f}s"
        )
    build = session.build
    print(
        f"  build: _engine_core.c sha256 {build['source_sha256'][:16]}…"
        f" -> {build['extension']} ({build['timing']['wall_s']:.2f}s wall)"
    )


def save_result(result, trace):
    payload = {
        key: value for key, value in result.items() if key not in ("checks", "passes")
    }
    payload["failures"] = result["checks"].failures
    payload["attempted"] = result["checks"].attempted
    path = OUT / f"result-{result['workload']}{'-trace' if trace else ''}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def run_all(names, seed, seconds, trace, smoke, quiet=False):
    """One set of runs.  Returns ``{workload: final object}``."""
    spec = load_spec()
    finals = {}
    session = Session()
    try:
        if not session.build_extension()["ok"]:
            raise RuntimeError("compiled core did not build:\n" + session.build["stderr_tail"])
        for name in names:
            result = run_workload(session, name, seed, seconds, trace, smoke)
            save_result(result, trace)
            if not quiet:
                print_report(spec, result, trace, session)
            finals[name] = final_object(spec, result, trace)
    finally:
        session.close()
    return finals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_ORDER)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: checks the plumbing, not the numbers")
    parser.add_argument("--selfcheck", action="store_true", help="run the untraced benchmark twice and compare")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "setup.py").is_file():
        print(f"bench/run.py: {ROOT} is not a checkout of the simulator (no src/repro, setup.py)", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOAD_ORDER)
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(run_all, spec, names, args.seed, seconds)
    finals = run_all(names, args.seed, seconds, bool(args.trace), args.smoke)
    if args.workload:
        print(json.dumps(finals[args.workload]))
    else:
        print(json.dumps({"workloads": finals}))
    # A run that printed its result object has done its job: failed
    # checks are reported in it ("correct": false), not by the exit code.
    return 0


if __name__ == "__main__":
    sys.exit(main())
