#!/usr/bin/env python3
"""CI performance gate: parent-vs-change pairs of ``bench/run.py``.

    python scripts/bench_pair.py --parent REV [--pairs N] [--workload W] [--seed S] [--record PATH]

Extracts the committed tree of ``REV`` into a temporary directory
(``git archive``; honours ``TMPDIR``) and runs ``python3 bench/run.py
--workload W --seed S+i`` in it and in this checkout alternately
(parent first, then change first, ...), so drift of the machine lands on
both sides.  Fails (exit 1) when, for any workload, the change's median
of an ``end_to_end`` metric of BENCHMARK.json is worse than the parent's
by more than that metric's ``bound``, or its failed/attempted share
rose.  Refuses (exit 2) when ``bench/`` or ``BENCHMARK.json`` differ
between the two trees: two different benchmarks cannot be compared.
Per workload and metric it also prints the pairs the change won and the
parent's interquartile range, which a claimed gain is judged by.  Every
run made is kept in ``bench/out/pairs.json``; ``--record PATH`` also
writes the whole comparison (both SHAs, every run, medians, IQR, wins,
verdicts) as JSON, the form of the committed ``BENCH_*.json`` files; see
docs/PERFORMANCE.md.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_PATHS = ("bench", "BENCHMARK.json")

#: One end-to-end metric of one workload: both medians, how much worse
#: the change is (a fraction; negative is better), the metric's bound,
#: the pairs the change won out of ``pairs`` and the parent's IQR.
Row = namedtuple("Row", "workload metric parent change worse bound wins pairs parent_iqr")


def benchmark_changes(root, rev):
    """Benchmark files that differ between ``rev`` and the checkout at
    ``root`` (edited, deleted, or new and not ignored)."""
    def git(*args):
        done = subprocess.run(
            ["git", "-C", str(root), *args, "--", *BENCHMARK_PATHS],
            check=True, capture_output=True, text=True,
        )
        return done.stdout.splitlines()

    return sorted(
        set(git("diff", "--name-only", rev))
        | set(git("ls-files", "--others", "--exclude-standard"))
    )


def run_benchmark(tree, workload, seed):
    """One ``bench/run.py`` run in ``tree``; its last-line JSON object."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def iqr(values):
    """The distance between the quartiles of ``values`` (0 for one)."""
    if len(values) < 2:
        return 0.0
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return upper - lower


def verdict(spec, workload, parent_runs, change_runs):
    """Compare the two sides' runs of one workload.  The i-th runs of
    the two sides are a pair (same seed).  Returns ``(rows, problems)``:
    one :class:`Row` per end-to-end metric and one sentence per reason
    the change fails the gate (empty: it passes)."""
    rows, problems = [], []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        parent_values, change_values = (
            [run["metrics"][name]["value"] for run in runs]
            for runs in (parent_runs, change_runs)
        )
        parent, change = statistics.median(parent_values), statistics.median(change_values)
        sign = -1 if metric["better"] == "higher" else 1
        worse = sign * (change - parent) / parent
        # Ties count for neither side.
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent_values, change_values))
        rows.append(Row(
            workload, name, parent, change, worse, bound,
            wins, len(change_values), iqr(parent_values),
        ))
        if worse > bound:
            problems.append(
                f"{name} on {workload} is {worse:+.1%} worse than the parent"
                f" ({parent:.4g} -> {change:.4g} {metric['unit']}, bound {bound:.0%})"
            )
    parent_share, change_share = (
        sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
        for runs in (parent_runs, change_runs)
    )
    if change_share > parent_share:
        problems.append(
            f"failed share on {workload} rose from {parent_share:.4f} to {change_share:.4f}"
        )
    return rows, problems


def git_sha(root, rev):
    return subprocess.run(
        ["git", "-C", str(root), "rev-parse", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def record(spec, args, runs, rows, problems):
    """The comparison as one JSON-ready dict (``--record``)."""
    names = [metric["name"] for metric in spec["end_to_end"]]
    uncommitted = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    workloads = {
        workload: {
            "runs": {
                side: [
                    {
                        "seed": args.seed + pair,
                        "failed": run["failed"],
                        "attempted": run["attempted"],
                        "metrics": {name: run["metrics"][name]["value"] for name in names},
                    }
                    for pair, run in enumerate(side_runs)
                ]
                for side, side_runs in sides.items()
            },
            "metrics": {},
        }
        for workload, sides in runs.items()
    }
    for row in rows:
        workloads[row.workload]["metrics"][row.metric] = {
            "parent_median": row.parent,
            "change_median": row.change,
            "parent_iqr": row.parent_iqr,
            "worse": row.worse,
            "bound": row.bound,
            "within_bound": row.worse <= row.bound,
            "wins": row.wins,
            "pairs": row.pairs,
        }
    return {
        "parent": {"rev": args.parent, "sha": git_sha(ROOT, args.parent)},
        # The change side is the working checkout: HEAD plus any
        # uncommitted edits to tracked files.
        "change": {"sha": git_sha(ROOT, "HEAD"), "uncommitted_changes": bool(uncommitted)},
        "pairs": args.pairs,
        "workloads": workloads,
        "problems": problems,
        "verdict": "FAIL" if problems else "ok",
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=2, metavar="N", help="pairs per workload")
    parser.add_argument("--workload", choices=workloads, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, metavar="S", help="pair i runs seed S+i")
    parser.add_argument("--record", type=Path, metavar="PATH", help="also write the comparison as JSON")
    args = parser.parse_args(argv)

    changed = benchmark_changes(ROOT, args.parent)
    if changed:
        print(f"refusing: the benchmark differs from {args.parent}: {', '.join(changed)}")
        return 2
    parent_tree = Path(tempfile.mkdtemp(prefix="bench-pair-parent-"))
    trees = {"parent": parent_tree, "change": ROOT}
    runs, rows, problems = {}, [], []
    try:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.parent],
            check=True, stdout=subprocess.PIPE,
        )
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive.stdout, check=True)
        for workload in [args.workload] if args.workload else workloads:
            sides = runs[workload] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    final = run_benchmark(trees[side], workload, args.seed + pair)
                    sides[side].append(final)
                    values = "  ".join(
                        f"{name} {metric['value']:.4g}"
                        for name, metric in final["metrics"].items()
                    )
                    print(f"{workload} seed {args.seed + pair} {side}: {values}", flush=True)
            new_rows, new_problems = verdict(spec, workload, sides["parent"], sides["change"])
            rows += new_rows
            problems += new_problems
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / "pairs.json").write_text(json.dumps({"parent": args.parent, "runs": runs}, indent=1))
    if args.record:
        args.record.write_text(json.dumps(record(spec, args, runs, rows, problems), indent=1) + "\n")

    print("\n| workload | metric | parent median | parent IQR | change median | worse by | wins | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for row in rows:
        print(
            f"| {row.workload} | {row.metric} | {row.parent:.4g} | {row.parent_iqr:.3g}"
            f" | {row.change:.4g} | {row.worse:+.1%} | {row.wins}/{row.pairs} | {row.bound:.0%} |"
        )
    for problem in problems:
        print(f"FAIL  {problem}")
    verdict_word = "FAIL" if problems else "ok"
    print(f"{args.pairs} pair(s) per workload vs {args.parent}: {verdict_word}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
