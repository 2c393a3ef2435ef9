"""``bench/run.py --selfcheck``: the noise band, measured and on record.

Runs the untraced benchmark twice back to back on the same code and
prints, per workload and end-to-end metric, the relative gap between
the two sets.  A gap beyond the metric's bound in BENCHMARK.json fails
the check: the benchmark could then not tell a regression of that size
from its own noise.  The observed gaps are written to
``bench/baseline.json`` beside the first set's values — the recorded
noise band and baseline.  (BENCHMARK.json itself cannot hold them: its
keys are fixed by the contract it is read under.)
"""

import json
import os
import platform
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def main(run_all, spec, names, seed, seconds):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [run_all(names, seed, seconds, trace=False, smoke=False, quiet=True) for _ in range(2)]
    ok = True
    baseline = {
        "seed": seed,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "values": {},
        "noise_band": {},
    }
    print(f"{'workload':<20}{'metric':<14}{'first':>12}{'second':>12}{'gap':>9}{'bound':>8}")
    for name in names:
        first, second = sets[0][name], sets[1][name]
        baseline["values"][name] = {k: v["value"] for k, v in first["metrics"].items()}
        baseline["noise_band"][name] = {}
        for metric, bound in bounds.items():
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            gap = b / a - 1.0
            baseline["noise_band"][name][metric] = gap
            within = abs(gap) <= bound
            ok = ok and within
            print(
                f"{name:<20}{metric:<14}{a:>12.4f}{b:>12.4f}{gap:>+9.3f}{bound:>8.2f}"
                f"{'' if within else '   OUTSIDE BOUND'}"
            )
        for label, run in (("first", first), ("second", second)):
            if not run["correct"]:
                ok = False
                print(f"{name:<20}{label} set: {run['failed']} of {run['attempted']} checks failed")
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"selfcheck {'passed' if ok else 'FAILED'}; baseline and noise band written to {BASELINE_PATH}")
    return 0 if ok else 1
