#!/usr/bin/env python
"""Build the cold/warm/compiled benchmark comparison table.

Reads two ``scripts/bench.py`` output directories — one produced under
the pure-python engine (``REPRO_PURE_PYTHON=1``) and one under the
compiled core — and writes a single markdown table that answers the
two questions the CI artifact exists for:

* how much faster is the compiled core, per micro-benchmark;
* what the snapshot warm-start machinery buys on real campaigns
  (cold vs first warm pass vs warm replay), from whichever run has
  a ``BENCH_experiments.json``.

Usage:
    python scripts/bench_compare.py --pure DIR --compiled DIR --out FILE
"""

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def micro_table(pure: dict, compiled: dict) -> list:
    """Seconds per fixed-size workload on each backend (the gated
    quantity; the speedup is their ratio), events/sec as information."""
    lines = [
        "| micro-benchmark | pure-python ms | compiled ms | speedup"
        " | pure-python ev/s | compiled ev/s |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    names = list((compiled.get("benches") or pure.get("benches") or {}))
    ms = lambda v: f"{v * 1000:.2f}" if v else "n/a"
    rate = lambda v: f"{v:,.0f}" if v else "n/a"
    for name in names:
        p = (pure.get("benches") or {}).get(name, {})
        c = (compiled.get("benches") or {}).get(name, {})
        ps, cs = p.get("seconds"), c.get("seconds")
        ratio = f"{ps / cs:.2f}x" if ps and cs else "n/a"
        lines.append(
            f"| {name} | {ms(ps)} | {ms(cs)} | {ratio}"
            f" | {rate(p.get('events_per_sec'))} | {rate(c.get('events_per_sec'))} |"
        )
    return lines


def warmstart_table(experiments: dict) -> list:
    warm = experiments.get("warmstart")
    if not warm:
        return ["_no BENCH_experiments.json in either run — warm-start table skipped_"]
    lines = [
        "| campaign | cold (s) | warm (s) | warm speedup | replay (s) | replay speedup |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for campaign, row in warm.items():
        if not isinstance(row, dict):  # provenance entries (run_id) ride along
            continue
        lines.append(
            f"| {campaign} | {row['cold_seconds']} | {row['warm_seconds']}"
            f" | {row['warm_speedup']}x | {row['warm_replay_seconds']}"
            f" | {row['warm_replay_speedup']}x |"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pure", required=True, metavar="DIR")
    parser.add_argument("--compiled", required=True, metavar="DIR")
    parser.add_argument("--out", required=True, metavar="FILE")
    args = parser.parse_args(argv)

    pure_dir, compiled_dir = Path(args.pure), Path(args.compiled)
    pure = load(pure_dir / "BENCH_engine.json")
    compiled = load(compiled_dir / "BENCH_engine.json")
    if not pure and not compiled:
        print("neither directory holds a BENCH_engine.json", file=sys.stderr)
        return 1
    for label, blob, want in (("pure", pure, "python"), ("compiled", compiled, "compiled")):
        got = blob.get("core_backend")
        if blob and got != want:
            print(
                f"warning: --{label} run was recorded under backend {got!r},"
                f" expected {want!r}",
                file=sys.stderr,
            )
    experiments = load(compiled_dir / "BENCH_experiments.json") or load(
        pure_dir / "BENCH_experiments.json"
    )

    lines = ["# Engine benchmark comparison", ""]
    lines += ["## Pure-python vs compiled core", ""]
    lines += micro_table(pure, compiled)
    lines += ["", "## Cold vs warm-started campaigns", ""]
    lines += warmstart_table(experiments)
    lines.append("")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines))
    print("\n".join(lines))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
