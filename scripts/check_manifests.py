#!/usr/bin/env python3
"""CI gate: every run manifest under an artifact root must be healthy.

``python scripts/check_manifests.py ARTIFACT_DIR [--expect N]`` scans
``ARTIFACT_DIR/runs/*/manifest.json`` and fails (exit 1) when

* there are no manifests at all (the telemetry layer silently broke),
* fewer than ``--expect N`` manifests are present,
* any manifest has an outcome other than ``ok``, records a failed
  task, or never finished (outcome still ``running``).

The harness-smoke CI job runs it against ``smoke-out`` so a smoke
sweep that lost a task — or stopped writing provenance — turns the
build red even if its report looks plausible.  Schema details are in
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import MANIFEST_FILENAME, RUNS_SUBDIR, RunManifest  # noqa: E402


def check_manifests(root: Path, expect: int = 1) -> int:
    runs_dir = root / RUNS_SUBDIR
    paths = sorted(runs_dir.glob(f"*/{MANIFEST_FILENAME}"))
    if len(paths) < expect:
        print(
            f"FAIL: found {len(paths)} manifest(s) under {runs_dir},"
            f" expected at least {expect}"
        )
        return 1
    failures = 0
    for path in paths:
        try:
            manifest = RunManifest.load(path)
        except Exception as error:  # unreadable/foreign manifests are failures
            print(f"FAIL  {path}: unreadable ({error})")
            failures += 1
            continue
        problems = []
        if manifest.outcome != "ok":
            problems.append(f"outcome {manifest.outcome!r}")
        if manifest.failed:
            problems.append(f"{manifest.failed} failed task(s)")
        if problems:
            print(f"FAIL  {manifest.run_id}: {', '.join(problems)}")
            failures += 1
        else:
            print(
                f"ok    {manifest.run_id}: {manifest.total} task(s),"
                f" {manifest.cached} cached, {manifest.wall_seconds:.2f}s"
            )
    if failures:
        print(f"{failures} unhealthy manifest(s)")
        return 1
    print(f"{len(paths)} manifest(s) healthy")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", metavar="ARTIFACT_DIR", type=Path)
    parser.add_argument(
        "--expect",
        type=int,
        default=1,
        metavar="N",
        help="minimum number of manifests required (default 1)",
    )
    args = parser.parse_args(argv)
    return check_manifests(args.root, expect=args.expect)


if __name__ == "__main__":
    sys.exit(main())
