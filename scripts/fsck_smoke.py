#!/usr/bin/env python3
"""CI smoke for storage integrity: corrupt a real store, fsck it.

Builds a small genuine store (two cached cells + one prefix snapshot),
then vandalizes it — truncates a cache entry, bit-flips the snapshot —
and checks the full contract end to end:

* ``fsck --dry-run`` sees every problem, exits 1, touches nothing;
* ``fsck`` quarantines the corruption (with ``QuarantineRecord``
  sidecars), exits 0;
* a second pass over the repaired store is clean;
* the quarantined evidence is still on disk, not deleted.

Usage::

    python scripts/fsck_smoke.py [workdir]

With a ``workdir`` the corrupted store and its quarantine are built
under it (CI uploads this on failure); default is a temp directory.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # tests.* helper cells

from repro.experiments.cli import fsck_cli  # noqa: E402
from repro.runner import (  # noqa: E402
    ResultCache,
    SnapshotStore,
    SweepRunner,
    TaskSpec,
    read_quarantine,
)
from repro.runner.warmstart import SNAPSHOT_SUBDIR  # noqa: E402
from repro.snapshot import Snapshot  # noqa: E402
from tests.resilience.helpers import build_stalled_world  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def main() -> int:
    if len(sys.argv) > 1:
        root = Path(sys.argv[1]).resolve() / "fsck-smoke"
        root.mkdir(parents=True, exist_ok=True)
    else:
        root = Path(tempfile.mkdtemp(prefix="fsck-smoke-"))
    cache_root = root / "cache"
    print(f"building store under {cache_root}")

    cache = ResultCache(root=cache_root)
    SweepRunner(cache=cache).map(
        [
            TaskSpec(
                fn="tests.resilience.helpers:run_metrics_cell",
                args=(variant, 2.0),
                label=f"smoke {variant}",
            )
            for variant in ("reno", "rr")
        ]
    )
    store = SnapshotStore(cache_root / SNAPSHOT_SUBDIR)
    digest = store.put(Snapshot.capture(build_stalled_world(), label="smoke prefix"))

    # Vandalize: truncate one cache entry, bit-flip the snapshot.
    entry = next((cache_root / cache.fingerprint[:16]).glob("*.pkl"))
    entry.write_bytes(entry.read_bytes()[:40])
    snap = store.path_for(digest)
    data = bytearray(snap.read_bytes())
    data[len(data) // 2] ^= 0xFF
    snap.write_bytes(bytes(data))

    argv = ["--cache-root", str(cache_root)]
    check(fsck_cli(argv + ["--dry-run"]) == 1, "dry run reports problems, exit 1")
    check(entry.exists() and snap.exists(), "dry run touched nothing")
    check(fsck_cli(argv) == 0, "repair pass exits 0")
    check(not entry.exists() and not snap.exists(), "corruption moved aside")
    cache_records = read_quarantine(cache.quarantine_dir)
    store_records = read_quarantine(store.quarantine_dir)
    check(
        any(r.kind == "cache-entry" for r in cache_records),
        "cache quarantine record written",
    )
    check(
        any(r.kind == "snapshot" for r in store_records),
        "snapshot quarantine record written",
    )
    check(
        (store.quarantine_dir / snap.name).exists(),
        "quarantined evidence kept, not deleted",
    )
    check(fsck_cli(argv) == 0, "second pass over repaired store is clean")

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("fsck smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
