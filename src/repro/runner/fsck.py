"""Storage fsck: sweep the result cache and snapshot store for rot.

``python -m repro.experiments fsck`` walks every on-disk artifact the
sweep stack trusts — framed cache entries and snapshots — re-running
the same integrity checks the read paths apply (checksum frames,
snapshot header + payload verification) over the *whole* tree at once
instead of lazily at first read.

Policy mirrors the read paths (docs/RESILIENCE.md):

* **corrupt** (truncated, bit-flipped, unparseable) — quarantined:
  moved under ``<root>/quarantine/`` with a
  :class:`~repro.runner.resilience.QuarantineRecord` sidecar;
* **foreign** (a format version this build does not speak, including
  pre-framing raw-pickle cache entries, and what older builds left in
  the snapshot store: ``*.delta`` forks stored as diffs and the JSON
  files of their ``prefix-index/`` and ``prefix-meta/`` directories) —
  left in place and counted; mixed-version stores degrade to
  recompute, they are not an error.

``repair=False`` is a true dry run: nothing on disk is touched, not
even via the store's quarantine-on-read side effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.errors import SnapshotError, SnapshotFormatError
from repro.runner.cache import ResultCache
from repro.runner.resilience import QUARANTINE_SUBDIR, QuarantineRecord
from repro.runner.warmstart import SNAPSHOT_SUBDIR, SnapshotStore
from repro.snapshot import Snapshot


@dataclass
class FsckIssue:
    """One problem found (and possibly acted on) during a sweep."""

    path: str
    kind: str      # cache-entry | snapshot
    problem: str
    action: str    # quarantined | reported


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck` sweep."""

    root: str = ""
    scanned: int = 0
    ok: int = 0
    #: Files written by a format version this build does not read;
    #: valid, left alone (recompute policy), but worth knowing about.
    foreign: int = 0
    repaired: int = 0
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        lines = [
            f"fsck {self.root}: {self.scanned} artifacts scanned, "
            f"{self.ok} ok, {self.foreign} foreign (left in place), "
            f"{len(self.issues)} issue(s), {self.repaired} repaired"
        ]
        for issue in self.issues:
            lines.append(
                f"  [{issue.kind}] {issue.path}: {issue.problem}"
                f" -> {issue.action}"
            )
        return "\n".join(lines)


def fsck(cache_root: Optional[Path] = None, repair: bool = True) -> FsckReport:
    """Sweep the cache + snapshot store under ``cache_root`` (default:
    the standard ``REPRO_CACHE_DIR`` root) and return a report."""
    cache = ResultCache(root=cache_root)
    root = cache.root
    store = SnapshotStore(root / SNAPSHOT_SUBDIR)
    report = FsckReport(root=str(root))

    def issue(path: Path, kind: str, problem: str, action: str) -> None:
        report.issues.append(
            FsckIssue(path=str(path), kind=kind, problem=problem, action=action)
        )
        if action == "quarantined":
            report.repaired += 1

    def quarantine_cache_entry(path: Path, problem: str) -> str:
        if not repair:
            return "reported"
        try:
            cache.quarantine_dir.mkdir(parents=True, exist_ok=True)
            path.replace(cache.quarantine_dir / path.name)
            QuarantineRecord(
                digest=path.stem,
                label=str(path),
                kind="cache-entry",
                reason=problem,
                path=str(cache.quarantine_dir / path.name),
            ).write(cache.quarantine_dir)
        except OSError:
            return "reported"
        return "quarantined"

    # ---- result cache entries ---------------------------------------
    if root.is_dir():
        for fp_dir in sorted(root.iterdir()):
            if not fp_dir.is_dir() or fp_dir.name in (
                SNAPSHOT_SUBDIR,
                QUARANTINE_SUBDIR,
            ):
                continue
            for entry in sorted(fp_dir.glob("*.pkl")):
                report.scanned += 1
                try:
                    ResultCache.verify_entry(entry)
                except OSError as error:
                    issue(entry, "cache-entry", f"unreadable: {error}", "reported")
                except ValueError as error:
                    if str(error).startswith("unframed or foreign"):
                        report.foreign += 1
                        continue
                    issue(
                        entry,
                        "cache-entry",
                        str(error),
                        quarantine_cache_entry(entry, str(error)),
                    )
                else:
                    report.ok += 1

    # ---- snapshots --------------------------------------------------
    for snap in sorted(store.root.glob("*.snap")):
        report.scanned += 1
        digest = snap.stem
        try:
            Snapshot.verify_file(snap)
        except SnapshotFormatError:
            report.foreign += 1
        except SnapshotError as error:
            action = "reported"
            if repair:
                store.quarantine(snap, digest, str(error))
                action = "quarantined"
            issue(snap, "snapshot", str(error), action)
        else:
            report.ok += 1

    # Files older builds left in the store and this one never reads:
    # forks stored as diffs, and the prefix index with its recipes.
    for pattern in ("*.delta", "prefix-index/*/*.json", "prefix-meta/*.json"):
        legacy = len(list(store.root.glob(pattern)))
        report.scanned += legacy
        report.foreign += legacy

    return report
