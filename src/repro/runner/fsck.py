"""Storage fsck: sweep the result cache and snapshot store for rot.

``python -m repro.experiments fsck`` walks every on-disk artifact the
sweep stack trusts — framed cache entries, snapshots and the prefix
index — re-running the same integrity checks the read paths apply
(checksum frames, snapshot header + payload verification) over the
*whole* tree at once instead of lazily at first read.

Policy mirrors the read paths (docs/RESILIENCE.md):

* **corrupt** (truncated, bit-flipped, unparseable) — quarantined:
  moved under ``<root>/quarantine/`` with a
  :class:`~repro.runner.resilience.QuarantineRecord` sidecar;
* **foreign** (a format version this build does not speak, including
  pre-framing raw-pickle cache entries and ``*.delta`` snapshot files
  left by builds that stored forks as diffs) — left in place and
  counted; mixed-version stores degrade to recompute, they are not an
  error;
* **dangling** (a prefix-index entry pointing at a missing/corrupt
  snapshot) — the index file is removed so the next sweep recaptures;
* with ``rebuild=True``, prefixes whose snapshot is gone but whose
  recipe survives in the prefix-meta index are recomputed and put back
  (:func:`~repro.runner.warmstart.load_prefix`'s healing path, run
  eagerly).

``repair=False`` is a true dry run: nothing on disk is touched, not
even via the store's quarantine-on-read side effects, and with
``rebuild=True`` the rebuildable prefixes are reported, not rebuilt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.errors import SnapshotError, SnapshotFormatError
from repro.runner.cache import ResultCache
from repro.runner.resilience import QUARANTINE_SUBDIR, QuarantineRecord
from repro.runner.warmstart import (
    PREFIX_INDEX_SUBDIR,
    PREFIX_META_SUBDIR,
    SNAPSHOT_SUBDIR,
    SnapshotStore,
    load_prefix,
)
from repro.snapshot import Snapshot


@dataclass
class FsckIssue:
    """One problem found (and possibly acted on) during a sweep."""

    path: str
    kind: str      # cache-entry | snapshot | prefix-index | prefix
    problem: str
    action: str    # quarantined | removed | rebuilt | reported


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
    rebuilt: int = 0
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        lines = [
            f"fsck {self.root}: {self.scanned} artifacts scanned, "
            f"{self.ok} ok, {self.foreign} foreign (left in place), "
            f"{len(self.issues)} issue(s), {self.repaired} repaired, "
            f"{self.rebuilt} rebuilt"
        ]
        for issue in self.issues:
            lines.append(
                f"  [{issue.kind}] {issue.path}: {issue.problem}"
                f" -> {issue.action}"
            )
        return "\n".join(lines)


def _digest_intact(store: SnapshotStore, digest: str) -> bool:
    """Like :meth:`SnapshotStore.intact` but with **no side effects**
    (the store method quarantines what it finds corrupt, which a dry
    run must not)."""
    path = store.path_for(digest)
    if not path.exists():
        return False
    try:
        Snapshot.verify_file(path)
        return True
    except SnapshotError:
        return False


def fsck(
    cache_root: Optional[Path] = None,
    repair: bool = True,
    rebuild: bool = False,
) -> FsckReport:
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
        if action in ("quarantined", "removed", "rebuilt"):
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

    # A ``.delta`` is a fork stored as a diff by an older build; this
    # one stores every snapshot in full and cannot read it.
    stray_deltas = len(list(store.root.glob("*.delta")))
    report.scanned += stray_deltas
    report.foreign += stray_deltas

    # ---- prefix index -----------------------------------------------
    index_root = store.root / PREFIX_INDEX_SUBDIR
    if index_root.is_dir():
        for index_file in sorted(index_root.glob("*/*.json")):
            report.scanned += 1
            problem = None
            try:
                entry = json.loads(index_file.read_text(encoding="utf-8"))
                snapshot_digest = entry.get("snapshot", "")
            except (OSError, json.JSONDecodeError) as error:
                problem, snapshot_digest = f"unparseable: {error}", ""
            if problem is None and not _digest_intact(store, snapshot_digest):
                problem = (
                    f"dangling (snapshot {snapshot_digest[:12]}… missing or"
                    " corrupt)"
                )
            if problem is None:
                report.ok += 1
                continue
            action = "reported"
            if repair:
                try:
                    index_file.unlink()
                    action = "removed"
                except OSError:
                    pass
            issue(index_file, "prefix-index", problem, action)

    # ---- prefix rebuild ---------------------------------------------
    if rebuild:
        meta_root = store.root / PREFIX_META_SUBDIR
        for meta_file in sorted(meta_root.glob("*.json")) if meta_root.is_dir() else []:
            digest = meta_file.stem
            if _digest_intact(store, digest):
                continue
            if not repair:
                issue(
                    store.path_for(digest),
                    "prefix",
                    "snapshot is missing/corrupt; would rebuild from its recipe",
                    "reported",
                )
                continue
            try:
                load_prefix(digest, store_root=store.root)
            except SnapshotError as error:
                issue(meta_file, "prefix", f"rebuild failed: {error}", "reported")
                continue
            report.rebuilt += 1
            issue(
                store.path_for(digest),
                "prefix",
                "snapshot was missing/corrupt; recomputed from its recipe",
                "rebuilt",
            )

    return report
