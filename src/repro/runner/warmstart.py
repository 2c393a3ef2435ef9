"""Warm-started sweeps: the snapshot store.

Many of the paper's grids share an identical *prefix* — the slow-start
ramp before the first engineered loss, the background-flow build-up
before a target flow attaches — and only diverge afterwards.
:mod:`repro.runner.grid` runs such a grid cold or warm from one cell
description; a warm :func:`~repro.runner.grid.run_grid` call captures
each distinct prefix once and hands the frozen world to its cells
through a :class:`SnapshotStore`.

Worlds cannot ride inside a :class:`~repro.runner.spec.TaskSpec` (specs
carry only canonically-hashable primitives, by design), so the store is
the hand-off: the coordinating process captures and ``put``s the
snapshot, and each worker cell receives just the digest string in its
spec and ``get``s the frozen world back.  The digest is content-derived
(the canonical state digest of the captured world), so a cell's cache
identity automatically changes when the warm-up prefix it continues
from changes.  A snapshot serves the ``run_grid`` call that captured
it; there is no index from prefixes to snapshots and no reuse across
calls.  A cell whose snapshot is missing, corrupt or foreign runs its
prefix cold instead, which yields the same world.

Files live under ``<cache root>/snapshots/<digest>.snap`` — next to the
result cache, governed by the same ``REPRO_CACHE_DIR`` override — and
are written atomically (tmp + ``os.replace``) so concurrent sweeps
never observe a torn snapshot.  Every snapshot is stored in full: one
file format, no base chains to resolve.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.errors import SnapshotError, SnapshotFormatError
from repro.runner.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    QUARANTINE_SUBDIR,
    QuarantineRecord,
)
from repro.snapshot import Snapshot, SnapshotInfo

#: Subdirectory of the cache root that holds snapshots.
SNAPSHOT_SUBDIR = "snapshots"


class SnapshotStore:
    """Content-addressed snapshot files shared across processes."""

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            cache_root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
            root = Path(cache_root) / SNAPSHOT_SUBDIR
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.snap"

    def contains(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_SUBDIR

    def quarantine(self, path: Path, digest: str, reason: str) -> None:
        """Move a corrupt store file aside (never delete evidence) and
        leave a structured record.  Best-effort, same contract as the
        result cache's quarantine: failing to quarantine must not mask
        the corruption that triggered it."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
            QuarantineRecord(
                digest=digest,
                label=str(path),
                kind="snapshot",
                reason=reason,
                path=str(self.quarantine_dir / path.name),
            ).write(self.quarantine_dir)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def intact(self, digest: str) -> bool:
        """True when ``digest`` is stored *and readable by this build*.

        A truncated or bit-flipped file is quarantined on the spot and
        reported missing, while a file written by a *different* format
        version (foreign ``SNAPSHOT_FORMAT``) is left untouched but
        still reported missing: mixed-version stores degrade to
        recompute instead of refusing (see docs/PERFORMANCE.md).
        """
        path = self.path_for(digest)
        if not path.exists():
            return False
        try:
            Snapshot.verify_file(path)
            return True
        except SnapshotFormatError:
            return False
        except SnapshotError as error:
            self.quarantine(path, digest, str(error))
            return False

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, snapshot: Snapshot) -> str:
        """Persist ``snapshot``; returns its digest (the retrieval key).

        Idempotent: an existing file for the same digest is left alone
        (content-addressed, so it is byte-equivalent for all readers).
        """
        digest = snapshot.digest
        path = self.path_for(digest)
        if path.exists():
            # Content-addressed, so an *intact* existing file is
            # byte-equivalent and can be kept; a corrupt or foreign one
            # is replaced — latest-writer-wins is safe for a store that
            # is a cache.
            if self.intact(digest):
                return digest
        self._atomic_write(path, snapshot)
        return digest

    def _atomic_write(self, path: Path, snapshot: Snapshot) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        os.close(fd)
        try:
            snapshot.save(tmp_name)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Snapshot:
        path = self.path_for(digest)
        if not path.exists():
            raise SnapshotError(
                f"no snapshot {digest[:12]}… in {self.root} — the warm-up "
                "capture must run (and put) before the sweep cells execute"
            )
        try:
            return Snapshot.load(path)
        except SnapshotFormatError:
            raise
        except SnapshotError as error:
            self.quarantine(path, digest, str(error))
            raise

    def info(self, digest: str) -> SnapshotInfo:
        """Header metadata without reading the payload."""
        path = self.path_for(digest)
        if not path.exists():
            raise SnapshotError(f"no snapshot {digest[:12]}… in {self.root}")
        return Snapshot.read_info(path)
