"""Warm-started sweeps: prefix specs and the snapshot store.

Many of the paper's grids share an identical *prefix* — the slow-start
ramp before the first engineered loss, the background-flow build-up
before a target flow attaches — and only diverge afterwards.
:mod:`repro.runner.grid` runs such a grid cold or warm from one cell
description; this module holds the primitives it composes when a sweep
asks for a warm start:

* :class:`PrefixSpec` — a task spec whose callable builds a world *and
  advances it to the capture point*, returning it.  Equal prefixes have
  equal spec digests, so the store captures each prefix once per code
  version (see :meth:`SnapshotStore.ensure_prefix`) no matter how many
  cells — or sweeps — fork it;
* :func:`warm_specs` — the sweep-side glue: group cells by prefix
  digest, ensure each prefix exists in the store, and emit the per-cell
  task specs carrying the snapshot digest.

The determinism contract mirrors the runner's: a cold cell runs the
same prefix function in-process that a warm cell restores from the
store, so warm rows are bit-identical to cold rows (the engine's serial
counter and the packet-uid counter both survive the pickle).

Worlds cannot ride inside a :class:`~repro.runner.spec.TaskSpec` (specs
carry only canonically-hashable primitives, by design), so cells share
the frozen prefix through the :class:`SnapshotStore`: the coordinating
process captures once and ``put``s the snapshot, and each worker cell
receives just the digest string in its spec and ``get``s the frozen
world back.  The digest is content-derived (the canonical state digest
of the captured world), so a cell's cache identity automatically
changes when the warm-up prefix it continues from changes.

Files live under ``<cache root>/snapshots/<digest>.snap`` — next to the
result cache, governed by the same ``REPRO_CACHE_DIR`` override — and
are written atomically (tmp + ``os.replace``) so concurrent sweeps
never observe a torn snapshot.  Every snapshot is stored in full: one
file format, no base chains to resolve.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SnapshotError, SnapshotFormatError
from repro.runner.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR
from repro.runner.resilience import QUARANTINE_SUBDIR, QuarantineRecord
from repro.runner.spec import TaskSpec
from repro.snapshot import Snapshot, SnapshotInfo

#: Subdirectory of the cache root that holds snapshots.
SNAPSHOT_SUBDIR = "snapshots"

#: Subdirectory (inside the store root) mapping prefix-spec digests to
#: snapshot digests, per code fingerprint.
PREFIX_INDEX_SUBDIR = "prefix-index"

#: Subdirectory (inside the store root) mapping *snapshot* digests back
#: to the canonical prefix spec that captured them — the self-healing
#: layer's recipe for recomputing a lost/corrupt prefix from cold
#: (:func:`load_prefix`) and ``fsck --rebuild``'s repair input.
PREFIX_META_SUBDIR = "prefix-meta"


class PrefixSpec(TaskSpec):
    """A :class:`TaskSpec` whose callable builds a world **and advances
    it to its capture point**, returning the world.

    The callable must be deterministic in the spec's arguments (same
    rule as any task spec) and must leave the engine between events so
    the world is capturable.  :meth:`capture` runs it and freezes the
    result.
    """

    def capture(self, label: str = "") -> Snapshot:
        world = self.run()
        return Snapshot.capture(world, label=label or self.describe())


def warm_specs(
    cells: Sequence,
    prefix_for: Callable[..., PrefixSpec],
    spec_for: Callable[..., TaskSpec],
    store: "SnapshotStore",
    fingerprint: Optional[str] = None,
) -> List[TaskSpec]:
    """Build the warm task specs for a sweep.

    ``prefix_for(cell)`` names each cell's shared prefix; cells whose
    prefix specs have equal digests share one capture.  Each distinct
    prefix is ensured in ``store`` (captured by this process, at most
    once per code version), then ``spec_for(cell, digest)`` emits the
    cell's task spec carrying the snapshot digest.
    ``store.prefix_hits`` / ``store.prefix_captures`` record how many
    distinct prefixes were already stored and how many had to be run.
    """
    if fingerprint is None:
        from repro.runner.fingerprint import code_fingerprint

        fingerprint = code_fingerprint()
    digests: Dict[str, str] = {}
    specs: List[TaskSpec] = []
    for cell in cells:
        prefix = prefix_for(cell)
        key = prefix.digest()
        if key not in digests:
            stored = store.lookup_prefix(prefix, fingerprint)
            if stored is None:
                store.prefix_captures += 1
                stored = store.ensure_prefix(prefix, fingerprint=fingerprint)
            else:
                store.prefix_hits += 1
            digests[key] = stored
        specs.append(spec_for(cell, digests[key]))
    return specs


class SnapshotStore:
    """Content-addressed snapshot files shared across processes."""

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            cache_root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
            root = Path(cache_root) / SNAPSHOT_SUBDIR
        self.root = Path(root)
        #: Prefix reuse counters, maintained by :func:`warm_specs`
        #: (telemetry: the warm-start hit rate in a run manifest).
        self.prefix_hits = 0
        self.prefix_captures = 0

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

        The read-path gate for self-healing: a truncated or bit-flipped
        file is quarantined on the spot and reported missing (so the
        caller recaptures — cold-start degrade), while a file written
        by a *different* format version (foreign ``SNAPSHOT_FORMAT``)
        is left untouched but still reported missing: mixed-version
        stores degrade to recompute instead of refusing (see
        docs/RESILIENCE.md).
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
            # is a cache, and it is how ``load_prefix`` heals corruption.
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

    # ------------------------------------------------------------------
    # prefix index
    # ------------------------------------------------------------------
    def _prefix_index_path(self, spec: PrefixSpec, fingerprint: str) -> Path:
        return (
            self.root
            / PREFIX_INDEX_SUBDIR
            / fingerprint[:16]
            / f"{spec.digest()}.json"
        )

    def lookup_prefix(
        self, spec: PrefixSpec, fingerprint: Optional[str] = None
    ) -> Optional[str]:
        """The snapshot digest of ``spec``'s stored capture, or None
        when the prefix would have to be (re)captured — the read half
        of :meth:`ensure_prefix`, with no side effects."""
        if fingerprint is None:
            from repro.runner.fingerprint import code_fingerprint

            fingerprint = code_fingerprint()
        index_path = self._prefix_index_path(spec, fingerprint)
        if not index_path.exists():
            return None
        try:
            entry = json.loads(index_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if entry and self.intact(entry.get("snapshot", "")):
            return entry["snapshot"]
        return None

    def ensure_prefix(
        self, spec: PrefixSpec, fingerprint: Optional[str] = None
    ) -> str:
        """Return the snapshot digest of ``spec``'s captured prefix,
        capturing (and storing) it only when no current capture exists.

        The index maps ``(prefix-spec digest, code fingerprint)`` to a
        snapshot digest: the snapshot digest itself is unknowable before
        simulating the prefix, so without the index every sweep would
        re-simulate it just to learn the key.  Keying by code
        fingerprint keeps the mapping honest across source changes —
        the same staleness rule the result cache applies.
        """
        if fingerprint is None:
            from repro.runner.fingerprint import code_fingerprint

            fingerprint = code_fingerprint()
        stored = self.lookup_prefix(spec, fingerprint)
        if stored is not None:
            return stored
        index_path = self._prefix_index_path(spec, fingerprint)
        snapshot = spec.capture()
        digest = self.put(snapshot)
        self._write_json_atomic(
            index_path, {"snapshot": digest, "spec": spec.canonical()}
        )
        self._write_json_atomic(
            self._prefix_meta_path(digest),
            {"snapshot": digest, "spec": spec.canonical(), "label": spec.label},
        )
        return digest

    def _write_json_atomic(self, path: Path, payload: Dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        try:
            Path(tmp_name).write_text(json.dumps(payload), encoding="utf-8")
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _prefix_meta_path(self, digest: str) -> Path:
        return self.root / PREFIX_META_SUBDIR / f"{digest}.json"

    def prefix_spec_for(self, digest: str) -> Optional[PrefixSpec]:
        """The :class:`PrefixSpec` that captured snapshot ``digest``,
        rebuilt from the prefix-meta reverse index — or None when the
        snapshot predates the meta index (pre-resilience stores) or was
        never a prefix capture.  This is the recompute recipe behind
        :func:`load_prefix` and ``fsck --rebuild``."""
        meta_path = self._prefix_meta_path(digest)
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        canonical = meta.get("spec")
        if not canonical:
            return None
        try:
            return PrefixSpec.from_canonical(canonical, label=meta.get("label", ""))
        except Exception:  # noqa: BLE001 - a broken recipe is "no recipe"
            return None


def fetch_prefix(digest: str, store_root=None) -> Snapshot:
    """The frozen prefix snapshot ``digest``, healing the store if
    needed.

    Self-healing: when the stored file is missing, truncated,
    bit-flipped, or written by a foreign format version, the prefix is
    *recomputed from its recipe* (the canonical spec recorded in the
    prefix-meta index at capture time) and the recomputed snapshot is
    put back into the store for the next reader.  Recomputation is
    bit-equivalent — the prefix callable is deterministic in its spec —
    and the recomputed state digest is verified against the requested
    one, so a drifted recipe raises instead of silently substituting a
    different world.  Snapshots with no recorded recipe (pre-resilience
    stores, non-prefix snapshots) re-raise the original storage error.
    """
    store = SnapshotStore(store_root)
    try:
        return store.get(digest)
    except SnapshotError as error:
        spec = store.prefix_spec_for(digest)
        if spec is None:
            raise
        snapshot = spec.capture()
        if snapshot.digest != digest:
            raise SnapshotError(
                f"recomputing prefix {digest[:12]}… from its recorded spec "
                f"produced state digest {snapshot.digest[:12]}… — the code "
                "or the recipe drifted; refusing to substitute"
            ) from error
        store.put(snapshot)
        return snapshot


def load_prefix(digest: str, store_root=None, verify: bool = False):
    """Restore the frozen prefix world ``digest`` with
    :func:`fetch_prefix`'s self-healing on the way (``fsck --rebuild``'s
    repair step; grid cells fetch once and restore per replication)."""
    return fetch_prefix(digest, store_root).restore(verify=verify)
