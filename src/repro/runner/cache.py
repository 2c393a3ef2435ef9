"""On-disk content-addressed result cache for sweep cells.

Layout::

    <root>/                      default .repro-cache/ (REPRO_CACHE_DIR
      <fingerprint[:16]>/          overrides), one dir per code version
        <task digest>.pkl          checksum-framed pickled entry
      quarantine/                  corrupt entries, moved aside on read

A lookup is ``(code fingerprint, task digest) -> pickle``; a miss after
an edit to ``src/repro`` is therefore automatic (new fingerprint, new
directory) and stale entries are simply orphaned directories you can
delete wholesale.  Writes are atomic (tmp file + ``os.replace``) so a
crashed or concurrent run never leaves a torn entry; the stored
canonical string is re-checked on load to turn any (astronomically
unlikely) digest collision into a miss instead of a wrong answer.

**Integrity framing**: every entry is
``<magic line>\\n<blake2b hex>\\n<pickle blob>``, and the checksum is
verified before any byte is unpickled.  A truncated or bit-flipped
entry is a miss — and the bad file is *quarantined* (moved to
``<root>/quarantine/<fingerprint[:16]>-<digest>.pkl`` with a
:class:`QuarantineRecord` sidecar) on first read, so one corrupt file
cannot silently re-poison every subsequent sweep.  The snapshot store
quarantines its corrupt files the same way (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runner.fingerprint import code_fingerprint
from repro.runner.spec import TaskSpec

#: Subdirectory (of a cache or snapshot-store root) holding corrupt
#: files moved aside on read, with their :class:`QuarantineRecord`\s.
QUARANTINE_SUBDIR = "quarantine"

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"

#: First line of every framed cache entry; bump the suffix on
#: incompatible framing changes (old entries then fail the frame check:
#: a miss, moved aside on first read).
CACHE_MAGIC = b"repro-cache:1"


def _checksum(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=32).hexdigest()


def frame_entry(blob: bytes) -> bytes:
    """Wrap a pickle blob in the checksum frame."""
    return CACHE_MAGIC + b"\n" + _checksum(blob).encode("ascii") + b"\n" + blob


def unframe_entry(data: bytes) -> bytes:
    """Verify the frame and return the pickle blob.

    Raises ``ValueError`` with a human-readable reason on any
    violation: missing/foreign magic, torn header, checksum mismatch.
    """
    magic, sep, rest = data.partition(b"\n")
    if not sep or magic != CACHE_MAGIC:
        raise ValueError(
            "unframed or foreign cache entry "
            f"(magic {magic[:32]!r}, expected {CACHE_MAGIC!r})"
        )
    checksum, sep, blob = rest.partition(b"\n")
    if not sep:
        raise ValueError("torn cache entry header (no checksum line)")
    if _checksum(blob).encode("ascii") != checksum:
        raise ValueError(
            "cache entry checksum mismatch — truncated or bit-flipped payload"
        )
    return blob


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class QuarantineRecord:
    """One corrupt storage file, moved aside instead of re-read.

    ``kind`` is ``"cache-entry"`` or ``"snapshot"``: a result-cache
    entry or a snapshot-store file whose frame or checksum failed on
    read.  ``path`` is where the file was moved.
    """

    digest: str
    label: str = ""
    kind: str = "task"
    attempts: int = 0
    reason: str = ""
    errors: List[str] = field(default_factory=list)
    path: str = ""          # for storage kinds: the quarantined file
    created_at: str = field(default_factory=_utc_now)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def write(self, directory: os.PathLike, key: str = "") -> Path:
        """Write ``<dir>/<kind>-<key>.json`` atomically; ``key``
        defaults to ``digest[:16]``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        name = f"{self.kind}-{key or self.digest[:16] or 'unkeyed'}.json"
        path = directory / name
        tmp = directory / f".{name}.tmp"
        tmp.write_text(self.to_json(), encoding="utf-8")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: os.PathLike) -> "QuarantineRecord":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(payload) - fields
        if unknown:
            raise ConfigurationError(
                f"quarantine record carries unknown fields {sorted(unknown)}"
            )
        return cls(**payload)


def read_quarantine(directory: os.PathLike) -> List[QuarantineRecord]:
    """Every readable quarantine record under ``directory`` (sorted by
    file name); missing directory reads as empty."""
    directory = Path(directory)
    records: List[QuarantineRecord] = []
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.json")):
        try:
            records.append(QuarantineRecord.load(path))
        except (OSError, ValueError, ConfigurationError):
            continue
    return records


class ResultCache:
    """Memoizes completed :class:`TaskSpec` results on disk."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        fingerprint: Optional[str] = None,
    ):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        #: Corrupt entries quarantined by :meth:`lookup` this session.
        self.corrupt = 0
        #: Failed :meth:`store` calls this session (unpicklable result
        #: or I/O error); the first one also warns on stderr.
        self.store_failures = 0
        #: Human-readable reason of the most recent :meth:`store`
        #: failure (heartbeat/telemetry payload), or None.
        self.last_store_error: Optional[str] = None

    def _path(self, spec: TaskSpec) -> Path:
        return self.root / self.fingerprint[:16] / f"{spec.digest()}.pkl"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_SUBDIR

    def _quarantine(self, path: Path, digest: str, reason: str) -> None:
        """Move a corrupt entry aside (never delete evidence) and leave
        a structured record next to it.  Both names carry the code
        fingerprint, so the same spec's entries under two code versions
        are two pieces of evidence.  Best-effort: a failure to
        quarantine must not fail the lookup that found the corruption."""
        self.corrupt += 1
        version = self.fingerprint[:16]
        target = self.quarantine_dir / f"{version}-{path.name}"
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            QuarantineRecord(
                digest=digest,
                label=str(path),
                kind="cache-entry",
                reason=reason,
                path=str(target),
            ).write(self.quarantine_dir, key=f"{version}-{digest[:16]}")
        except OSError:
            # Last resort: at least stop the bad file from being
            # re-read every sweep.
            try:
                os.unlink(path)
            except OSError:
                pass

    def lookup(self, spec: TaskSpec) -> Tuple[bool, Any]:
        """``(True, result)`` on a hit, ``(False, None)`` on a miss.

        A corrupt or truncated entry is a miss *and is quarantined on
        the spot* — the old behavior of leaving the bad file to be
        re-read (and re-missed) by every subsequent sweep is gone.
        """
        path = self._path(spec)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return False, None
        try:
            blob = unframe_entry(data)
            payload = pickle.loads(blob)
        except (ValueError, pickle.PickleError, EOFError, AttributeError,
                IndexError, ImportError, MemoryError) as error:
            self._quarantine(path, spec.digest(), repr(error))
            self.misses += 1
            return False, None
        if not isinstance(payload, dict) or payload.get("canonical") != spec.canonical():
            self.misses += 1
            return False, None
        self.hits += 1
        return True, payload["result"]

    def store(self, spec: TaskSpec, result: Any) -> bool:
        """Persist ``result``; returns False (and caches nothing) when
        the result does not pickle or the write fails, so exotic cells
        degrade to recompute-every-time instead of failing the sweep.

        A failure is *not* silent: the first one per cache instance
        warns on stderr, every one increments :attr:`store_failures`
        and records :attr:`last_store_error`, and the sweep runner
        surfaces a ``cache_store_failed`` heartbeat event (see
        docs/PERFORMANCE.md).
        """
        path = self._path(spec)
        try:
            blob = pickle.dumps({"canonical": spec.canonical(), "result": result})
        except (pickle.PickleError, TypeError, AttributeError) as error:
            self._store_failed(spec, f"result does not pickle: {error!r}")
            return False
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(frame_entry(blob))
            os.replace(tmp_name, path)
        except OSError as error:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            self._store_failed(spec, f"cache write failed: {error!r}")
            return False
        return True

    def _store_failed(self, spec: TaskSpec, reason: str) -> None:
        first = self.store_failures == 0
        self.store_failures += 1
        self.last_store_error = reason
        if first:
            print(
                f"[repro.runner] result cache store failed for "
                f"{spec.describe()!r} — caching is degraded for this run "
                f"({reason}); further failures are counted silently",
                file=sys.stderr,
            )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
