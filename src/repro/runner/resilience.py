"""Fault tolerance for sweep execution: retry policy + quarantine.

The paper's thesis — recovery must survive adversarial loss patterns
without collapsing — applies to the harness too.  This module holds
the two policy objects the :class:`~repro.runner.pool.SweepRunner`
dispatch loop uses to survive its own failures:

* :class:`RetryPolicy` — bounded per-task retries with *deterministic*
  seeded, jittered exponential backoff.  The jitter for attempt ``k``
  of a task is derived from the task digest (the same content address
  the result cache keys on), not from a process RNG or the wall clock,
  so a retry schedule is a pure function of the work being retried:
  parallel and serial sweeps back off identically, and a re-run of a
  flaky sweep reproduces its own timing envelope.  (Karn's lesson from
  divergent retransmission timers: ad-hoc timer state is where
  determinism quietly dies.)
* :class:`QuarantineRecord` — the structured artifact left behind when
  a task exhausts its budget (or keeps killing workers / overrunning
  its deadline): spec digest, label, per-attempt tracebacks, and the
  reason, written as JSON into the run artifact directory so a
  quarantined cell is an inspectable report instead of a wedged
  campaign.

Cells are pure functions of their spec (every RNG seeds from spec
arguments), so a retried-then-succeeded cell returns a result
bit-identical to a first-try run — retries change *when* work
happens, never *what* it computes.  ``tests/resilience/`` proves this
under SIGKILL, deadline kills and storage corruption.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError

#: Subdirectory (of a run's artifact dir) holding quarantine records.
QUARANTINE_SUBDIR = "quarantine"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for sweep tasks.

    Parameters
    ----------
    max_retries:
        Additional executions after the first (``0`` disables retry).
    base_delay:
        Backoff before the first retry, in seconds; retry ``k`` waits
        ``base_delay * 2**(k-1)`` scaled by jitter, capped at
        ``max_delay``.
    max_delay:
        Hard ceiling on any single backoff.
    jitter:
        Fractional spread of the multiplicative jitter: the factor for
        (digest, attempt) is uniform in ``[1-jitter, 1+jitter]``,
        derived from ``sha256(digest:attempt)`` — deterministic, but
        decorrelated across tasks so a broken pool's retries do not
        thunder back in lockstep.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def jitter_factor(self, digest: str, attempt: int) -> float:
        """The deterministic jitter multiplier for (task, attempt)."""
        if self.jitter == 0.0:
            return 1.0
        seed = hashlib.sha256(f"{digest}:{attempt}".encode("ascii")).digest()
        # 8 bytes -> uniform in [0, 1), then into [1-jitter, 1+jitter].
        unit = int.from_bytes(seed[:8], "big") / 2**64
        return 1.0 - self.jitter + 2.0 * self.jitter * unit

    def delay(self, digest: str, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based) of the
        task addressed by ``digest``.  Pure function of its arguments.
        """
        if attempt < 1:
            raise ConfigurationError(f"retry attempt must be >= 1, got {attempt}")
        raw = self.base_delay * (2.0 ** (attempt - 1))
        return min(self.max_delay, raw * self.jitter_factor(digest, attempt))

    def schedule(self, digest: str) -> List[float]:
        """Every backoff the policy would apply to this task, in order
        — the full (deterministic) retry timetable."""
        return [self.delay(digest, k) for k in range(1, self.max_retries + 1)]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class QuarantineRecord:
    """One poisoned artifact, written out instead of wedging a sweep.

    ``kind`` is ``"task"`` for a quarantined sweep cell, or
    ``"cache-entry"`` / ``"snapshot"`` for storage entries quarantined
    by the integrity layer (corrupt reads, ``fsck``).  ``errors``
    carries one traceback/description per failed attempt, oldest
    first.
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

    def write(self, directory: os.PathLike) -> Path:
        """Write ``<dir>/<kind>-<digest[:16]>.json`` atomically."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        name = f"{self.kind}-{self.digest[:16] or 'unkeyed'}.json"
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
