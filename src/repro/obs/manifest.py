"""Run manifests: one JSON provenance record per experiment run.

A :class:`RunManifest` answers, months later, "what exactly produced
this table?": the harness and its canonicalized configuration, the
code fingerprint the run executed under, every task's spec digest and
wall time, the cache hit rate, and the outcome.  Manifests
are written to ``<artifact root>/runs/<run_id>/manifest.json`` where
the artifact root is ``$REPRO_ARTIFACT_DIR`` (falling back to
``.repro-artifacts/``) — the same tree CI uploads on failure, so a red
run always carries its own provenance.

The schema is flat JSON (no pickles) and versioned by
``MANIFEST_FORMAT``; :meth:`RunManifest.load` refuses unknown formats
rather than misreading them.  See docs/OBSERVABILITY.md for the full
field table.
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError

#: Manifest schema version (bump on incompatible field changes).
MANIFEST_FORMAT = 2

#: Environment variable naming the artifact root (shared with the
#: chaos failure dumps and the golden-digest drift reports).
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Artifact root used when :data:`ARTIFACT_DIR_ENV` is unset.
DEFAULT_ARTIFACT_DIR = ".repro-artifacts"

#: Subdirectory of the artifact root holding one directory per run.
RUNS_SUBDIR = "runs"

MANIFEST_FILENAME = "manifest.json"
EVENTS_FILENAME = "events.jsonl"
PROFILES_SUBDIR = "profiles"


def artifact_root() -> Path:
    """The artifact root: ``$REPRO_ARTIFACT_DIR`` or the default."""
    return Path(os.environ.get(ARTIFACT_DIR_ENV, DEFAULT_ARTIFACT_DIR))


def runs_root(root: Optional[os.PathLike] = None) -> Path:
    """The ``runs/`` directory under ``root`` (default artifact root)."""
    return (Path(root) if root is not None else artifact_root()) / RUNS_SUBDIR


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def new_run_id(harness: str) -> str:
    """A unique, sortable run id: ``<harness>-<utc stamp>-<suffix>``."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    return f"{harness}-{stamp}-{uuid.uuid4().hex[:6]}"


@dataclass
class RunManifest:
    """Provenance of one experiment run (see module docstring).

    ``tasks`` holds one entry per sweep task the run executed or
    replayed: ``{"sweep": n, "index": i, "label": ..., "digest": ...,
    "cached": bool, "seconds": float|None, "error": str|None}``; failed
    entries additionally carry ``"quarantined": bool``.
    """

    run_id: str
    harness: str
    started_at: str
    code_fingerprint: str
    format: int = MANIFEST_FORMAT
    args: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    finished_at: Optional[str] = None
    outcome: str = "running"
    total: int = 0
    cached: int = 0
    executed: int = 0
    salvaged: int = 0
    failed: int = 0
    #: Retry executions performed across the run's sweeps (see
    #: docs/RESILIENCE.md; 0 on a clean run and in pre-resilience
    #: manifests, which load fine via this default).
    retried: int = 0
    #: Tasks quarantined as poison (budget exhausted on
    #: timeouts/crashes); their QuarantineRecords live under
    #: ``runs/<run_id>/quarantine/``.
    quarantined: int = 0
    #: Completed results the cache failed to persist.
    cache_store_failures: int = 0
    wall_seconds: float = 0.0
    #: Mean-field oracle verdict for harnesses that check measurements
    #: against an analytic model (``manyflow``): one flat dict per
    #: checked cell — ``{"label": ..., "passed": bool, "regime": ...,
    #: "measured_queue": ..., "predicted_queue": ..., "measured_loss":
    #: ..., "predicted_loss": ...}``.  None = the run had no oracle.
    oracle: Optional[List[Dict[str, Any]]] = None
    #: Behavior-class identification verdicts for harnesses that run
    #: the trace-based variant oracle (``identify``, chaos campaigns
    #: with ``identify=True``): one flat dict per checked flow —
    #: ``{"label": ..., "identified": ..., "declared": ...,
    #: "distance": ..., "margin": ..., "conclusive": bool,
    #: "ok": bool|None}``.  None = the run had no identity check.
    identity: Optional[List[Dict[str, Any]]] = None
    tasks: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def begin(
        cls,
        harness: str,
        args: Optional[Dict[str, Any]] = None,
        fingerprint: Optional[str] = None,
    ) -> "RunManifest":
        if fingerprint is None:
            from repro.runner.fingerprint import code_fingerprint

            fingerprint = code_fingerprint()
        return cls(
            run_id=new_run_id(harness),
            harness=harness,
            started_at=_utc_now(),
            code_fingerprint=fingerprint,
            args=dict(args or {}),
        )

    def describe_harness(
        self, harness: str, config: Any = None, seed: Optional[int] = None, **extra: Any
    ) -> None:
        """Record harness identity and canonicalized arguments.

        Called by each ``run_*`` harness when handed a manifest:
        ``config`` (usually the harness config dataclass) is reduced
        through :func:`repro.runner.spec.canonicalize`, so the manifest
        carries the exact argument content the task digests hashed.
        """
        from repro.runner.spec import canonicalize

        self.harness = harness
        if seed is not None:
            self.seed = seed
        if config is not None:
            self.args["config"] = canonicalize(config)
        for key, value in extra.items():
            self.args[key] = canonicalize(value)

    def note_oracle(self, label: str, verdict: Any) -> None:
        """Append one cell's analytic-oracle verdict (an
        :class:`~repro.models.meanfield.OracleVerdict`) so the manifest
        records whether the run matched the model, not just that it
        finished."""
        entry = {"label": label}
        entry.update(dataclasses.asdict(verdict))
        if self.oracle is None:
            self.oracle = []
        self.oracle.append(entry)

    def note_identity(self, label: str, verdict: Any) -> None:
        """Append one flow's behavior-class verdict (an
        :class:`~repro.ident.oracle.IdentityVerdict`), mirroring
        :meth:`note_oracle`: the manifest records what the run *behaved
        like*, not just which variant it declared."""
        entry = {"label": label}
        entry.update(verdict.as_dict())
        if self.identity is None:
            self.identity = []
        self.identity.append(entry)

    def finish(self, outcome: str = "ok") -> None:
        self.finished_at = _utc_now()
        self.outcome = outcome

    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.total if self.total else 0.0

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        payload = json.loads(text)
        if payload.get("format") != MANIFEST_FORMAT:
            raise ConfigurationError(
                f"unsupported manifest format {payload.get('format')!r}"
                f" (this build reads format {MANIFEST_FORMAT})"
            )
        payload.pop("cache_hit_rate", None)
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ConfigurationError(
                f"manifest carries unknown fields {sorted(unknown)}"
            )
        return cls(**payload)

    def run_dir(self, root: Optional[os.PathLike] = None) -> Path:
        return runs_root(root) / self.run_id

    def write(self, root: Optional[os.PathLike] = None) -> Path:
        """Write ``manifest.json`` under ``runs/<run_id>/``; atomic so
        watchers never read a torn manifest."""
        run_dir = self.run_dir(root)
        run_dir.mkdir(parents=True, exist_ok=True)
        path = run_dir / MANIFEST_FILENAME
        tmp = run_dir / f".{MANIFEST_FILENAME}.tmp"
        tmp.write_text(self.to_json(), encoding="utf-8")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: os.PathLike) -> "RunManifest":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
