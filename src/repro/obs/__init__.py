"""Run telemetry: manifests, heartbeats, live progress, profiling.

Every experiment run (CLI harness, bench campaign) is observable and
auditable through this package:

* :class:`RunManifest` — the JSON provenance record written to
  ``$REPRO_ARTIFACT_DIR/runs/<run_id>/manifest.json`` at the end of a
  run (harness, canonical args, code fingerprint, spec digests,
  per-task wall times, cache hit rate, outcome);
* :class:`HeartbeatLog` — a flushed-per-event JSONL log of every task
  lifecycle event, for post-hoc timing analysis and liveness checks;
* :class:`ProgressLine` — the auto-suppressing TTY progress line;
* :mod:`repro.obs.profiling` — merge per-task cProfile captures into a
  hot-function ranking;
* :class:`RunTelemetry` — the per-run orchestrator tying all of the
  above to a :class:`~repro.runner.SweepRunner` via its observer hook.

See docs/OBSERVABILITY.md for schemas and workflows.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "heartbeat": ("HeartbeatLog",),
        "manifest": (
            "ARTIFACT_DIR_ENV",
            "DEFAULT_ARTIFACT_DIR",
            "EVENTS_FILENAME",
            "MANIFEST_FILENAME",
            "MANIFEST_FORMAT",
            "PROFILES_SUBDIR",
            "RUNS_SUBDIR",
            "RunManifest",
            "artifact_root",
            "new_run_id",
            "runs_root",
        ),
        "profiling": (
            "HotFunction",
            "hot_functions",
            "hot_functions_report",
            "merged_stats",
            "profile_paths",
        ),
        "progress": ("ProgressLine",),
        "telemetry": ("RunTelemetry",),
    },
)
