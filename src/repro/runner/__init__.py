"""Parallel sweep execution with deterministic result caching.

The experiment layer describes each simulation cell as a
:class:`TaskSpec` (a named top-level callable plus picklable,
canonically-hashable arguments), and a :class:`SweepRunner` fans the
cells out over a process pool and/or replays them from an on-disk
:class:`ResultCache` keyed by ``(task digest, code fingerprint)``.
See docs/PERFORMANCE.md for the architecture, the guarantees
(ordered results, parallel == serial, salvage of completed cells) and
storage integrity (checksum-framed entries, quarantine on read).  Warm
grids (:func:`run_grid` with ``warm_start``) hand each frozen prefix
to their cells through a :class:`SnapshotStore`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cache": (
            "CACHE_DIR_ENV",
            "DEFAULT_CACHE_DIR",
            "QUARANTINE_SUBDIR",
            "QuarantineRecord",
            "ResultCache",
        ),
        "fingerprint": ("code_fingerprint", "package_root"),
        "grid": ("GridCell", "run_grid", "step_until"),
        "pool": (
            "SweepObserver",
            "SweepRunner",
            "SweepStats",
            "TaskRecord",
        ),
        "spec": ("TaskSpec", "canonicalize", "resolve", "uncanonicalize"),
        "warmstart": ("SNAPSHOT_SUBDIR", "SnapshotStore"),
    },
)
