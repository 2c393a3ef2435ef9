"""Parallel sweep execution with deterministic result caching.

The experiment layer describes each simulation cell as a
:class:`TaskSpec` (a named top-level callable plus picklable,
canonically-hashable arguments), and a :class:`SweepRunner` fans the
cells out over a process pool and/or replays them from an on-disk
:class:`ResultCache` keyed by ``(task digest, code fingerprint)``.
See docs/PERFORMANCE.md for the architecture and guarantees, and
docs/RESILIENCE.md for the fault-tolerance layer (:class:`RetryPolicy`,
task deadlines, quarantine, storage integrity and ``fsck``).  Warm
grids (:func:`run_grid` with ``warm_start``) hand each frozen prefix
to their cells through a :class:`SnapshotStore`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cache": ("CACHE_DIR_ENV", "DEFAULT_CACHE_DIR", "ResultCache"),
        "fingerprint": ("code_fingerprint", "package_root"),
        "fsck": ("FsckIssue", "FsckReport", "fsck"),
        "grid": ("GridCell", "run_grid", "step_until"),
        "pool": (
            "SweepObserver",
            "SweepRunner",
            "SweepStats",
            "TaskRecord",
            "default_jobs",
        ),
        "resilience": (
            "QUARANTINE_SUBDIR",
            "QuarantineRecord",
            "RetryPolicy",
            "read_quarantine",
        ),
        "spec": ("TaskSpec", "canonicalize", "resolve", "uncanonicalize"),
        "warmstart": ("SNAPSHOT_SUBDIR", "SnapshotStore"),
    },
)
