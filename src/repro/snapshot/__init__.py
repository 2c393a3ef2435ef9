"""Deterministic checkpoint / restore / fork of live simulations.

``Snapshot.capture(world)`` freezes a world between engine events;
``restore()`` materializes an independent copy that continues
bit-identically to the uninterrupted run; ``fork(n, mutate=...)``
branches one warmed-up simulation into N divergent continuations.
:func:`state_digest` is the canonical SHA-256 equality oracle behind
both the restore integrity check and the golden-state regression layer
(:mod:`repro.snapshot.golden`).  See docs/SNAPSHOT.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": ("SNAPSHOT_FORMAT", "Snapshot", "SnapshotInfo"),
        "delta": ("DeltaInfo", "DeltaSnapshot"),
        "digest": ("DIGEST_VERSION", "state_digest", "state_fingerprints"),
        "golden": (
            "CHECKPOINT_TIMES",
            "GOLDEN_VARIANTS",
            "all_golden_digests",
            "build_golden_scenario",
            "golden_digests",
        ),
    },
)
