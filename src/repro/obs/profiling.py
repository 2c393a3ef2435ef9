"""Merge and report per-task cProfile captures.

A sweep run with profiling enabled (``SweepRunner.profile_dir``, or
the CLI's ``--profile``) leaves one ``task-<index>-<digest>.pstats``
file per executed cell.  Each is a standard :mod:`pstats` dump — load
one into ``pstats.Stats`` or snakeviz for a single-cell deep dive —
and this module provides the cross-task view: merge every capture and
rank the hot functions, so "where does the whole grid spend its time"
is one function call (`hot_functions_report`).
"""

from __future__ import annotations

import os
import pstats
from pathlib import Path
from typing import List, Optional

from repro._record import Record
from repro.viz.ascii import format_table

PSTATS_SUFFIX = ".pstats"


class HotFunction(Record):
    """One row of the merged profile ranking."""

    location: str        # "module.py:42(function)"
    calls: int
    internal_seconds: float   # time in the function itself (tottime)
    cumulative_seconds: float  # time including callees (cumtime)


def profile_paths(profile_dir: os.PathLike) -> List[Path]:
    """Every per-task capture under ``profile_dir``, sorted by name
    (i.e. by task index)."""
    root = Path(profile_dir)
    if not root.is_dir():
        return []
    return sorted(root.glob(f"*{PSTATS_SUFFIX}"))


def merged_stats(profile_dir: os.PathLike) -> Optional[pstats.Stats]:
    """All captures in ``profile_dir`` added into one ``pstats.Stats``
    (None when there are no captures)."""
    paths = profile_paths(profile_dir)
    if not paths:
        return None
    stats = pstats.Stats(str(paths[0]))
    for path in paths[1:]:
        stats.add(str(path))
    return stats


def _location(key) -> str:
    filename, lineno, function = key
    if filename == "~":          # built-ins have no file
        return function
    return f"{os.path.basename(filename)}:{lineno}({function})"


def hot_functions(profile_dir: os.PathLike, top: int = 15) -> List[HotFunction]:
    """The merged top-``top`` functions by internal (self) time."""
    stats = merged_stats(profile_dir)
    if stats is None:
        return []
    rows = []
    for key, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        rows.append(
            HotFunction(
                location=_location(key),
                calls=nc,
                internal_seconds=tt,
                cumulative_seconds=ct,
            )
        )
    rows.sort(key=lambda row: row.internal_seconds, reverse=True)
    return rows[:top]


def hot_functions_report(profile_dir: os.PathLike, top: int = 15) -> str:
    """The merged hot-function table the CLI prints under ``--profile``."""
    captures = profile_paths(profile_dir)
    rows = hot_functions(profile_dir, top=top)
    if not rows:
        return f"no profile captures under {profile_dir}"
    table = format_table(
        ["hot function (merged)", "calls", "self s", "cum s"],
        [
            [
                row.location,
                row.calls,
                f"{row.internal_seconds:.3f}",
                f"{row.cumulative_seconds:.3f}",
            ]
            for row in rows
        ],
    )
    return (
        f"merged profile over {len(captures)} task capture(s)"
        f" ({profile_dir}):\n{table}"
    )
