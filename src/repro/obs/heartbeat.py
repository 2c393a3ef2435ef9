"""JSONL heartbeat log: every sweep event, timestamped, append-only.

One line per :class:`~repro.runner.pool.SweepObserver` event::

    {"t": 1754489000.123, "event": "task_finished", "sweep": 0,
     "index": 3, "label": "fig5 rr/6-drop", "digest": "ab12…",
     "seconds": 1.84}

``t`` is wall-clock epoch seconds (the run's provenance is wall time,
not sim time); ``sweep`` counts ``map`` calls within the run, so a
harness that maps more than once keeps its sweeps distinguishable.
Lines are flushed per event — a heartbeat that only reaches the disk
at process exit is no heartbeat — so a killed run's
log still shows exactly how far it got: every complete line is valid
JSON on its own, and only a killed writer's final line can be torn.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict

from repro.runner.pool import SweepObserver, SweepStats, TaskRecord  # noqa: F401
from repro.runner.spec import TaskSpec


class HeartbeatLog(SweepObserver):
    """Appends one JSON line per sweep event to ``path``."""

    def __init__(self, path: os.PathLike):
        self.path = Path(path)
        self.sweep = -1
        self._fh = None

    def _emit(self, event: str, **fields: Any) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        record = {"t": round(time.time(), 3), "event": event, "sweep": self.sweep}
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    @staticmethod
    def _task_fields(index: int, spec: TaskSpec) -> Dict[str, Any]:
        return {"index": index, "label": spec.describe(), "digest": spec.digest()}

    # ------------------------------------------------------------------
    # SweepObserver
    # ------------------------------------------------------------------
    def sweep_started(self, total: int, jobs: int) -> None:
        self.sweep += 1
        self._emit("sweep_started", total=total, jobs=jobs)

    def task_queued(self, index: int, spec: TaskSpec) -> None:
        self._emit("task_queued", **self._task_fields(index, spec))

    def task_cached(self, index: int, spec: TaskSpec) -> None:
        self._emit("task_cached", **self._task_fields(index, spec))

    def task_started(self, index: int, spec: TaskSpec) -> None:
        self._emit("task_started", **self._task_fields(index, spec))

    def task_finished(self, index: int, spec: TaskSpec, seconds: float) -> None:
        self._emit(
            "task_finished",
            seconds=round(seconds, 6),
            **self._task_fields(index, spec),
        )

    def task_failed(self, index: int, spec: TaskSpec, error: BaseException) -> None:
        self._emit("task_failed", error=repr(error), **self._task_fields(index, spec))

    def cache_store_failed(self, index: int, spec: TaskSpec, reason: str) -> None:
        self._emit(
            "cache_store_failed", reason=reason, **self._task_fields(index, spec)
        )

    def sweep_finished(self, stats: SweepStats) -> None:
        self._emit(
            "sweep_finished",
            total=stats.total,
            cache_hits=stats.cache_hits,
            executed=stats.executed,
            salvaged=stats.salvaged,
            failed=stats.failed,
            cache_store_failures=stats.cache_store_failures,
            wall_seconds=round(stats.wall_seconds, 6),
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
