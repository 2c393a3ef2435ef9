"""The run-level telemetry harness: one object per experiment run.

:class:`RunTelemetry` is the glue the CLI uses: it is itself a
:class:`~repro.runner.pool.SweepObserver` that

* accumulates every task event into a :class:`~repro.obs.manifest.
  RunManifest` (across *all* ``map`` calls the run makes);
* fans the same events out to a :class:`~repro.obs.heartbeat.
  HeartbeatLog` (``runs/<run_id>/events.jsonl``) and, when wanted, a
  :class:`~repro.obs.progress.ProgressLine`;
* owns the run directory, the optional profile capture directory, and
  the final manifest write.

Typical shape::

    telemetry = RunTelemetry("fig5", args={"jobs": 4}, profile=True)
    telemetry.attach(runner)
    try:
        result = run_figure5(config, runner=runner, manifest=telemetry.manifest)
    except BaseException as error:
        telemetry.abort(error)
        raise
    finally:
        telemetry.detach(runner)
    manifest_path = telemetry.finish()
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO

from repro.obs.heartbeat import HeartbeatLog
from repro.obs.manifest import EVENTS_FILENAME, PROFILES_SUBDIR, RunManifest
from repro.obs.progress import ProgressLine
from repro.runner.pool import SweepObserver, SweepStats
from repro.runner.spec import TaskSpec


class RunTelemetry(SweepObserver):
    """Accumulates one run's telemetry and writes it out at the end.

    Parameters
    ----------
    harness:
        Run label: manifest ``harness`` field, progress-line prefix,
        run-id prefix.
    args:
        Invocation summary recorded verbatim in the manifest (CLI flag
        values, bench sizing, …) — JSON-encodable values only.
    progress:
        ``None`` auto-detects a TTY on ``stream``; ``True``/``False``
        force the progress line on/off (the CLI's ``--progress`` /
        ``--quiet``).
    profile:
        When true, tasks attached via :meth:`attach` dump per-task
        cProfile captures under ``runs/<run_id>/profiles/``.
    root:
        Artifact root override (default ``$REPRO_ARTIFACT_DIR`` or
        ``.repro-artifacts``).
    """

    def __init__(
        self,
        harness: str,
        args: Optional[Dict[str, Any]] = None,
        progress: Optional[bool] = None,
        profile: bool = False,
        stream: Optional[TextIO] = None,
        root: Optional[Any] = None,
        fingerprint: Optional[str] = None,
    ):
        self.manifest = RunManifest.begin(harness, args=args, fingerprint=fingerprint)
        self._root = root
        self.run_dir: Path = self.manifest.run_dir(root)
        self.stream = stream if stream is not None else sys.stderr
        self.heartbeat = HeartbeatLog(self.run_dir / EVENTS_FILENAME)
        self.progress = ProgressLine(harness, stream=self.stream, enabled=progress)
        self.profile_dir: Optional[Path] = (
            self.run_dir / PROFILES_SUBDIR if profile else None
        )
        self._children: List[SweepObserver] = [self.heartbeat, self.progress]
        self._sweep = -1
        self._finished = False

    # ------------------------------------------------------------------
    # runner wiring
    # ------------------------------------------------------------------
    def attach(self, runner) -> "RunTelemetry":
        """Point ``runner`` at this telemetry (observer + profile dir)."""
        runner.observer = self
        if self.profile_dir is not None:
            runner.profile_dir = self.profile_dir
        return self

    def detach(self, runner) -> None:
        """Undo :meth:`attach` (the runner may outlive the run)."""
        if runner.observer is self:
            runner.observer = None
        if self.profile_dir is not None and runner.profile_dir == self.profile_dir:
            runner.profile_dir = None

    # ------------------------------------------------------------------
    # SweepObserver: accumulate into the manifest, fan out to children
    # ------------------------------------------------------------------
    def _fan_out(self, event: str, *args: Any) -> None:
        for child in self._children:
            getattr(child, event)(*args)

    def _task_entry(self, index: int, spec: TaskSpec, **extra: Any) -> Dict[str, Any]:
        entry = {
            "sweep": self._sweep,
            "index": index,
            "label": spec.describe(),
            "digest": spec.digest(),
            "cached": False,
            "seconds": None,
            "error": None,
        }
        entry.update(extra)
        return entry

    def sweep_started(self, total: int, jobs: int) -> None:
        self._sweep += 1
        self.manifest.total += total
        self._fan_out("sweep_started", total, jobs)

    def task_queued(self, index: int, spec: TaskSpec) -> None:
        self._fan_out("task_queued", index, spec)

    def task_cached(self, index: int, spec: TaskSpec) -> None:
        self.manifest.cached += 1
        self.manifest.tasks.append(self._task_entry(index, spec, cached=True))
        self._fan_out("task_cached", index, spec)

    def task_started(self, index: int, spec: TaskSpec) -> None:
        self._fan_out("task_started", index, spec)

    def task_finished(self, index: int, spec: TaskSpec, seconds: float) -> None:
        self.manifest.executed += 1
        self.manifest.tasks.append(
            self._task_entry(index, spec, seconds=round(seconds, 6))
        )
        self._fan_out("task_finished", index, spec, seconds)

    def task_failed(self, index: int, spec: TaskSpec, error: BaseException) -> None:
        self.manifest.executed += 1
        self.manifest.failed += 1
        self.manifest.tasks.append(self._task_entry(index, spec, error=repr(error)))
        self._fan_out("task_failed", index, spec, error)

    def cache_store_failed(self, index: int, spec: TaskSpec, reason: str) -> None:
        self.manifest.cache_store_failures += 1
        self._fan_out("cache_store_failed", index, spec, reason)

    def sweep_finished(self, stats: SweepStats) -> None:
        self.manifest.wall_seconds += stats.wall_seconds
        self.manifest.salvaged += stats.salvaged
        self._fan_out("sweep_finished", stats)

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------
    def finish(self, outcome: str = "ok") -> Path:
        """Finalize and write the manifest; returns its path.

        Idempotent: a second call (e.g. ``abort`` already ran in an
        except block) rewrites the same file.
        """
        self.progress.close()
        self.manifest.finish(outcome)
        path = self.manifest.write(self._root)
        self.heartbeat.close()
        self._finished = True
        return path

    def abort(self, error: BaseException) -> Path:
        """Record a failed run (manifest outcome ``failed: …``)."""
        return self.finish(outcome=f"failed: {error!r}")

    def profile_report(self, top: int = 15) -> Optional[str]:
        """The merged hot-function table, or None when not profiling."""
        if self.profile_dir is None:
            return None
        # pstats is only worth importing for a run that profiled.
        from repro.obs.profiling import hot_functions_report

        return hot_functions_report(self.profile_dir, top=top)
