"""Live TTY progress line for sweep runs.

Renders a single carriage-return-overwritten status line::

    [fig5] 37/120 done · 12 cached · 3 workers · ETA 41s

The line is only drawn when the stream is an interactive terminal
(``isatty``) — piping a run into a file or CI log must not fill it
with control characters — and the CLI's ``--quiet`` forces it off /
``--progress`` forces it on regardless.  The ETA divides the mean
worker-measured task time over the remaining cells by the worker
count; until the first task completes there is nothing honest to
extrapolate from, so the slot shows ``…``.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.runner.pool import SweepObserver, SweepStats
from repro.runner.spec import TaskSpec


class ProgressLine(SweepObserver):
    """A one-line, self-overwriting sweep progress display.

    ``enabled=None`` (the default) auto-detects: draw only when the
    stream reports ``isatty()``.  ``True``/``False`` force it.
    """

    def __init__(
        self,
        label: str,
        stream: Optional[TextIO] = None,
        enabled: Optional[bool] = None,
        min_interval: float = 0.1,
    ):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        self.min_interval = min_interval
        self._last_draw = 0.0
        self._width = 0
        self.total = 0
        self.jobs = 1
        self.done = 0
        self.cached = 0
        self.failed = 0
        self._exec_seconds = 0.0
        self._exec_done = 0

    # ------------------------------------------------------------------
    # SweepObserver
    # ------------------------------------------------------------------
    def sweep_started(self, total: int, jobs: int) -> None:
        self.total += total
        self.jobs = jobs
        self._draw(force=True)

    def task_cached(self, index: int, spec: TaskSpec) -> None:
        self.done += 1
        self.cached += 1
        self._draw()

    def task_finished(self, index: int, spec: TaskSpec, seconds: float) -> None:
        self.done += 1
        self._exec_done += 1
        self._exec_seconds += seconds
        self._draw()

    def task_failed(self, index: int, spec: TaskSpec, error: BaseException) -> None:
        self.done += 1
        self.failed += 1
        self._draw()

    def sweep_finished(self, stats: SweepStats) -> None:
        self._draw(force=True)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def eta_seconds(self) -> Optional[float]:
        """Remaining wall time, extrapolated from completed tasks."""
        remaining = self.total - self.done
        if remaining <= 0 or self._exec_done == 0:
            return None
        mean = self._exec_seconds / self._exec_done
        return mean * remaining / max(1, self.jobs)

    def render(self) -> str:
        eta = self.eta_seconds()
        eta_text = f"{eta:.0f}s" if eta is not None else "…"
        parts = [
            f"[{self.label}] {self.done}/{self.total} done",
            f"{self.cached} cached",
            f"{self.jobs} workers",
            f"ETA {eta_text}",
        ]
        if self.failed:
            parts.insert(1, f"{self.failed} FAILED")
        return " · ".join(parts)

    def _draw(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        if not force and now - self._last_draw < self.min_interval:
            return
        self._last_draw = now
        line = self.render()
        pad = " " * max(0, self._width - len(line))
        self._width = len(line)
        self.stream.write("\r" + line + pad)
        self.stream.flush()

    def close(self) -> None:
        """Finish the line (newline) so the next print starts clean."""
        if self.enabled and self._width:
            self.stream.write("\n")
            self.stream.flush()
            self._width = 0
