"""Sweep execution: fan :class:`TaskSpec` cells out over processes.

``SweepRunner.map`` preserves four invariants the harnesses rely on:

* **Order** — results come back in spec order, whatever order workers
  finish in, so report tables are identical at any ``jobs``.
* **Determinism** — cells are pure functions of their spec (every RNG
  is seeded from spec arguments), so a parallel run is bit-identical
  to a serial one; there is no shared mutable state to race on.
* **Memoization** — with a cache attached, completed cells are looked
  up by ``(task digest, code fingerprint)`` before any process is
  spawned and stored (from the parent, atomically) *as each task
  completes*; a repeat sweep is pure cache replay.
* **Salvage** — a raising cell loses only itself.  Every other pending
  cell still runs and is cached, and only then is the failure
  re-raised (the lowest-index one, so the surfaced error is
  deterministic at any ``jobs``).  ``stats.salvaged`` / ``stats.
  failed`` record the split.

Each cell runs once: it is a pure function of its spec, so running a
raising cell again would only raise again.  A worker that dies
(SIGKILL, OOM, ``os._exit``) breaks the pool, and every cell that has
not completed by then fails with :class:`~repro.errors.
WorkerCrashError`.  The completed ones are already cached, so a re-run
resumes from the cache.

``jobs=1`` executes in-process with no executor, keeping single-cell
debugging (pdb, print, profilers) trivial.  An attached
:class:`SweepObserver` sees every task-lifecycle event (queued /
started / cached / finished / failed) — :mod:`repro.obs` builds the
progress line, heartbeat log and run manifests on top of it — and
``profile_dir`` makes every executed task dump a per-task cProfile
``.pstats`` capture there (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, WorkerCrashError
from repro.runner.cache import ResultCache
from repro.runner.spec import TaskSpec


def _execute_task(spec: TaskSpec, index: int, profile_dir: Optional[str]) -> Any:
    """Worker entry point: run one cell, timing it (and optionally
    profiling it into ``profile_dir``).  Returns ``(value, seconds)``."""
    start = time.perf_counter()
    if profile_dir is None:
        value = spec.run()
    else:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            value = spec.run()
        finally:
            profiler.disable()
            os.makedirs(profile_dir, exist_ok=True)
            profiler.dump_stats(
                os.path.join(
                    profile_dir, f"task-{index:04d}-{spec.digest()[:12]}.pstats"
                )
            )
    return value, time.perf_counter() - start


def default_jobs() -> int:
    """A sensible ``--jobs`` default: all cores, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


class SweepObserver:
    """Task-lifecycle hook for :class:`SweepRunner` (all methods no-op).

    Implementations override what they need; every callback fires in
    the *coordinating* process, in wall-clock order.  ``task_started``
    means "handed to a worker" when ``jobs > 1`` (the parent cannot see
    inside the pool) and "about to run in-process" at ``jobs = 1``.
    Observer exceptions never fail a sweep: the first one disables the
    observer for the remainder of the run (with a warning on stderr).
    """

    def sweep_started(self, total: int, jobs: int) -> None:
        """A ``map`` call began: ``total`` specs over ``jobs`` workers."""

    def task_queued(self, index: int, spec: TaskSpec) -> None:
        """Spec ``index`` missed the cache and will execute."""

    def task_cached(self, index: int, spec: TaskSpec) -> None:
        """Spec ``index`` was served from the result cache."""

    def task_started(self, index: int, spec: TaskSpec) -> None:
        """Spec ``index`` was handed to a worker (or runs in-process)."""

    def task_finished(self, index: int, spec: TaskSpec, seconds: float) -> None:
        """Spec ``index`` completed in ``seconds`` (worker-measured)."""

    def task_failed(self, index: int, spec: TaskSpec, error: BaseException) -> None:
        """Spec ``index`` raised, or a worker died before it completed."""

    def cache_store_failed(self, index: int, spec: TaskSpec, reason: str) -> None:
        """Spec ``index`` completed but its result could not be cached
        — the sweep continues, degraded to recompute-every-time."""

    def sweep_finished(self, stats: "SweepStats") -> None:
        """The ``map`` call is over; ``stats`` is final."""


@dataclass
class TaskRecord:
    """Per-task outcome of the most recent sweep (telemetry payload)."""

    index: int
    label: str
    digest: str
    cached: bool = False
    seconds: Optional[float] = None
    error: Optional[str] = None


@dataclass
class SweepStats:
    """Counters for the most recent :meth:`SweepRunner.map` call."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    #: Tasks that completed (and were cached) in a sweep that also had
    #: failures — the results a crashing worker did *not* take down.
    salvaged: int = 0
    failed: int = 0
    #: Completed results the cache failed to persist this sweep.
    cache_store_failures: int = 0
    #: Per-task records in spec order (cached and executed alike).
    records: List[TaskRecord] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0


@dataclass
class SweepRunner:
    """Executes task specs serially or across a process pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) runs in-process.
    cache:
        A :class:`ResultCache`, or None to recompute everything.
    observer:
        A :class:`SweepObserver` receiving task-lifecycle events.
    profile_dir:
        When set, every executed task dumps a cProfile capture to
        ``<profile_dir>/task-<index>-<digest>.pstats`` (see
        :mod:`repro.obs.profiling` for merging/reporting).
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    stats: SweepStats = field(default_factory=SweepStats)
    observer: Optional[SweepObserver] = None
    profile_dir: Optional[os.PathLike] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")

    def _notify(self, event: str, *args: Any) -> None:
        if self.observer is None:
            return
        try:
            getattr(self.observer, event)(*args)
        except Exception as error:  # noqa: BLE001 - observers must not kill sweeps
            print(
                f"[repro.runner] observer failed on {event} and was disabled:"
                f" {error!r}",
                file=sys.stderr,
            )
            self.observer = None

    def map(self, specs: Sequence[TaskSpec]) -> List[Any]:
        """Run every spec, returning results in spec order.

        When any cell raises, every *other* cell still runs to
        completion (and is stored to the cache) before the
        lowest-index failure is re-raised — ``stats`` is final at that
        point, so callers can inspect the salvage split.  A worker
        death fails every cell not completed by then.
        """
        started = time.perf_counter()
        specs = list(specs)
        results: List[Any] = [None] * len(specs)
        records: List[Optional[TaskRecord]] = [None] * len(specs)
        pending: List[int] = []
        hits = 0
        self._notify("sweep_started", len(specs), self.jobs)
        for index, spec in enumerate(specs):
            if self.cache is not None:
                hit, value = self.cache.lookup(spec)
                if hit:
                    results[index] = value
                    records[index] = TaskRecord(
                        index=index,
                        label=spec.describe(),
                        digest=spec.digest(),
                        cached=True,
                    )
                    hits += 1
                    self._notify("task_cached", index, spec)
                    continue
            pending.append(index)
            self._notify("task_queued", index, spec)

        failures: Dict[int, BaseException] = {}
        profile_dir = str(self.profile_dir) if self.profile_dir is not None else None
        store_failures = 0

        def complete(index: int, value: Any, seconds: float) -> None:
            nonlocal store_failures
            results[index] = value
            if self.cache is not None and not self.cache.store(specs[index], value):
                store_failures += 1
                reason = self.cache.last_store_error or "unknown cache failure"
                self._notify("cache_store_failed", index, specs[index], reason)
            records[index] = TaskRecord(
                index=index,
                label=specs[index].describe(),
                digest=specs[index].digest(),
                seconds=seconds,
            )
            self._notify("task_finished", index, specs[index], seconds)

        def fail(index: int, error: BaseException) -> None:
            failures[index] = error
            records[index] = TaskRecord(
                index=index,
                label=specs[index].describe(),
                digest=specs[index].digest(),
                error=repr(error),
            )
            self._notify("task_failed", index, specs[index], error)

        if pending:
            workers = min(self.jobs, len(pending))
            if workers == 1:
                self._run_serial(pending, specs, profile_dir, complete, fail)
            else:
                self._run_pool(workers, pending, specs, profile_dir, complete, fail)

        executed_ok = len(pending) - len(failures)
        self.stats = SweepStats(
            total=len(specs),
            cache_hits=hits,
            executed=len(pending),
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
            salvaged=executed_ok if failures else 0,
            failed=len(failures),
            cache_store_failures=store_failures,
            records=[record for record in records if record is not None],
        )
        self._notify("sweep_finished", self.stats)
        if failures:
            raise failures[min(failures)]
        return results

    # ------------------------------------------------------------------
    # execution engines
    # ------------------------------------------------------------------
    def _run_serial(self, pending, specs, profile_dir, complete, fail) -> None:
        """In-process execution, one cell after another."""
        for index in pending:
            self._notify("task_started", index, specs[index])
            try:
                value, seconds = _execute_task(specs[index], index, profile_dir)
            except Exception as error:  # noqa: BLE001 - salvage contract
                fail(index, error)
            else:
                complete(index, value, seconds)

    def _run_pool(self, workers, pending, specs, profile_dir, complete, fail) -> None:
        """One in-flight cell per worker, so ``task_started`` means
        "handed to a worker".  A dead worker breaks the pool: the cells
        in flight then fail as they resolve, and the cells never
        submitted fail with them."""
        # Imported here: the in-process path (``jobs=1``) never pays
        # for multiprocessing.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        def crashed(index: int) -> WorkerCrashError:
            return WorkerCrashError(
                f"a worker process died before task {specs[index].describe()!r}"
                " completed"
            )

        queue = deque(pending)
        inflight: Dict[Any, int] = {}
        broken = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while inflight or (queue and not broken):
                while queue and not broken and len(inflight) < workers:
                    index = queue.popleft()
                    try:
                        future = pool.submit(
                            _execute_task, specs[index], index, profile_dir
                        )
                    except BrokenProcessPool:
                        broken = True
                        queue.appendleft(index)
                        break
                    inflight[future] = index
                    self._notify("task_started", index, specs[index])
                if not inflight:
                    break
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    index = inflight.pop(future)
                    try:
                        value, seconds = future.result()
                    except BrokenProcessPool:
                        broken = True
                        fail(index, crashed(index))
                    except Exception as error:  # noqa: BLE001 - salvage contract
                        fail(index, error)
                    else:
                        complete(index, value, seconds)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        for index in queue:
            fail(index, crashed(index))
