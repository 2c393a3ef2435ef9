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
* **Salvage** — a raising (or dying) worker loses only its own cell.
  Every other pending cell still runs and is cached, and only then is
  the failure re-raised (the lowest-index one, so the surfaced error
  is deterministic at any ``jobs``).  ``stats.salvaged`` / ``stats.
  failed`` record the split.

On top of those, the **resilience layer** (docs/RESILIENCE.md) makes
the dispatch loop survive its own infrastructure:

* a :class:`~repro.runner.resilience.RetryPolicy` re-runs failed cells
  on a deterministic, digest-seeded backoff schedule — and because
  cells are pure functions of their spec, a retried-then-succeeded
  cell is bit-identical to a first-try run;
* ``task_timeout`` puts a wall-clock deadline on every in-flight cell:
  an overrunning worker is killed, the pool respawned, and the cell
  charged one attempt (innocent cells caught in the pool break are
  requeued for free);
* a spontaneously dying worker (SIGKILL, OOM) charges every in-flight
  cell one attempt (the break cannot be attributed) and the sweep
  continues on a fresh pool — the repeat offender exhausts its budget
  and is **quarantined**: recorded (spec digest, attempts, errors) as
  a :class:`~repro.runner.resilience.QuarantineRecord` under
  ``quarantine_dir`` instead of wedging the campaign.

``jobs=1`` executes in-process with no executor, keeping single-cell
debugging (pdb, print, profilers) trivial — unless ``task_timeout`` is
set, which needs a killable process boundary and therefore routes
through a one-worker pool.  An attached :class:`SweepObserver` sees
every task-lifecycle event (queued / started / cached / finished /
failed / retried / quarantined) — :mod:`repro.obs` builds the progress
line, heartbeat log and run manifests on top of it — and
``profile_dir`` makes every executed task dump a per-task cProfile
``.pstats`` capture there (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, TaskTimeoutError, WorkerCrashError
from repro.runner.cache import ResultCache
from repro.runner.resilience import QuarantineRecord, RetryPolicy
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
        """Spec ``index`` raised (or its worker died), permanently —
        its retry budget (if any) is spent."""

    def task_retried(
        self,
        index: int,
        spec: TaskSpec,
        attempt: int,
        delay: float,
        error: BaseException,
    ) -> None:
        """Spec ``index`` failed attempt ``attempt`` (1-based) with
        ``error`` and will re-run after ``delay`` seconds of backoff."""

    def task_quarantined(
        self, index: int, spec: TaskSpec, record: QuarantineRecord
    ) -> None:
        """Spec ``index`` was quarantined as a poison task (budget
        exhausted on timeouts/crashes); ``record`` is its report."""

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
    #: Executions this task consumed (1 on the happy path; retries and
    #: charged worker crashes add one each).
    attempts: int = 1
    #: True when the task was written off as poison (see
    #: :class:`~repro.runner.resilience.QuarantineRecord`).
    quarantined: bool = False


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
    #: Retry executions performed across all tasks (0 on a clean run).
    retried: int = 0
    #: Tasks written off as poison after exhausting their budget.
    quarantined: int = 0
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
    retry_policy:
        A :class:`~repro.runner.resilience.RetryPolicy`, or None (the
        default) to fail tasks on their first error — the historical
        behavior.
    task_timeout:
        Wall-clock seconds a single task execution may take before its
        worker is killed and the task charged one attempt.  None (the
        default) means no deadline.
    quarantine_dir:
        Directory that receives :class:`~repro.runner.resilience.
        QuarantineRecord` JSON files for poison tasks; None records
        quarantines in stats/observer events only.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    stats: SweepStats = field(default_factory=SweepStats)
    observer: Optional[SweepObserver] = None
    profile_dir: Optional[os.PathLike] = None
    retry_policy: Optional[RetryPolicy] = None
    task_timeout: Optional[float] = None
    quarantine_dir: Optional[os.PathLike] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be > 0 seconds, got {self.task_timeout}"
            )

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

        When any cell fails, every *other* cell still runs to
        completion (and is stored to the cache) before the
        lowest-index failure is re-raised — ``stats`` is final at that
        point, so callers can inspect the salvage split.
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
        policy = self.retry_policy or RetryPolicy(max_retries=0)
        #: Failed executions so far, per pending index.
        strikes: Dict[int, int] = {index: 0 for index in pending}
        error_log: Dict[int, List[str]] = {}
        counters = {"retried": 0, "quarantined": 0, "store_failures": 0}

        def complete(index: int, value: Any, seconds: float) -> None:
            results[index] = value
            if self.cache is not None and not self.cache.store(specs[index], value):
                counters["store_failures"] += 1
                reason = self.cache.last_store_error or "unknown cache failure"
                self._notify("cache_store_failed", index, specs[index], reason)
            records[index] = TaskRecord(
                index=index,
                label=specs[index].describe(),
                digest=specs[index].digest(),
                seconds=seconds,
                attempts=strikes[index] + 1,
            )
            self._notify("task_finished", index, specs[index], seconds)

        def fail(index: int, error: BaseException) -> None:
            """Permanent failure: budget spent (or none existed)."""
            failures[index] = error
            attempts = max(1, strikes[index])
            # Quarantine what poisoned *infrastructure* (killed workers,
            # blew deadlines) or burned a real retry budget; a plain
            # first-try exception with no policy stays a plain failure.
            quarantined = isinstance(
                error, (TaskTimeoutError, WorkerCrashError)
            ) or (policy.max_retries > 0 and attempts > policy.max_retries)
            if quarantined:
                counters["quarantined"] += 1
                record = QuarantineRecord(
                    digest=specs[index].digest(),
                    label=specs[index].describe(),
                    kind="task",
                    attempts=attempts,
                    reason=f"{type(error).__name__}: {error}",
                    errors=error_log.get(index, [repr(error)]),
                )
                if self.quarantine_dir is not None:
                    record.write(self.quarantine_dir)
                self._notify("task_quarantined", index, specs[index], record)
            records[index] = TaskRecord(
                index=index,
                label=specs[index].describe(),
                digest=specs[index].digest(),
                error=repr(error),
                attempts=attempts,
                quarantined=quarantined,
            )
            self._notify("task_failed", index, specs[index], error)

        def charge(index: int, error: BaseException) -> Optional[float]:
            """One failed execution for ``index``: returns the backoff
            delay when the task gets another try, or None after
            failing it permanently."""
            strikes[index] += 1
            error_log.setdefault(index, []).append(
                f"attempt {strikes[index]}: {error!r}"
            )
            if strikes[index] <= policy.max_retries:
                delay = policy.delay(specs[index].digest(), strikes[index])
                counters["retried"] += 1
                self._notify(
                    "task_retried", index, specs[index], strikes[index], delay, error
                )
                return delay
            fail(index, error)
            return None

        if pending:
            workers = min(self.jobs, len(pending))
            if workers <= 1 and self.task_timeout is None:
                self._run_serial(pending, specs, profile_dir, complete, charge)
            else:
                self._run_pool(
                    max(1, workers), pending, specs, profile_dir, complete, charge
                )

        executed_ok = len(pending) - len(failures)
        self.stats = SweepStats(
            total=len(specs),
            cache_hits=hits,
            executed=len(pending),
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
            salvaged=executed_ok if failures else 0,
            failed=len(failures),
            retried=counters["retried"],
            quarantined=counters["quarantined"],
            cache_store_failures=counters["store_failures"],
            records=[record for record in records if record is not None],
        )
        self._notify("sweep_finished", self.stats)
        if failures:
            raise failures[min(failures)]
        return results

    # ------------------------------------------------------------------
    # execution engines
    # ------------------------------------------------------------------
    def _run_serial(self, pending, specs, profile_dir, complete, charge) -> None:
        """In-process execution with in-process retries (no deadline —
        a hung task cannot be killed without a process boundary)."""
        for index in pending:
            while True:
                self._notify("task_started", index, specs[index])
                try:
                    value, seconds = _execute_task(specs[index], index, profile_dir)
                except Exception as error:  # noqa: BLE001 - salvage contract
                    delay = charge(index, error)
                    if delay is None:
                        break
                    time.sleep(delay)
                    continue
                complete(index, value, seconds)
                break

    def _run_pool(self, workers, pending, specs, profile_dir, complete, charge) -> None:
        """The resilient dispatch loop.

        Submission is throttled to one in-flight task per worker so
        submit time ≈ start time, which makes the wall-clock deadline
        honest (an upfront-submitted task would age in the executor
        queue and get killed before ever running).  The loop survives
        pool breaks — deadline kills it performed itself and
        spontaneous worker deaths alike — by draining the broken
        futures, (re)charging or requeueing their tasks, and respawning
        the pool.
        """
        # Imported here: the in-process path (``jobs=1``, no deadline)
        # never pays for multiprocessing.
        from concurrent.futures import (
            FIRST_COMPLETED,
            CancelledError,
            ProcessPoolExecutor,
            wait,
        )
        from concurrent.futures.process import BrokenProcessPool

        queue = deque(pending)
        #: Retries backing off: (monotonic not-before, index).
        waiting: List[Tuple[float, int]] = []
        #: In-flight: future -> (index, monotonic deadline or None).
        inflight: Dict[Any, Tuple[int, Optional[float]]] = {}
        #: Indices whose deadline expired; their pool break is a kill
        #: we initiated, so bystander tasks requeue without charge.
        timed_out: Set[int] = set()
        killed_for_timeout = False
        pool_broken = False
        pool = ProcessPoolExecutor(max_workers=workers)

        def kill_workers() -> None:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.kill()
                except (OSError, AttributeError):
                    pass

        def schedule(index: int, error: BaseException) -> None:
            delay = charge(index, error)
            if delay is not None:
                waiting.append((time.monotonic() + delay, index))

        try:
            while queue or waiting or inflight:
                now = time.monotonic()
                if waiting:
                    due = [entry for entry in waiting if entry[0] <= now]
                    if due:
                        waiting = [e for e in waiting if e[0] > now]
                        queue.extend(index for _, index in sorted(due))
                if pool_broken and not inflight:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=workers)
                    pool_broken = False
                    killed_for_timeout = False
                    timed_out.clear()
                while queue and len(inflight) < workers and not pool_broken:
                    index = queue.popleft()
                    deadline = (
                        now + self.task_timeout
                        if self.task_timeout is not None
                        else None
                    )
                    try:
                        future = pool.submit(
                            _execute_task, specs[index], index, profile_dir
                        )
                    except (BrokenProcessPool, RuntimeError):
                        pool_broken = True
                        queue.appendleft(index)
                        break
                    inflight[future] = (index, deadline)
                    self._notify("task_started", index, specs[index])
                if not inflight:
                    if waiting and not queue:
                        next_due = min(entry[0] for entry in waiting)
                        time.sleep(max(0.0, next_due - time.monotonic()) + 0.001)
                    continue
                ticks = [
                    deadline
                    for _, deadline in inflight.values()
                    if deadline is not None
                ]
                ticks.extend(entry[0] for entry in waiting)
                timeout = (
                    max(0.0, min(ticks) - time.monotonic()) + 0.005
                    if ticks
                    else None
                )
                done, _ = wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index, _ = inflight.pop(future)
                    try:
                        value, seconds = future.result()
                    except CancelledError:
                        queue.append(index)
                    except BrokenProcessPool:
                        pool_broken = True
                        if index in timed_out:
                            timed_out.discard(index)
                            schedule(
                                index,
                                TaskTimeoutError(
                                    f"task {specs[index].describe()!r} exceeded "
                                    f"the {self.task_timeout:g}s deadline and "
                                    "its worker was killed",
                                    digest=specs[index].digest(),
                                ),
                            )
                        elif killed_for_timeout:
                            # Bystander of a kill we initiated: innocent,
                            # requeue without consuming retry budget.
                            queue.append(index)
                        else:
                            # Spontaneous worker death: unattributable,
                            # charge every in-flight task one attempt.
                            schedule(
                                index,
                                WorkerCrashError(
                                    "worker process died while task "
                                    f"{specs[index].describe()!r} was in flight"
                                ),
                            )
                    except Exception as error:  # noqa: BLE001 - salvage contract
                        schedule(index, error)
                    else:
                        complete(index, value, seconds)
                if self.task_timeout is not None and not pool_broken:
                    now = time.monotonic()
                    overdue = [
                        index
                        for _, (index, deadline) in inflight.items()
                        if deadline is not None and now >= deadline
                    ]
                    if overdue:
                        timed_out.update(overdue)
                        killed_for_timeout = True
                        kill_workers()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
