"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """An inconsistency detected by the discrete-event engine."""


class SchedulingError(SimulationError):
    """An event was scheduled into the past or re-used after firing."""


class CallbackError(SimulationError):
    """An event callback raised a non-repro exception.

    The engine wraps such exceptions so the failure carries simulation
    context (the clock and the offending event) instead of surfacing as
    a bare traceback from deep inside the event loop.  The original
    exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, sim_time: float = 0.0, event: object = None):
        super().__init__(message)
        self.sim_time = sim_time
        self.event = event


class InvariantViolation(ReproError):
    """An online invariant checker caught the simulator lying to itself.

    Raised by :mod:`repro.sim.invariants` subscribers while the run is
    in progress, with the offending trace record and the recent trace
    tail attached for post-mortem inspection.
    """

    def __init__(
        self,
        message: str,
        invariant: str = "",
        record: object = None,
        tail: object = (),
    ):
        super().__init__(message)
        self.invariant = invariant
        self.record = record
        self.tail = list(tail)

    def format_tail(self) -> str:
        """Render the attached trace tail, one record per line."""
        lines = [f"trace tail ({len(self.tail)} records, oldest first):"]
        for rec in self.tail:
            lines.append(
                f"  t={rec.time:.6f} {rec.category:<20} {rec.source:<16} {rec.fields}"
            )
        return "\n".join(lines)


class ConfigurationError(ReproError):
    """Invalid configuration passed to a component."""


class TaskTimeoutError(ReproError):
    """A sweep task overran its wall-clock deadline and was killed.

    Raised (as the task's failure) by the
    :class:`~repro.runner.pool.SweepRunner` dispatch loop when a cell
    runs past ``task_timeout``: the worker is killed, the pool is
    respawned, and the cell is retried under the runner's
    :class:`~repro.runner.resilience.RetryPolicy` until its budget is
    exhausted — at which point it is quarantined and this error
    surfaces as the sweep failure.
    """

    def __init__(self, message: str, digest: str = "", attempts: int = 0):
        super().__init__(message)
        self.digest = digest
        self.attempts = attempts


class WorkerCrashError(ReproError):
    """A worker process died (SIGKILL, ``os._exit``, OOM-kill) while
    tasks were in flight.

    The dispatch loop cannot attribute a spontaneous pool break to one
    specific cell, so every in-flight cell is charged one attempt and
    retried on a fresh pool; the repeat offender exhausts its budget
    and is quarantined while innocent bystanders complete normally.
    """


class TopologyError(ReproError):
    """A topology/routing problem: unknown node, unreachable destination."""


class ProtocolError(ReproError):
    """A TCP state-machine invariant was violated (indicates a bug)."""


class SnapshotError(ReproError):
    """A simulation checkpoint could not be captured or restored.

    Raised by :mod:`repro.snapshot` — e.g. capturing while the engine
    is inside :meth:`~repro.sim.engine.Simulator.run`, loading a file
    with a mismatched format version, or a payload whose recomputed
    state digest disagrees with the recorded one.
    """


class SnapshotFormatError(SnapshotError):
    """A snapshot file carries a format this build cannot read.

    Distinguished from plain :class:`SnapshotError` so store-level
    policy can tell *foreign* (written by a build with a different
    ``SNAPSHOT_FORMAT`` — valid, just not for us; leave the file alone
    and, for a warm grid cell, run its prefix cold) from *corrupt*
    (truncated/bit-flipped — quarantine it).  See
    :meth:`repro.runner.warmstart.SnapshotStore.get` and the ``fsck``
    command.
    """
