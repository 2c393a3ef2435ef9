"""Engine watchdog: stall detection, event-storm guards, deadlines.

A chaos campaign must never *hang* — a permanent outage, a timer bug or
a runaway event loop has to end in a structured, inspectable abort.
The :class:`Watchdog` schedules itself on the simulator at a fixed
check interval and trips when any guard fires:

* **stall** — no flow made goodput progress (``snd_una`` advance) for
  ``stall_timeout`` simulated seconds while traffic is still owed;
* **event storm** — the engine fired more than ``max_events`` events,
  or more than ``max_event_rate`` events per simulated second since the
  previous tick (a self-rescheduling loop at one instant);
* **wall-clock deadline** — the host process spent more than
  ``max_wallclock`` real seconds inside the run.

Tripping does not raise: the watchdog calls
:meth:`~repro.sim.engine.Simulator.request_stop`, the run loop returns
before the next event, and a :class:`CrashReport` — simulation time,
the last trace records, a per-flow state snapshot and the stalled flow
ids — is left on ``watchdog.report`` for the harness to render.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Event, Simulator
from repro.sim.tracing import TraceBus, TraceRecord, TraceTail


@dataclass
class FlowSnapshot:
    """One sender's state at abort time."""

    flow_id: int
    variant: str
    snd_una: int
    snd_nxt: int
    maxseq: int
    cwnd: float
    ssthresh: float
    in_recovery: bool
    timeouts: int
    completed: bool
    stalled_for: float  # sim-seconds since last goodput progress

    def format(self) -> str:
        state = "done" if self.completed else ("recovery" if self.in_recovery else "open")
        return (
            f"flow {self.flow_id} ({self.variant}, {state}): "
            f"una={self.snd_una} nxt={self.snd_nxt} max={self.maxseq} "
            f"cwnd={self.cwnd:.2f} ssthresh={self.ssthresh:.2f} "
            f"rtos={self.timeouts} idle={self.stalled_for:.2f}s"
        )


@dataclass
class CrashReport:
    """Structured result of a watchdog abort.

    ``snapshot_digest`` / ``triage`` are attached after the fact by
    harnesses that freeze the crash point and bisect it (see
    :func:`repro.faults.triage.triage_crash`); they stay ``None`` for
    plain watchdog aborts.
    """

    reason: str                 # "stall" | "event-storm" | "event-rate" | "wallclock"
    message: str
    sim_time: float
    events_processed: int
    stalled_flows: List[int] = field(default_factory=list)
    flows: List[FlowSnapshot] = field(default_factory=list)
    last_events: List[TraceRecord] = field(default_factory=list)
    snapshot_digest: Optional[str] = None
    triage: Optional[object] = None   # repro.faults.triage.TriageResult

    def format(self) -> str:
        lines = [
            f"watchdog abort [{self.reason}] at t={self.sim_time:.3f}s "
            f"after {self.events_processed} events",
            f"  {self.message}",
        ]
        if self.stalled_flows:
            lines.append(f"  stalled flows: {self.stalled_flows}")
        for snapshot in self.flows:
            lines.append(f"  {snapshot.format()}")
        if self.last_events:
            lines.append(f"  last {len(self.last_events)} trace records:")
            for rec in self.last_events[-10:]:
                lines.append(
                    f"    t={rec.time:.6f} {rec.category:<20} {rec.source:<16} {rec.fields}"
                )
        if self.snapshot_digest is not None:
            lines.append(f"  crash snapshot: {self.snapshot_digest}")
        if self.triage is not None:
            lines.append("  " + self.triage.format().replace("\n", "\n  "))
        return "\n".join(lines)


class Watchdog:
    """Keeps one simulation run honest.

    Parameters
    ----------
    sim:
        The engine to guard.
    senders:
        Mapping flow id -> TCP sender; progress is ``snd_una`` advance
        (or completion).  May be empty, in which case only the event
        and wall-clock guards apply.
    stall_timeout:
        Simulated seconds without progress on any unfinished flow
        before the run is declared stalled.  Must comfortably exceed
        the maximum RTO back-off, or healthy timeout recovery reads as
        a stall.
    check_interval:
        Simulated seconds between watchdog ticks.
    max_events:
        Hard ceiling on total engine events for this run.
    max_event_rate:
        Ceiling on events per simulated second, measured between
        consecutive ticks (catches same-instant event storms).
    max_wallclock:
        Real seconds the run may take.
    trace / tail:
        Either a bus to capture a fresh tail from, or an existing
        :class:`TraceTail` (e.g. the invariant suite's) to share.  A
        fresh tail is subscribed by :meth:`arm` and removed again by
        :meth:`disarm` or a trip; a shared one is its owner's to feed.
    """

    def __init__(
        self,
        sim: Simulator,
        senders: Optional[Dict[int, object]] = None,
        stall_timeout: float = 60.0,
        check_interval: float = 1.0,
        max_events: Optional[int] = None,
        max_event_rate: Optional[float] = None,
        max_wallclock: Optional[float] = None,
        trace: Optional[TraceBus] = None,
        tail: Optional[TraceTail] = None,
    ):
        if stall_timeout <= 0:
            raise ConfigurationError("stall_timeout must be > 0")
        if check_interval <= 0:
            raise ConfigurationError("check_interval must be > 0")
        self._sim = sim
        self._senders = dict(senders or {})
        self.stall_timeout = stall_timeout
        self.check_interval = check_interval
        self.max_events = max_events
        self.max_event_rate = max_event_rate
        self.max_wallclock = max_wallclock
        self.tail = tail
        # The bus of a tail this watchdog created itself, else None.
        self._own_bus = trace if tail is None else None
        if self._own_bus is not None:
            self.tail = TraceTail(50)
        self.report: Optional[CrashReport] = None
        self.checks_performed = 0
        self._event: Optional[Event] = None
        self._armed = False
        self._wall_start = 0.0
        self._last_events_processed = 0
        self._last_tick_time = 0.0
        # flow id -> (last snd_una seen, sim time it advanced)
        self._progress: Dict[int, tuple] = {}

    #: :meth:`scaled` budget shape.  The paper's 8-node harnesses fire
    #: a few hundred thousand events; a healthy many-flow scene fires
    #: roughly 10-20 engine events per delivered packet, so the ceiling
    #: grants a generous per-flow-second allowance and a floor that
    #: keeps small scenes on the classic budget.
    SCALED_EVENTS_PER_FLOW_SECOND = 4000.0
    SCALED_MIN_EVENTS = 2_000_000
    SCALED_RATE_PER_FLOW = 20_000.0
    SCALED_MIN_RATE = 200_000.0

    @classmethod
    def scaled(
        cls,
        sim: Simulator,
        senders: Optional[Dict[int, object]],
        flows: int,
        duration: float,
        check_interval: Optional[float] = None,
        max_wallclock: Optional[float] = None,
        trace: Optional[TraceBus] = None,
        tail: Optional[TraceTail] = None,
    ) -> "Watchdog":
        """A watchdog whose budgets derive from scene size.

        The classic defaults are tuned for the paper's 8-node dumbbell
        and false-positive on thousand-flow scenes: a fair thousand-way
        share legitimately starves individual flows for minutes, and a
        big scene fires tens of millions of healthy events.  Budgets
        here scale with ``flows * duration`` (floored at the classic
        values, so small scenes keep the old guarantees); existing
        harnesses calling the constructor directly are unaffected.
        """
        flows = max(1, int(flows))
        duration = max(1.0, float(duration))
        return cls(
            sim,
            senders,
            # A flow's fair share shrinks ~1/N; only call it stalled
            # after a full scene duration without a single ACK advance.
            stall_timeout=max(60.0, duration),
            check_interval=check_interval or max(1.0, duration / 20.0),
            max_events=max(
                cls.SCALED_MIN_EVENTS,
                int(cls.SCALED_EVENTS_PER_FLOW_SECOND * flows * duration),
            ),
            max_event_rate=max(
                cls.SCALED_MIN_RATE, cls.SCALED_RATE_PER_FLOW * flows
            ),
            max_wallclock=max_wallclock,
            trace=trace,
            tail=tail,
        )

    @property
    def triggered(self) -> bool:
        return self.report is not None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def arm(self) -> "Watchdog":
        """Start guarding: baseline the progress markers and schedule
        the first tick."""
        if self._armed:
            return self
        self._armed = True
        self._wall_start = _time.monotonic()
        self._last_events_processed = self._sim.events_processed
        self._last_tick_time = self._sim.now
        now = self._sim.now
        for flow_id, sender in self._senders.items():
            self._progress[flow_id] = (sender.snd_una, now)
        if self._own_bus is not None:
            self.tail.install(self._own_bus)
        self._event = self._sim.schedule(self.check_interval, self._tick)
        return self

    def disarm(self) -> None:
        """Stop guarding: the pending tick is cancelled and a tail the
        watchdog created itself stops capturing (its records stay)."""
        self._armed = False
        if self._own_bus is not None:
            self.tail.uninstall()
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._event = None
        if not self._armed:
            return
        self.checks_performed += 1
        now = self._sim.now

        # Event-count / event-rate guards.
        processed = self._sim.events_processed
        if self.max_events is not None and processed > self.max_events:
            self._trip(
                "event-storm",
                f"{processed} events fired, ceiling is {self.max_events}",
            )
            return
        if self.max_event_rate is not None:
            elapsed = max(now - self._last_tick_time, 1e-12)
            rate = (processed - self._last_events_processed) / elapsed
            if rate > self.max_event_rate:
                self._trip(
                    "event-rate",
                    f"{rate:.0f} events/sim-second since the last tick, "
                    f"ceiling is {self.max_event_rate:.0f}",
                )
                return
        self._last_events_processed = processed
        self._last_tick_time = now

        # Wall-clock deadline.
        if self.max_wallclock is not None:
            wall = _time.monotonic() - self._wall_start
            if wall > self.max_wallclock:
                self._trip(
                    "wallclock",
                    f"run exceeded the {self.max_wallclock:.1f}s wall-clock budget",
                )
                return

        # Stall detection: any unfinished flow with no snd_una advance
        # for stall_timeout sim-seconds.
        stalled: List[int] = []
        for flow_id, sender in self._senders.items():
            if sender.completed or not sender.started:
                self._progress[flow_id] = (sender.snd_una, now)
                continue
            last_una, last_time = self._progress.get(flow_id, (sender.snd_una, now))
            if sender.snd_una > last_una:
                self._progress[flow_id] = (sender.snd_una, now)
            elif now - last_time > self.stall_timeout:
                stalled.append(flow_id)
        if stalled:
            self._trip(
                "stall",
                f"no goodput progress for > {self.stall_timeout:.1f} sim-seconds "
                f"on flow(s) {stalled}",
                stalled_flows=stalled,
            )
            return

        self._event = self._sim.schedule(self.check_interval, self._tick)

    # ------------------------------------------------------------------
    # abort
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # checkpoint / restore (pickle protocol)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Everything except the wall-clock baseline, which is only
        meaningful inside the process that called :func:`time.monotonic`."""
        state = {k: v for k, v in self.__dict__.items() if k != "_wall_start"}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Re-baseline: a restored run gets a fresh wall-clock budget.
        self._wall_start = _time.monotonic()

    def _stalled_for(self, flow_id: int) -> float:
        last = self._progress.get(flow_id)
        return self._sim.now - last[1] if last else 0.0

    def snapshot(self) -> List[FlowSnapshot]:
        """Per-flow sender state, for the crash report."""
        snapshots = []
        for flow_id, sender in sorted(self._senders.items()):
            snapshots.append(
                FlowSnapshot(
                    flow_id=flow_id,
                    variant=getattr(sender, "variant", "?"),
                    snd_una=sender.snd_una,
                    snd_nxt=sender.snd_nxt,
                    maxseq=sender.maxseq,
                    cwnd=sender.cwnd,
                    ssthresh=sender.ssthresh,
                    in_recovery=sender.in_recovery,
                    timeouts=sender.timeouts,
                    completed=sender.completed,
                    stalled_for=self._stalled_for(flow_id),
                )
            )
        return snapshots

    def _trip(self, reason: str, message: str, stalled_flows: Optional[List[int]] = None) -> None:
        self.report = CrashReport(
            reason=reason,
            message=message,
            sim_time=self._sim.now,
            events_processed=self._sim.events_processed,
            stalled_flows=list(stalled_flows or []),
            flows=self.snapshot(),
            last_events=self.tail.records() if self.tail is not None else [],
        )
        self.disarm()
        self._sim.request_stop(f"watchdog: {reason}")
