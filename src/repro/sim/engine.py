"""Heap-based discrete-event simulation engine.

The engine is deliberately minimal and deterministic:

* Events scheduled for the same instant fire in the order they were
  scheduled (FIFO tie-break via a monotonically increasing serial number).
* Events are cancellable; cancellation is O(1) (lazy deletion), and the
  pending-event count is maintained incrementally so callers can poll it
  cheaply (watchdogs do, every tick).  Lazily-deleted entries cannot
  accumulate without bound: once cancelled entries outnumber live ones
  (past a small floor) the heap is compacted in place, so cancel-heavy
  workloads — a TCP timer restarted on every ACK — keep ``len(heap)``
  proportional to the *live* event count.
* The engine is checkpointable: ``__getstate__``/``__setstate__``
  serialize the clock, serial counter and the *pending* events only
  (cancelled entries are dropped, the heap is stored in sorted order),
  so pickling a simulator mid-scenario and unpickling it elsewhere
  continues bit-identically.  See :mod:`repro.snapshot`.
* The engine never advances time backwards and refuses to schedule into
  the past, so component code can rely on causality.  Tiny negative
  delays produced by floating-point round-off (``schedule_at(now + x)``
  after many accumulated additions) are clamped to zero instead of
  raising.
* A callback that blows up is wrapped in :class:`~repro.errors.
  CallbackError` carrying the clock and the offending event;
  repro-native exceptions (invariant violations, protocol errors)
  propagate unchanged but get a ``sim_context`` attribute attached.
* Cooperative interruption: :meth:`Simulator.request_stop` makes a
  running :meth:`Simulator.run` return before the next event — the
  mechanism the watchdog uses to abort gracefully instead of hanging.

Performance architecture
------------------------
Two interchangeable dispatch backends sit behind the one ``Simulator``
class:

* the **pure-python** backend (always available) keeps the heap as a
  list of ``(time, serial, event)`` tuples and runs an inlined dispatch
  loop in :meth:`Simulator.run`;
* the optional **compiled** backend (``repro.sim._engine_core``, a C
  extension built via ``pip install .[compiled]`` or ``python setup.py
  build_ext --inplace``) keeps the heap as a C array and runs the
  dispatch loop in C.  Events stay ordinary Python :class:`Event`
  objects in both backends, so pickles, golden digests and snapshots
  are bit-identical across backends and an extension-less host falls
  back cleanly.  Set ``REPRO_PURE_PYTHON=1`` to force the fallback even
  when the extension is importable; ``CORE_BACKEND`` reports the choice.

Fired and cancelled events are recycled through a per-simulator free
list when (and only when) an exact reference-count check proves nothing
outside the engine still holds them, so steady-state event churn
allocates nothing.  The free list is engine-internal derived state: it
is never pickled and :meth:`Simulator.drain_event_pool` empties it
before snapshot capture.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1.0, lambda: fired.append("a"))
>>> _ = sim.schedule(0.5, lambda: fired.append("b"))
>>> sim.run()
>>> fired
['b', 'a']
"""

from __future__ import annotations

import heapq
import itertools
import operator
import os
import sys
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import CallbackError, ReproError, SchedulingError, SimulationError

#: Negative delays no larger than this are treated as floating-point
#: round-off from repeated ``now + delay`` arithmetic and clamped to 0.
NEGATIVE_DELAY_EPSILON = 1e-9

#: Below this heap size, compaction is never triggered: rebuilding a
#: tiny heap every few cancels would cost more than the lazy entries.
HEAP_COMPACT_MIN = 64

# ----------------------------------------------------------------------
# compiled-core selection (import time, per process)
# ----------------------------------------------------------------------
_CoreType = None
if os.environ.get("REPRO_PURE_PYTHON", "").strip() in ("", "0"):
    try:  # pragma: no cover - exercised by the compiled-core CI leg
        from repro.sim import _engine_core as _engine_core_module

        _CoreType = _engine_core_module.Core
    except ImportError:
        _CoreType = None

#: Which dispatch backend new simulators use: ``"compiled"`` when the
#: optional C extension imported, else ``"python"``.
CORE_BACKEND = "python" if _CoreType is None else "compiled"


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code only
    needs :meth:`cancel` and the read-only properties.
    """

    __slots__ = ("time", "serial", "fn", "args", "_cancelled", "_fired", "_sim")

    def __init__(
        self,
        time: float,
        serial: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.serial = serial
        self.fn = fn
        self.args = args
        self._cancelled = False
        self._fired = False
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the event's callback has run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; cancelling an
        already-fired event is a no-op."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        # Kept for user-code sorting convenience; the engine's heap
        # orders (time, serial, event) key tuples instead, so this is
        # no longer on the hot path.
        return (self.time, self.serial) < (other.time, other.serial)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"Event(t={self.time:.6f}, serial={self.serial}, {state})"


if _CoreType is not None:
    # Hand the compiled core the Event class and its slot offsets so the
    # C dispatch loop reads/writes event fields with direct memory
    # access.  Any surprise in the class layout demotes us to the pure
    # backend instead of risking memory-unsafe offsets.
    try:  # pragma: no cover - exercised by the compiled-core CI leg
        _engine_core_module.register_event_type(Event)
    except Exception:
        _CoreType = None
        CORE_BACKEND = "python"


class _Clock:
    """The pure backend's clock: the slot its loop writes, ``now`` reads."""

    __slots__ = ("now",)

    def __init__(self, now: float):
        self.now = now


class Simulator:
    """A discrete-event simulator with deterministic ordering.

    Parameters
    ----------
    start_time:
        Initial simulation clock value (seconds).  Defaults to 0.
    """

    def __init__(self, start_time: float = 0.0):
        # Free list of recycled Event objects, shared with the compiled
        # core when active.  Derived state: never pickled (the custom
        # __getstate__ below simply omits it).
        self._event_free: List[Event] = []
        self._running = False
        self._stop_reason: Optional[str] = None
        if _CoreType is not None:
            core = _CoreType(float(start_time))
            core.set_free_list(self._event_free)
            self._bind_core(core)
        else:
            self._core = None
            self._clock = _Clock(float(start_time))
            # Heap entries are (time, serial, event): comparisons during
            # sift run entirely in C on the leading floats/ints and only
            # ever reach the first two slots (serials are unique), so
            # Event.__lt__ and its tuple allocations stay off the hot loop.
            self._heap: List[Tuple[float, int, Event]] = []
            self._serial = itertools.count()
            self._events_processed = 0
            self._pending = 0
            self._cancelled_count = 0
            self._stop_requested = False

    def _bind_core(self, core) -> None:
        self._core = core
        # The core doubles as the clock; Event.cancel calls its C
        # bookkeeping directly (shadowing the pure backend's method below).
        self._clock = core
        self._note_cancelled = core.note_cancelled

    # A C getter over the per-instance clock (the core, or the pure
    # backend's _Clock): reading the time runs no Python frame.
    now = property(operator.attrgetter("_clock.now"), doc="Current time in seconds.")

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        core = self._core
        return self._events_processed if core is None else core.events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire.

        Maintained incrementally on schedule/cancel/fire, so reading it
        is O(1) — safe to poll from per-tick monitors.
        """
        core = self._core
        return self._pending if core is None else core.pending

    @property
    def cancelled_in_heap(self) -> int:
        """Number of lazily-deleted (cancelled) entries still in the
        heap — observability for compaction behaviour."""
        core = self._core
        return self._cancelled_count if core is None else core.cancelled

    # Backwards-compatible private alias (tests and older tooling).
    _cancelled_in_heap = cancelled_in_heap

    @property
    def stop_requested(self) -> bool:
        """True after :meth:`request_stop` until the next :meth:`run`."""
        core = self._core
        return self._stop_requested if core is None else bool(core.stop_requested)

    @property
    def stop_reason(self) -> Optional[str]:
        """The reason passed to the most recent :meth:`request_stop`."""
        return self._stop_reason

    def request_stop(self, reason: str = "") -> None:
        """Ask a running :meth:`run` loop to return before firing the
        next event.  Callable from inside event callbacks (that is the
        point); a no-op outside ``run`` beyond recording the reason."""
        self._stop_reason = reason or None
        core = self._core
        if core is None:
            self._stop_requested = True
        else:
            core.stop_requested = True

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled before it
        fires.  Raises :class:`SchedulingError` for negative delays;
        delays within ``NEGATIVE_DELAY_EPSILON`` of zero are treated as
        floating-point round-off and clamped to 0.
        """
        if delay < 0:
            if delay >= -NEGATIVE_DELAY_EPSILON:
                delay = 0.0
            else:
                raise SchedulingError(f"cannot schedule into the past (delay={delay})")
        core = self._core
        if core is not None:
            # The entire fast path — serial, event reuse/allocation,
            # slot fill, heap push — happens inside the core.
            return core.schedule(delay, fn, args, self)
        time = self._clock.now + delay
        serial = next(self._serial)
        free = self._event_free
        if free:
            event = free.pop()
            event.time = time
            event.serial = serial
            event.fn = fn
            event.args = args
            event._cancelled = False
            event._fired = False
            event._sim = self
        else:
            event = Event(time, serial, fn, args, sim=self)
        heapq.heappush(self._heap, (time, serial, event))
        self._pending += 1
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        return self.schedule(time - self.now, fn, *args)

    def schedule_abs(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule at an *exact* absolute timestamp.

        Unlike :meth:`schedule_at` (which round-trips through a delay
        and re-adds it to ``now``), the event fires at float-identical
        ``time`` — what callers amortizing several hops into one event
        need to reproduce a chained schedule's timestamps bit-exactly.
        Raises :class:`SchedulingError` for a ``time`` before ``now``;
        one within ``NEGATIVE_DELAY_EPSILON`` of it is clamped to
        ``now``, like a round-off negative delay.
        """
        core = self._core
        if core is not None:
            # Past-time check, clamp and the whole fast path live in
            # the core, which has the clock at hand.
            return core.schedule_abs(time, fn, args, self)
        now = self._clock.now
        if time < now:
            if time >= now - NEGATIVE_DELAY_EPSILON:
                time = now
            else:
                raise SchedulingError(
                    f"cannot schedule into the past (time={time}, now={now})"
                )
        serial = next(self._serial)
        free = self._event_free
        if free:
            event = free.pop()
            event.time = time
            event.serial = serial
            event.fn = fn
            event.args = args
            event._cancelled = False
            event._fired = False
            event._sim = self
        else:
            event = Event(time, serial, fn, args, sim=self)
        heapq.heappush(self._heap, (time, serial, event))
        self._pending += 1
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        core = self._core
        if core is not None:
            return core.peek_time()
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def heap_entries(self) -> List[Tuple[float, int, Event]]:
        """Every heap entry, cancelled ones included, as the (time,
        serial, event) tuples the pure heap stores, in array order."""
        core = self._core
        return list(self._heap) if core is None else core.entries()

    def drain_event_pool(self) -> int:
        """Empty the event free list (snapshot-capture hygiene hook).
        Returns the number of pooled events discarded."""
        drained = len(self._event_free)
        self._event_free.clear()
        return drained

    def _note_cancelled(self) -> None:
        """Bookkeeping for a lazily-deleted heap entry (called by
        :meth:`Event.cancel`; the pure backend's, see :meth:`_bind_core`):
        keep the pending count exact, and compact the heap once cancelled
        entries outnumber live ones."""
        self._pending -= 1
        self._cancelled_count += 1
        if (
            self._cancelled_count > HEAP_COMPACT_MIN
            and self._cancelled_count * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Filtering preserves relative order of the survivors well enough
        for :func:`heapq.heapify` to restore the invariant; pop order is
        unchanged because (time, serial) keys are unique.  Dead events
        that nothing else holds are recycled into the free list.
        """
        old = self._heap
        self._heap = live = []
        free = self._event_free
        getrefcount = sys.getrefcount
        for entry in old:
            event = entry[2]
            if event._cancelled:
                # Clean chain here: the old heap's entry tuple + our
                # local + getrefcount's temporary.
                if getrefcount(event) == 3:
                    event.fn = None
                    event.args = None
                    free.append(event)
            else:
                live.append(entry)
        heapq.heapify(live)
        self._cancelled_count = 0

    def _drop_cancelled(self) -> None:
        heap = self._heap
        free = self._event_free
        getrefcount = sys.getrefcount
        while heap and heap[0][2]._cancelled:
            event = heapq.heappop(heap)[2]
            self._cancelled_count -= 1
            # Clean chain: our local + getrefcount's temporary (the
            # popped heap tuple is already gone).
            if getrefcount(event) == 2:
                event.fn = None
                event.args = None
                free.append(event)

    def _sim_context(self, event: Event) -> dict:
        return {
            "sim_time": self.now,
            "event": repr(event),
            "events_processed": self.events_processed,
        }

    def _callback_error(self, exc: BaseException, event: Event) -> CallbackError:
        return CallbackError(
            f"event callback failed at t={self.now:.6f}: "
            f"{type(exc).__name__}: {exc} (event={event!r})",
            sim_time=self.now,
            event=event,
        )

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns True if an event fired, False if the queue was empty.
        A callback that raises a non-repro exception is wrapped in
        :class:`CallbackError` (original chained as ``__cause__``);
        repro-native errors propagate as-is with a ``sim_context``
        attribute describing the clock and event.
        """
        core = self._core
        if core is not None:
            try:
                return bool(core.step1())
            except ReproError as exc:
                if getattr(exc, "sim_context", None) is None:
                    exc.sim_context = self._sim_context(core.take_current_event())
                raise
            except Exception as exc:
                raise self._callback_error(exc, core.take_current_event()) from exc
        self._drop_cancelled()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)[2]
        if event.time < self.now:  # pragma: no cover - defensive
            raise SimulationError(
                f"event time {event.time} precedes clock {self.now}"
            )
        self._clock.now = event.time
        event._fired = True
        self._pending -= 1
        self._events_processed += 1
        try:
            event.fn(*event.args)
        except ReproError as exc:
            if getattr(exc, "sim_context", None) is None:
                exc.sim_context = self._sim_context(event)
            raise
        except Exception as exc:
            raise self._callback_error(exc, event) from exc
        # Recycle unless someone outside the engine still holds the
        # event (clean chain: our local + getrefcount's temporary).
        if sys.getrefcount(event) == 2:
            event.fn = None
            event.args = None
            self._event_free.append(event)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains, ``until`` is reached,
        ``max_events`` have fired, or a stop is requested.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if no event lands on it, so back-to-back ``run``
        calls resume cleanly.  The advance also happens when
        ``max_events`` (or a stop request) ended the run *after* the
        queue drained below ``until``; it is skipped only while events
        remain at or before ``until``, which would otherwise be jumped
        over.  Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stop_reason = None
        core = self._core
        fired = 0
        interrupted = False  # stopped with events possibly still due
        try:
            if core is not None:
                core.stop_requested = False
                try:
                    fired, interrupted = core.run(until, max_events)
                except ReproError as exc:
                    if getattr(exc, "sim_context", None) is None:
                        exc.sim_context = self._sim_context(core.take_current_event())
                    raise
                except Exception as exc:
                    raise self._callback_error(exc, core.take_current_event()) from exc
            else:
                self._stop_requested = False
                # Inlined dispatch loop: one bytecode loop per event
                # instead of a run->step call pair, with hoisted
                # builtins.  Semantics (stop/max_events/until ordering,
                # exception wrapping, end-clock advance) are identical
                # to step() — the engine test suite pins them.
                heappop = heapq.heappop
                getrefcount = sys.getrefcount
                free = self._event_free
                clock = self._clock
                while True:
                    if self._stop_requested or (
                        max_events is not None and fired >= max_events
                    ):
                        interrupted = True
                        break
                    heap = self._heap  # re-read: compaction/clear rebind it
                    while heap and heap[0][2]._cancelled:
                        event = heappop(heap)[2]
                        self._cancelled_count -= 1
                        if getrefcount(event) == 2:
                            event.fn = None
                            event.args = None
                            free.append(event)
                    if not heap:
                        break
                    etime = heap[0][0]
                    if until is not None and etime > until:
                        break
                    event = heappop(heap)[2]
                    clock.now = etime
                    event._fired = True
                    self._pending -= 1
                    self._events_processed += 1
                    try:
                        event.fn(*event.args)
                    except ReproError as exc:
                        if getattr(exc, "sim_context", None) is None:
                            exc.sim_context = self._sim_context(event)
                        raise
                    except Exception as exc:
                        raise self._callback_error(exc, event) from exc
                    if getrefcount(event) == 2:
                        event.fn = None
                        event.args = None
                        free.append(event)
                    fired += 1
        finally:
            self._running = False
        if until is not None and until > self.now:
            if core is not None:
                head = core.peek_time()
                if not (interrupted and head is not None and head <= until):
                    core.now = until
            else:
                self._drop_cancelled()
                if not (interrupted and self._heap and self._heap[0][0] <= until):
                    self._clock.now = until
        return fired

    def clear(self) -> None:
        """Drop all pending events (they are marked cancelled)."""
        core = self._core
        if core is not None:
            entries = core.entries()
            core.reset_heap()
            for _, _, event in entries:
                if not (event._cancelled or event._fired):
                    event._cancelled = True
            return
        # Detach the heap first: Event.cancel may trigger a compaction
        # that would rebuild the list being iterated.
        heap, self._heap = self._heap, []
        self._cancelled_count = 0
        for _, _, event in heap:
            event.cancel()
        # The cancels above counted against the (empty) new heap; the
        # entries they refer to are already gone.
        self._cancelled_count = 0

    # ------------------------------------------------------------------
    # checkpoint / restore (pickle protocol)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Canonical, restorable engine state.

        Cancelled entries are dropped and the pending heap is stored
        fully sorted, so two engines whose observable behavior is
        identical pickle identically regardless of incidental heap
        array layout (compaction history, pop order) — and regardless
        of dispatch backend: the compiled core reconstructs the same
        (time, serial, event) tuples the pure heap stores.  A sorted
        list is itself a valid min-heap, so ``__setstate__`` can use it
        as-is.
        """
        if self._running:
            raise SimulationError("cannot pickle a Simulator while it is running")
        core = self._core
        if core is not None:
            pending = [
                entry for entry in core.entries() if not entry[2]._cancelled
            ]
            pending.sort(key=lambda entry: (entry[0], entry[1]))
            return {
                "now": core.now,
                "serial_next": core.serial_next,
                "heap": pending,
                "events_processed": core.events_processed,
                "stop_requested": bool(core.stop_requested),
                "stop_reason": self._stop_reason,
            }
        pending = sorted(
            (entry for entry in self._heap if not entry[2]._cancelled),
            key=lambda entry: (entry[0], entry[1]),
        )
        return {
            "now": self._clock.now,
            "serial_next": self._serial.__reduce__()[1][0],
            "heap": pending,
            "events_processed": self._events_processed,
            "stop_requested": self._stop_requested,
            "stop_reason": self._stop_reason,
        }

    def __setstate__(self, state) -> None:
        self._event_free = []
        self._running = False
        self._stop_reason = state["stop_reason"]
        if _CoreType is not None:
            core = _CoreType(state["now"])
            core.set_free_list(self._event_free)
            core.serial_next = state["serial_next"]
            core.events_processed = state["events_processed"]
            core.stop_requested = state["stop_requested"]
            for time, serial, event in state["heap"]:
                core.push(time, serial, event)
            self._bind_core(core)
        else:
            self._core = None
            self._clock = _Clock(state["now"])
            self._heap = list(state["heap"])  # sorted => valid min-heap
            self._serial = itertools.count(state["serial_next"])
            self._events_processed = state["events_processed"]
            self._pending = len(self._heap)
            self._cancelled_count = 0
            self._stop_requested = state["stop_requested"]
        # Unpickled events carry their own _sim reference via the heap
        # entries; nothing else to rewire.
