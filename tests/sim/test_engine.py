"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import NEGATIVE_DELAY_EPSILON, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_simultaneous_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(3.5)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(4.0)]

    def test_schedule_from_within_event(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [pytest.approx(t) for t in (1.0, 2.0, 3.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_pending_flags(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert event.pending and not event.fired
        sim.run()
        assert event.fired and not event.pending

    def test_clear_cancels_everything(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0 + i, fired.append, i)
        sim.clear()
        sim.run()
        assert fired == []


class TestRun:
    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 2)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == pytest.approx(2.0)

    def test_run_until_resumes_cleanly(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 2)
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == [1, 2]

    def test_run_advances_clock_to_until_with_no_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == pytest.approx(7.0)

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0 + i, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_step_fires_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_pending_events_counter(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        event.cancel()
        assert sim.pending_events == 1

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(3.0, lambda: None)
        assert sim.peek_time() == pytest.approx(3.0)


@pytest.fixture(params=["python", "compiled"])
def backend_sim(request, monkeypatch):
    """A fresh simulator on each dispatch backend (the compiled leg
    skips on a build without the C extension)."""
    from repro.sim import engine

    if request.param == "python":
        monkeypatch.setattr(engine, "_CoreType", None)
    elif engine._CoreType is None:
        pytest.skip("compiled event core not built")
    return Simulator()


class TestScheduleAbs:
    def test_fires_at_the_exact_timestamp(self, backend_sim):
        """``schedule_at`` round-trips through ``now + (t - now)`` and
        lands one ulp off; ``schedule_abs`` must not."""
        sim = backend_sim
        sim.schedule(0.3, lambda: None)
        sim.run()
        assert sim.now + (0.9 - sim.now) != 0.9  # the round trip drifts here
        times = []
        sim.schedule_abs(0.9, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.9]

    def test_same_instant_events_fire_in_scheduling_order(self, backend_sim):
        sim = backend_sim
        fired = []
        sim.schedule_abs(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        sim.schedule_abs(1.0, fired.append, "c")
        sim.schedule_abs(0.5, fired.append, "first")
        sim.run()
        assert fired == ["first", "a", "b", "c"]

    def test_past_is_rejected_but_roundoff_clamps_to_now(self, backend_sim):
        sim = backend_sim
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_abs(1.0, lambda: None)
        times = []
        sim.schedule_abs(2.0 - 5e-13, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.0]

    @pytest.mark.parametrize("time, shown", [(1.0, "1.0"), (1, "1"), (2.0 - 2e-9, "1.999999998")])
    def test_past_time_error_is_the_same_on_both_backends(self, backend_sim, time, shown):
        """The compiled core validates in C; message, exception type and
        side effects (none) must match the pure path's."""
        sim = backend_sim
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError) as caught:
            sim.schedule_abs(time, lambda: None)
        assert str(caught.value) == (
            f"cannot schedule into the past (time={shown}, now=2.0)"
        )
        assert sim.pending_events == 0
        # The refused call minted no serial: the next event gets the
        # one right after the event that advanced the clock.
        assert sim.schedule_abs(3.0, lambda: None).serial == 1

    def test_clamp_covers_exactly_the_roundoff_epsilon(self, backend_sim):
        sim = backend_sim
        sim.schedule(2.0, lambda: None)
        sim.run()
        edge = 2.0 - NEGATIVE_DELAY_EPSILON
        assert sim.schedule_abs(edge, lambda: None).time == 2.0
        with pytest.raises(SchedulingError):
            sim.schedule_abs(math.nextafter(edge, 0.0), lambda: None)
        # At or after the clock nothing is touched.
        assert sim.schedule_abs(2.0, lambda: None).time == 2.0
        assert sim.schedule_abs(2.5, lambda: None).time == 2.5


class TestClock:
    """``Simulator.now`` reads a per-instance clock holder (the core, or
    the pure loop's one-slot object) through a C getter."""

    def test_after_schedule_and_run(self, backend_sim):
        sim = backend_sim
        seen = []
        sim.schedule(1.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.25]
        assert sim.now == 1.25

    def test_after_run_until_past_the_last_event(self, backend_sim):
        sim = backend_sim
        sim.schedule(1.0, lambda: None)
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_after_clear(self, backend_sim):
        sim = backend_sim
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(5.0, lambda: None)
        sim.clear()
        assert sim.now == 1.0
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_after_a_pickle_round_trip(self, backend_sim):
        import pickle

        sim = backend_sim
        sim.schedule(2.5, lambda: None)
        sim.run()
        sim.schedule(1.0, print)
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.now == 2.5
        clone.clear()
        clone.run(until=4.0)
        assert clone.now == 4.0
        assert sim.now == 2.5  # the holders are not shared

    def test_start_time(self, backend_sim):
        assert type(backend_sim)(start_time=3.0).now == 3.0

    def test_is_read_only(self, backend_sim):
        with pytest.raises(AttributeError):
            backend_sim.now = 1.0

    def test_reading_runs_no_python_frame(self, backend_sim):
        import sys

        sim = backend_sim
        sim.schedule(1.0, lambda: None)
        sim.run()
        calls = []

        def probe(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(probe)
        try:
            now = sim.now
        finally:
            sys.setprofile(None)
        assert now == 1.0
        assert calls == []


class TestNegativeDelayClamp:
    def test_float_epsilon_delay_clamps_to_now(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule(-1e-12, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 10.0

    def test_schedule_at_accumulated_roundoff(self):
        """Absolute-time scheduling after many 0.1s hops must not blow
        up on the sub-epsilon negative delay FP addition produces."""
        sim = Simulator()
        for _ in range(1000):
            sim.schedule(0.0, lambda: None)
            sim.run()
            sim.schedule(0.1, lambda: None)
            sim.run()
        # 1000 * 0.1 accumulated: sim.now != 100.0 exactly.
        target = sim.now - 5e-13  # epsilon in the past
        fired = []
        sim.schedule_at(target, fired.append, "ok")
        sim.run()
        assert fired == ["ok"]

    def test_genuinely_negative_delay_still_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-1e-6, lambda: None)


class TestRunClockAdvance:
    def test_until_advances_clock_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events_after_drain_still_advances(self):
        """The early-exit path (max_events hit once the queue is empty)
        must leave the same clock as a plain run-to-until."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        fired = sim.run(until=10.0, max_events=2)
        assert fired == 2
        assert sim.now == 10.0

    def test_max_events_mid_stream_does_not_jump_events(self):
        """With events still due before ``until``, stopping early must
        NOT advance the clock past them."""
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        fired = sim.run(until=10.0, max_events=2)
        assert fired == 2
        assert sim.now == 2.0
        # Resuming picks up the remaining event, then advances.
        fired = sim.run(until=10.0)
        assert fired == 1
        assert sim.now == 10.0

    def test_run_returns_fired_count(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        assert sim.run() == 2


class TestRequestStop:
    def test_stop_from_callback_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.request_stop("done")))
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=10.0)
        assert fired == [1]
        assert sim.stop_requested
        assert sim.stop_reason == "done"
        # The stopped run did not advance past the still-due event.
        assert sim.now == 1.0

    def test_stop_state_clears_on_next_run(self):
        sim = Simulator()
        sim.schedule(1.0, sim.request_stop)
        sim.run()
        assert sim.stop_requested
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        assert not sim.stop_requested
        assert sim.stop_reason is None
        assert sim.now == 5.0


class TestPendingCounter:
    def test_counter_tracks_schedule_cancel_fire(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        events[0].cancel()
        events[0].cancel()  # idempotent: no double decrement
        assert sim.pending_events == 4
        sim.step()  # fires the t=2 event
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending_events == 0

    def test_counter_matches_heap_scan(self):
        """The O(1) counter agrees with a brute-force pending scan
        under a mixed schedule/cancel/fire workload."""
        sim = Simulator()
        events = []
        for i in range(50):
            events.append(sim.schedule(float(i % 7) + 1.0, lambda: None))
            if i % 3 == 0:
                events[i // 2].cancel()
            if i % 11 == 0:
                sim.step()
        assert sim.pending_events == sum(1 for e in events if e.pending)

    def test_clear_zeroes_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.clear()
        assert sim.pending_events == 0


class TestCallbackHardening:
    def test_foreign_exception_wrapped_with_context(self):
        from repro.errors import CallbackError

        sim = Simulator()

        def boom():
            raise ValueError("kapow")

        sim.schedule(1.5, boom)
        with pytest.raises(CallbackError) as excinfo:
            sim.run()
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert excinfo.value.sim_time == 1.5
        assert "kapow" in str(excinfo.value)
        assert excinfo.value.event is not None

    def test_repro_error_passes_through_with_sim_context(self):
        from repro.errors import ProtocolError

        sim = Simulator()

        def boom():
            raise ProtocolError("bad state")

        sim.schedule(2.0, boom)
        with pytest.raises(ProtocolError) as excinfo:
            sim.run()
        context = excinfo.value.sim_context
        assert context["sim_time"] == 2.0
        assert context["events_processed"] == 1


class TestHeapCompaction:
    def test_cancel_heavy_workload_keeps_heap_bounded(self):
        """A restarted-timer pattern (schedule far out, cancel, repeat)
        must not accumulate lazily-deleted entries: the heap compacts
        once cancelled entries outnumber live ones."""
        sim = Simulator()
        live = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
        for i in range(5000):
            sim.schedule(500.0 + i, lambda: None).cancel()
        from repro.sim.engine import HEAP_COMPACT_MIN

        entries = sim.pending_events + sim.cancelled_in_heap
        assert entries <= 2 * max(sim.pending_events, HEAP_COMPACT_MIN)
        assert sim.pending_events == 10
        assert all(e.pending for e in live)

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(400):
            event = sim.schedule(float(i) + 1.0, fired.append, i)
            if i % 2:
                event.cancel()
            else:
                keep.append(i)
        sim.run()
        assert fired == keep

    def test_tiny_heaps_never_compact(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        # 9 cancelled of 10 is below the compaction floor: lazy entries
        # are allowed to sit (rebuilding tiny heaps isn't worth it).
        assert sim.pending_events + sim.cancelled_in_heap == 10
        assert sim.pending_events == 1

    def test_clear_with_pending_compaction_is_safe(self):
        sim = Simulator()
        for i in range(500):
            sim.schedule(float(i + 1), lambda: None)
        sim.clear()
        assert sim.pending_events == 0
        assert sim.pending_events + sim.cancelled_in_heap == 0
        assert sim._cancelled_in_heap == 0


def _noop():
    pass


class TestEnginePickle:
    def test_roundtrip_preserves_schedule(self):
        import pickle

        fired = []
        sim = Simulator()
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        cancelled = sim.schedule(1.5, fired.append, "x")
        cancelled.cancel()
        sim.run(until=0.5)

        clone = pickle.loads(pickle.dumps(sim))
        assert clone.now == sim.now
        assert clone.pending_events == 2
        clone.run()
        # The clone fires its *own* copies of the callbacks: its append
        # targets the unpickled list, so the original stays untouched.
        assert fired == []

    def test_serial_counter_position_preserved(self):
        import pickle

        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, _noop)
        clone = pickle.loads(pickle.dumps(sim))
        event = clone.schedule(2.0, _noop)
        assert event.serial == 5

    def test_pickle_while_running_refuses(self):
        import pickle

        sim = Simulator()
        errors = []

        def grab():
            try:
                pickle.dumps(sim)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, grab)
        sim.run()
        assert len(errors) == 1
