"""The lazy retransmission timer is the eager one, fire for fire.

:class:`repro.sim.timers.Timer` keeps a deadline next to at most one
pending event: a restart to a later time only moves the deadline, and
the event re-arms itself at the deadline when it fires early.
:class:`EagerTimer` below is the timer it replaced, which cancelled and
rescheduled on every restart.  Both are driven here side by side:

* generated sequences of ``start``/``stop``/``run(until=...)`` and
  marker events on two simulators, comparing the ordered fire log,
  ``pending`` and ``expiry`` after every operation;
* a pickled simulator whose deadline has moved past its pending event;
* the one ordering the two do not share, as an explicit test;
* whole worlds -- every golden scenario and Figure-7 ``UniformLoss``
  cells of RR and SACK -- with the senders' and receivers' ``Timer``
  swapped for the eager one, comparing the ``tcp.*`` and drop record
  streams and the endpoints' state.

The suite runs on whichever backend is active (the pure-Python CI job
runs it again with ``REPRO_PURE_PYTHON=1``).
"""

from __future__ import annotations

import math
import pickle
import random
from typing import Any, Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.engine import Event, Simulator
from repro.sim.timers import Timer
from repro.snapshot import GOLDEN_VARIANTS, state_digest, state_fingerprints


class EagerTimer:
    """The reference: cancel and reschedule on every (re)start."""

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], Any],
        granularity: float = 0.0,
    ):
        if granularity < 0:
            raise ConfigurationError("timer granularity must be >= 0")
        self._sim = sim
        self._callback = callback
        self._granularity = granularity
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        event = self._event
        return event is not None and not (event._cancelled or event._fired)

    @property
    def granularity(self) -> float:
        return self._granularity

    def set_granularity(self, granularity: float) -> None:
        if granularity < 0:
            raise ConfigurationError("timer granularity must be >= 0")
        self._granularity = granularity

    @property
    def expiry(self) -> Optional[float]:
        return self._event.time if self.pending else None

    def start(self, delay: float) -> None:
        self.stop()
        granularity = self._granularity
        if granularity > 0:
            delay = max(1, math.ceil(delay / granularity - 1e-12)) * granularity
        self._event = self._sim.schedule(delay, self._fire)

    restart = start

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class Twin:
    """One simulator with one timer of the given class and a fire log."""

    def __init__(self, timer_cls, granularity: float, rearm: Optional[float]):
        self.sim = Simulator()
        self.log = []
        self.rearm = rearm
        self.timer = timer_cls(self.sim, self._expired, granularity)

    def _expired(self) -> None:
        self.log.append(("timer", self.sim.now))
        if self.rearm is not None and len(self.log) < 50:
            self.timer.start(self.rearm)

    def _mark(self, index: int) -> None:
        self.log.append(("mark", index, self.sim.now))

    def apply(self, op) -> None:
        kind, value = op
        if kind == "start":
            self.timer.start(value)
        elif kind == "stop":
            self.timer.stop()
        elif kind == "run":
            self.sim.run(until=self.sim.now + value)
        elif kind == "clear":
            self.sim.clear()
        else:
            index, delay = value
            self.sim.schedule(delay, self._mark, index)


def _is_known_tie(lazy: Twin, delay: float) -> bool:
    """A marker scheduled for exactly the deadline a lazy restart moved
    to, before the early event re-armed: the one ordering that differs
    (see :func:`test_tie_at_a_moved_deadline_fires_the_earlier_event_first`)."""
    timer = lazy.timer
    return (
        timer.pending
        and timer._event.time < timer._deadline
        and lazy.sim.now + delay == timer._deadline
    )


#: Delays from a small set collide (restarts to equal and earlier
#: expiries, markers on the deadline); arbitrary ones do not.
delays = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 1.5]),
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 1.5]),
    st.floats(min_value=0.0, max_value=3.0),
)
ops = st.one_of(
    st.tuples(st.just("start"), delays),
    st.tuples(st.just("start"), delays),
    st.tuples(st.just("stop"), st.none()),
    st.tuples(st.just("run"), delays),
    st.tuples(st.just("mark"), delays),
    st.tuples(st.just("mark"), delays),
    st.tuples(st.just("clear"), st.none()),
)


@given(
    sequence=st.lists(ops, min_size=1, max_size=40),
    granularity=st.sampled_from([0.0, 0.1]),
    rearm=st.one_of(st.none(), delays),
)
@settings(max_examples=500, deadline=None)
def test_lazy_timer_matches_the_eager_timer(sequence, granularity, rearm):
    eager = Twin(EagerTimer, granularity, rearm)
    lazy = Twin(Timer, granularity, rearm)
    for step, op in enumerate(sequence):
        if op[0] == "mark":
            if _is_known_tie(lazy, op[1]):
                continue
            op = ("mark", (step, op[1]))
        eager.apply(op)
        lazy.apply(op)
        assert lazy.sim.now == eager.sim.now
        assert lazy.log == eager.log
        assert lazy.timer.pending == eager.timer.pending
        assert lazy.timer.expiry == eager.timer.expiry
    eager.sim.run()
    lazy.sim.run()
    assert lazy.log == eager.log


def test_restart_to_a_later_time_does_not_reschedule():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    event = timer._event
    sim.run(until=0.5)
    timer.restart(1.0)
    assert timer._event is event
    assert timer.expiry == 1.5
    assert sim.cancelled_in_heap == 0
    assert sim.peek_time() == 1.0


@pytest.mark.parametrize("timer_cls", [EagerTimer, Timer])
def test_restart_to_the_pending_time_queues_behind_earlier_events(timer_cls):
    """A restart that lands on the pending event's own time is a new
    schedule: an event queued for that time in between runs first."""
    sim = Simulator()
    log = []
    timer = timer_cls(sim, lambda: log.append("timer"))
    timer.start(1.0)
    sim.schedule(1.0, log.append, "other")
    timer.restart(1.0)
    sim.run()
    assert log == ["other", "timer"]


@pytest.mark.parametrize("timer_cls", [EagerTimer, Timer])
def test_restart_after_clear_fires(timer_cls):
    sim = Simulator()
    fired = []
    timer = timer_cls(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.clear()
    assert not timer.pending
    timer.restart(2.0)
    assert timer.expiry == 2.0
    sim.run()
    assert fired == [2.0]


def test_rearm_lands_on_the_float_identical_deadline():
    """The re-arm schedules the recorded deadline itself, never
    ``now + (deadline - now)``, which can be one ulp off."""
    rng = random.Random(7)
    for _ in range(2000):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        first = rng.uniform(0.1, 3.0)
        timer.start(first)
        sim.run(until=rng.uniform(0.0, first))
        delay = rng.uniform(first - sim.now, 5.0)
        deadline = sim.now + delay
        timer.restart(delay)
        sim.run()
        assert fired == [deadline]


class Recorder:
    """A picklable callback target."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.times = []

    def fire(self) -> None:
        self.times.append(self.sim.now)


def test_moved_deadline_survives_pickling():
    sim = Simulator()
    recorder = Recorder(sim)
    timer = Timer(sim, recorder.fire)
    timer.start(1.0)
    sim.run(until=0.3)
    timer.restart(1.0)
    deadline = 0.3 + 1.0
    assert timer.expiry == deadline
    assert sim.peek_time() == 1.0  # the early event is still the one queued

    sim2, timer2, recorder2 = pickle.loads(pickle.dumps((sim, timer, recorder)))
    assert timer2.pending and timer2.expiry == deadline
    assert sim2.peek_time() == 1.0
    sim2.run()
    assert recorder2.times == [deadline]
    assert not timer2.pending

    eager_sim = Simulator()
    eager_recorder = Recorder(eager_sim)
    eager = EagerTimer(eager_sim, eager_recorder.fire)
    eager.start(1.0)
    eager_sim.run(until=0.3)
    eager.restart(1.0)
    eager_sim.run()
    assert eager_recorder.times == recorder2.times


@pytest.mark.parametrize("timer_cls, order", [
    (EagerTimer, ["timer", "other"]),
    (Timer, ["other", "timer"]),
])
def test_tie_at_a_moved_deadline_fires_the_earlier_event_first(timer_cls, order):
    """The documented edge: after a restart moves the deadline, an event
    scheduled for the float-identical deadline *before the early event
    fires* runs ahead of the timer, because the re-arm takes its serial
    when it happens.  The eager timer took its serial at the restart."""
    sim = Simulator()
    log = []
    timer = timer_cls(sim, lambda: log.append("timer"))
    timer.start(1.0)
    sim.run(until=0.5)
    timer.restart(1.0)
    sim.schedule_abs(0.5 + 1.0, log.append, "other")
    sim.run()
    assert log == order


# ----------------------------------------------------------------------
# whole worlds
# ----------------------------------------------------------------------
#: Sections that hold a timer, or reach one through the simulator heap.
TIMER_SECTIONS = {"_timer", "_delack_timer", "sim", "host"}
#: Queue overflows, and the loss module's drops.
DROPS = {"link.drop", "link.injected_drop"}


def _plain(value):
    # Packets are pooled and recycled: digest them when the record is made.
    if isinstance(value, (int, float, str, type(None))):
        return value
    return state_digest(value)


def _watch(bus):
    records = []

    def keep(record):
        if record.category.startswith("tcp.") or record.category in DROPS:
            records.append((
                record.time,
                record.category,
                record.source,
                sorted((name, _plain(v)) for name, v in record.fields.items()),
            ))

    bus.subscribe(bus.WILDCARD, keep)
    return records


def _endpoints(scenario):
    states = []
    for flow_id in sorted(scenario.senders):
        for endpoint in (scenario.senders[flow_id], scenario.receivers[flow_id]):
            fingerprints = state_fingerprints(endpoint)
            states.append({
                name: digest
                for name, digest in fingerprints.items()
                if name not in TIMER_SECTIONS
            })
    return states


def _use_eager_timers(monkeypatch):
    monkeypatch.setattr("repro.tcp.base.Timer", EagerTimer)
    monkeypatch.setattr("repro.tcp.receiver.Timer", EagerTimer)


def _golden_run(variant):
    from repro.snapshot.golden import CHECKPOINT_TIMES, build_golden_scenario

    scenario = build_golden_scenario(variant)
    records = _watch(scenario.dumbbell.net.trace)
    states = []
    for t in CHECKPOINT_TIMES:
        scenario.sim.run(until=t)
        states.append(_endpoints(scenario))
    return records, states


@pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
def test_golden_world_is_the_eager_world(variant, monkeypatch):
    lazy = _golden_run(variant)
    _use_eager_timers(monkeypatch)
    eager = _golden_run(variant)
    assert lazy[0], "no records watched"
    assert lazy == eager


def _figure7_run(variant, loss_rate):
    from repro.experiments.figure7 import Figure7Config, _measure_from, prefix_world

    config = Figure7Config(duration=20.0)
    scenario = prefix_world(variant, config)
    records = _watch(scenario.dumbbell.net.trace)
    result = _measure_from(scenario, loss_rate, config.seed, config)
    return records, _endpoints(scenario), result


@pytest.mark.parametrize("loss_rate", [0.01, 0.03])
@pytest.mark.parametrize("variant", ["rr", "sack"])
def test_figure7_cell_is_the_eager_cell(variant, loss_rate, monkeypatch):
    lazy = _figure7_run(variant, loss_rate)
    _use_eager_timers(monkeypatch)
    eager = _figure7_run(variant, loss_rate)
    assert any(record[1] in DROPS for record in lazy[0])
    assert lazy == eager
