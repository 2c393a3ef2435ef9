"""The compiled ``TraceChannel.emit``: same records, same calls, same errors.

On the compiled backend the core builds each ``TraceRecord`` and calls
the channel's subscribers itself (docs/PERFORMANCE.md "Records without
frames").  The contract tests below hold for whichever ``emit`` the
suite runs under, and the parity test runs the full observation stack
on the pure backend in one process and on the default backend (compiled
when built) in another: every record, in order, must match -- the
per-hop ``link.tx`` records of the C hop included, subscribed by name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.engine import CORE_BACKEND
from repro.sim.tracing import NULL_CHANNEL, TraceBus, TraceChannel, TraceRecord
from repro.snapshot.golden import build_golden_scenario

SRC = str(Path(__file__).resolve().parents[2] / "src")


def channel(*subscribers, category="tcp.ack"):
    bus = TraceBus()
    for fn in subscribers:
        bus.subscribe(category, fn)
    return bus, bus.channel(category)


class TestRecord:
    def test_record_is_a_trace_record_of_the_call(self):
        got = []
        _, ch = channel(got.append)
        time, source = 1.25, "rr/f1"
        ch.emit(time, source, ackno=7, duplicate=False)
        (record,) = got
        assert type(record) is TraceRecord
        assert record == (1.25, "tcp.ack", "rr/f1", {"ackno": 7, "duplicate": False})
        assert record.time is time and record.source is source
        assert list(record.fields) == ["ackno", "duplicate"]

    def test_each_record_gets_its_own_fields_dict(self):
        got = []
        _, ch = channel(got.append)
        ch.emit(1.0, "s")
        ch.emit(2.0, "s")
        assert got[0].fields == got[1].fields == {}
        assert got[0].fields is not got[1].fields

    def test_keywords_may_name_time_and_source(self):
        got = []
        _, ch = channel(got.append)
        ch.emit(time=3.0, source="s", cwnd=2.0)
        assert got == [(3.0, "tcp.ack", "s", {"cwnd": 2.0})]

    def test_emit_holds_no_reference_after_it_returns(self):
        bus, ch = channel(lambda record: None)
        source = object()
        held = (source, ch.category, ch.subs)
        before = [sys.getrefcount(obj) for obj in held]
        for _ in range(100):
            ch.emit(1.0, source, k=source)
        assert [sys.getrefcount(obj) for obj in held] == before

    def test_no_subscriber_returns_none(self):
        assert NULL_CHANNEL.emit(1.0, "s", cwnd=1.0) is None


class TestFanOut:
    def test_subscribers_run_in_subscription_order(self):
        log = []
        bus, ch = channel(lambda r: log.append("exact"))
        bus.subscribe("*", lambda r: log.append("wildcard"))
        assert ch.emit(1.0, "s") is None
        assert log == ["exact", "wildcard"]

    def test_a_raising_subscriber_stops_the_fan_out(self):
        boom = KeyError("boom")
        log = []

        def fail(record):
            raise boom

        _, ch = channel(log.append, fail, log.append)
        with pytest.raises(KeyError) as caught:
            ch.emit(1.0, "s")
        assert caught.value is boom
        assert len(log) == 1

    def test_a_subscription_made_during_the_fan_out_starts_with_the_next_record(self):
        log = []
        bus = TraceBus()

        def late(record):
            log.append(("late", record.time))

        def first(record):
            log.append(("first", record.time))
            if record.time == 1.0:
                bus.subscribe("tcp.ack", late)

        bus.subscribe("tcp.ack", first)
        ch = bus.channel("tcp.ack")
        ch.emit(1.0, "s")
        ch.emit(2.0, "s")
        assert log == [("first", 1.0), ("first", 2.0), ("late", 2.0)]

    def test_a_list_grown_in_place_is_read_to_its_end(self):
        log = []
        ch = TraceChannel("c", [])
        ch.subs.append(lambda r: ch.subs.append(lambda r: log.append("appended")))
        ch.emit(1.0, "s")
        assert log == ["appended"]

    def test_any_iterable_of_subscribers(self):
        log = []
        ch = TraceChannel("c", (log.append, log.append))
        ch.emit(1.0, "s")
        assert log == [(1.0, "c", "s", {})] * 2
        ch.subs = ()
        ch.emit(2.0, "s")
        assert len(log) == 2


class TestBinding:
    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1.0,), {}, "missing 1 required positional argument: 'source'"),
            ((1.0, "s", "extra"), {}, "takes 3 positional arguments but 4 were given"),
            ((1.0, "s"), {"time": 2.0}, "multiple values for argument 'time'"),
            ((1.0, "s"), {"source": "t"}, "multiple values for argument 'source'"),
            ((1.0, "s"), {"self": None}, "multiple values for argument 'self'"),
        ],
    )
    def test_a_bad_call_raises_what_the_python_method_raises(self, args, kwargs, message):
        _, ch = channel(lambda record: None)
        with pytest.raises(TypeError, match=message):
            ch.emit(*args, **kwargs)

    def test_a_subclass_keeps_its_own_attributes(self):
        log = []

        class Tagged(TraceChannel):
            __slots__ = ()
            # Shadows the slot: the subscribers are the property's.
            subs = property(lambda self: [log.append], lambda self, value: None)

        Tagged("c", []).emit(1.0, "s", k=1)
        assert log == [(1.0, "c", "s", {"k": 1})]


@pytest.mark.skipif(CORE_BACKEND != "compiled", reason="needs the compiled core")
def test_compiled_emit_is_installed():
    assert type(TraceChannel.__dict__["emit"]).__name__ == "method_descriptor"


def test_a_class_level_shim_sees_every_emit(monkeypatch):
    """What bench/trace.py does: wrap ``TraceChannel.emit`` at class level.
    The C hop's ``link.tx`` records and the senders' ``tcp.*`` records
    must all go through the shim."""
    calls = []
    original = TraceChannel.emit

    def shim(self, time, source, **fields):
        calls.append(self.category)
        return original(self, time, source, **fields)

    monkeypatch.setattr(TraceChannel, "emit", shim)
    scenario = build_golden_scenario("rr")
    records = []
    scenario.dumbbell.net.trace.subscribe_many(("link.tx", "tcp.send", "tcp.ack"), records.append)
    scenario.sim.run(until=2.0)
    assert sorted(calls) == sorted(record.category for record in records)
    assert calls.count("link.tx") > 100 and calls.count("tcp.ack") > 10


_STREAM_SCRIPT = """\
import hashlib, json
from repro.ident.features import FlowTraceCollector
from repro.sim.engine import CORE_BACKEND
from repro.sim.invariants import InvariantSuite
from repro.sim.watchdog import Watchdog
from repro.snapshot import state_digest
from repro.snapshot.golden import build_golden_scenario

out = {"backend": CORE_BACKEND}
for variant in ("rr", "sack"):
    scenario = build_golden_scenario(variant)
    bus = scenario.dumbbell.net.trace
    scenario.stats[1].watch_drops(bus)
    suite = InvariantSuite.standard().watch_queue(scenario.dumbbell.bottleneck_queue)
    suite.install(bus)
    collector = FlowTraceCollector().install(bus)
    Watchdog(scenario.sim, scenario.senders, tail=suite.tail).arm()
    stream = hashlib.sha256()
    hops = []

    def log(record):
        fields = {
            key: value.uid if hasattr(value, "uid") else repr(value)
            for key, value in record.fields.items()
        }
        stream.update(repr((record.time, record.category, record.source, fields)).encode())
        if record.category == "link.tx":
            hops.append(record.time)

    bus.subscribe("*", log)
    # By name only: the wildcard never carries the per-hop records.
    bus.subscribe("link.tx", log)
    scenario.sim.run(until=30.0)
    out[variant] = {
        "stream": stream.hexdigest(),
        "hops": len(hops),
        "seen": suite.records_seen,
        "checked": [c.records_checked for c in suite.checkers],
        "tail": [repr(r[:3]) for r in suite.tail.records()],
        "features": repr(collector.features(1)),
        "digest": state_digest(scenario),
    }
print(json.dumps(out))
"""


def _run(env_extra):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_PURE_PYTHON", None)
    env.update(env_extra)
    done = subprocess.run(
        [sys.executable, "-c", _STREAM_SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_pure_and_default_backends_emit_the_same_records():
    pure = _run({"REPRO_PURE_PYTHON": "1"})
    default = _run({})
    assert pure.pop("backend") == "python"
    default.pop("backend")
    assert pure["rr"]["hops"] > 100 and pure["sack"]["hops"] > 100
    assert pure == default
