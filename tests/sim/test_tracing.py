"""Unit tests for the trace bus."""

import pickle

import pytest

from repro.sim.tracing import TraceBus, TraceRecord, TraceTail
from repro.snapshot import state_digest


def make_record(category="queue.drop", time=1.0, **fields):
    return TraceRecord(time=time, category=category, source="test", fields=fields)


class TestSubscription:
    def test_exact_category_delivery(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("queue.drop", seen.append)
        bus.publish(make_record("queue.drop"))
        bus.publish(make_record("tcp.send"))
        assert len(seen) == 1
        assert seen[0].category == "queue.drop"

    def test_wildcard_receives_everything(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("*", seen.append)
        bus.publish(make_record("a"))
        bus.publish(make_record("b"))
        assert [r.category for r in seen] == ["a", "b"]

    def test_multiple_subscribers_same_category(self):
        bus = TraceBus()
        first, second = [], []
        bus.subscribe("x", first.append)
        bus.subscribe("x", second.append)
        bus.publish(make_record("x"))
        assert len(first) == len(second) == 1

    def test_unsubscribe(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("x", seen.append)
        bus.unsubscribe("x", seen.append)
        bus.publish(make_record("x"))
        assert seen == []

    def test_has_subscribers(self):
        bus = TraceBus()
        assert not bus.channel("x").subs
        bus.subscribe("x", lambda r: None)
        assert bus.channel("x").subs

    def test_wildcard_counts_as_subscriber(self):
        bus = TraceBus()
        bus.subscribe("*", lambda r: None)
        assert bus.channel("anything").subs


class TestEmit:
    def test_emit_builds_record(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("tcp.send", seen.append)
        bus.emit(2.5, "tcp.send", "rr/f1", seqno=10)
        record = seen[0]
        assert record.time == 2.5
        assert record.source == "rr/f1"
        assert record.fields["seqno"] == 10

    def test_emit_without_subscribers_is_noop(self):
        bus = TraceBus()
        bus.emit(1.0, "nobody.cares", "x", value=1)  # must not raise

    def test_records_are_frozen(self):
        record = make_record()
        try:
            record.time = 99.0
            mutated = True
        except AttributeError:
            mutated = False
        assert not mutated


class TestSubscriberPruning:
    """Regression: unsubscribe used to leave an empty list behind,
    making a channel's subscriber list (the merged-list cache) report stale
    truthiness forever after."""

    def test_unsubscribe_prunes_empty_category(self):
        bus = TraceBus()
        fn = lambda r: None  # noqa: E731
        bus.subscribe("x", fn)
        bus.unsubscribe("x", fn)
        assert not bus.channel("x").subs
        assert "x" not in bus._subscribers

    def test_unsubscribe_keeps_remaining_subscribers(self):
        bus = TraceBus()
        seen = []
        gone = lambda r: None  # noqa: E731
        bus.subscribe("x", gone)
        bus.subscribe("x", seen.append)
        bus.unsubscribe("x", gone)
        assert bus.channel("x").subs
        bus.publish(make_record("x"))
        assert len(seen) == 1

    def test_wildcard_unsubscribe_prunes(self):
        bus = TraceBus()
        fn = lambda r: None  # noqa: E731
        bus.subscribe("*", fn)
        bus.unsubscribe("*", fn)
        assert not bus.channel("anything").subs


class TestFailedUnsubscribeLeavesNoTrace:
    """Regression: unsubscribing a pair that was never subscribed read
    ``_subscribers[category]`` on a defaultdict, so by the time
    ``list.remove`` raised, the bus had grown a ``{category: []}`` entry
    and pickled/digested differently although nothing had changed."""

    def test_unknown_category(self):
        bus = TraceBus()
        bus.subscribe("x", print)
        before = (state_digest(bus), bus.__getstate__())
        with pytest.raises(ValueError):
            bus.unsubscribe("never.subscribed", print)
        assert (state_digest(bus), bus.__getstate__()) == before
        assert not bus.channel("never.subscribed").subs

    def test_known_category_unknown_subscriber(self):
        bus = TraceBus()
        bus.subscribe("x", print)
        before = (state_digest(bus), bus.__getstate__())
        with pytest.raises(ValueError):
            bus.unsubscribe("x", repr)
        assert (state_digest(bus), bus.__getstate__()) == before
        assert bus.channel("x").subs


class TestTraceTail:
    def test_uninstall_stops_capture_and_keeps_the_records(self):
        bus = TraceBus()
        tail = TraceTail(4)
        tail.install(bus)
        bus.emit(1.0, "x", "src")
        tail.uninstall()
        bus.emit(2.0, "x", "src")
        assert [r.time for r in tail] == [1.0]
        assert not bus.channel("x").subs
        tail.uninstall()  # idempotent

    def test_reinstall_after_uninstall(self):
        bus = TraceBus()
        tail = TraceTail(4)
        tail.install(bus)
        with pytest.raises(ValueError):
            tail.install(bus)
        tail.uninstall()
        tail.install(bus)
        bus.emit(1.0, "x", "src")
        assert len(tail) == 1


class TestMergedListCache:
    """The per-category merged (exact + wildcard) snapshot must be
    invalidated by every subscription change that affects it."""

    def test_subscribe_after_silent_emit_is_seen(self):
        bus = TraceBus()
        bus.emit(1.0, "x", "src", v=1)  # caches the empty merged list
        seen = []
        bus.subscribe("x", seen.append)
        bus.emit(2.0, "x", "src", v=2)
        assert [r.fields["v"] for r in seen] == [2]

    def test_wildcard_subscribe_invalidates_all_categories(self):
        bus = TraceBus()
        bus.emit(1.0, "x", "src")  # cache "x" with no listeners
        seen = []
        bus.subscribe("*", seen.append)
        bus.emit(2.0, "x", "src")
        assert len(seen) == 1

    def test_unsubscribe_stops_delivery_through_cache(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("x", seen.append)
        bus.emit(1.0, "x", "src")  # caches merged list with subscriber
        bus.unsubscribe("x", seen.append)
        bus.emit(2.0, "x", "src")
        assert len(seen) == 1

    def test_exact_and_wildcard_merge_once_each(self):
        bus = TraceBus()
        exact, everything = [], []
        bus.subscribe("x", exact.append)
        bus.subscribe("*", everything.append)
        bus.emit(1.0, "x", "src")
        bus.emit(2.0, "y", "src")
        assert len(exact) == 1
        assert len(everything) == 2


class TestByNameOnly:
    """``link.tx`` (one record per hop service start) reaches only the
    subscribers that ask for it by name; ``"*"`` means every other
    category."""

    def test_link_tx_is_by_name_only(self):
        assert "link.tx" in TraceBus.BY_NAME_ONLY

    def test_wildcard_never_receives_link_tx(self):
        bus = TraceBus()
        cached = bus.channel("link.tx")  # cached before the wildcard
        seen = []
        bus.subscribe("*", seen.append)
        bus.emit(1.0, "link.tx", "R1->R2")
        bus.publish(make_record("link.tx"))
        cached.emit(2.0, "R1->R2")
        bus.channel("link.tx").emit(3.0, "R1->R2")
        assert cached.subs == [] and bus.channel("link.tx") is cached
        assert seen == []
        bus.emit(4.0, "link.drop", "R1->R2")  # other categories still arrive
        assert [r.category for r in seen] == ["link.drop"]

    def test_by_name_subscriber_receives_it_once_beside_a_wildcard(self):
        bus = TraceBus()
        cached = bus.channel("link.tx")
        both, everything = [], []
        bus.subscribe("*", everything.append)
        bus.subscribe("*", both.append)
        bus.subscribe("link.tx", both.append)
        bus.emit(1.0, "link.tx", "R1->R2")
        bus.publish(make_record("link.tx", time=2.0))
        cached.emit(3.0, "R1->R2")
        assert [r.time for r in both] == [1.0, 2.0, 3.0]
        assert everything == []

    def test_has_subscribers_is_false_under_a_wildcard_alone(self):
        bus = TraceBus()
        bus.subscribe("*", lambda r: None)
        assert not bus.channel("link.tx").subs
        assert bus.channel("tcp.send").subs
        bus.subscribe("link.tx", print)
        assert bus.channel("link.tx").subs

    def test_an_unpickled_bus_behaves_the_same(self):
        bus = TraceBus()
        by_name, everything = [], []
        bus.subscribe("*", everything.append)
        bus.subscribe("link.tx", by_name.append)
        bus.channel("link.tx")
        bus, by_name, everything = pickle.loads(pickle.dumps((bus, by_name, everything)))
        bus.emit(1.0, "link.tx", "R1->R2")
        bus.publish(make_record("link.tx", time=2.0))
        bus.channel("link.tx").emit(3.0, "R1->R2")
        bus.emit(4.0, "tcp.send", "rr/f1")
        assert [r.time for r in by_name] == [1.0, 2.0, 3.0]
        assert [r.category for r in everything] == ["tcp.send"]
        bus.unsubscribe("link.tx", by_name.append)
        assert not bus.channel("link.tx").subs
