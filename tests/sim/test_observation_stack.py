"""Faster, not laxer: what the full observation stack sees is pinned.

ISSUE 18 made the four stages every observed record passes through
cheaper (record construction, suite fan-out, collector intake, feature
extraction).  A cheaper stack that quietly checks less would also be
faster, so the counts below were recorded on the parent commit
(2ee82a7, before any of that code was touched) with the stack the
``observed_recovery`` benchmark, ``chaos`` and ``identify`` wire:
standard suite + ``watch_queue``, collector, watchdog on the suite's
tail, ``watch_drops``.  The tree must keep reproducing them exactly.

``link.tx`` is by-name only (``TraceBus.BY_NAME_ONLY``): the suite's
wildcard no longer receives the per-hop records, so ``records_seen``
and the queue probe's count are the parent's less exactly the
``link.tx`` count.  The four ``tcp.*`` checkers' counts and the
collector's events are the parent's, unchanged.  The fifth,
``one-cut-per-window``, came later and listens only to the rare
``tcp.recovery_enter`` / ``tcp.rr`` / ``tcp.timeout`` records; its
counts were recorded when it was added, and adding it moved no other.  The per-category
counter below asks for ``link.tx`` by name, so the table still shows
every hop emitting when someone listens.
"""

import collections

import pytest

from repro.errors import InvariantViolation
from repro.ident.features import FlowTraceCollector
from repro.sim.invariants import InvariantChecker, InvariantSuite
from repro.sim.tracing import TraceBus, TraceRecord
from repro.sim.watchdog import Watchdog
from repro.snapshot.golden import GOLDEN_VARIANTS, build_golden_scenario

#: variant -> (suite.records_seen,
#:             records_checked per checker,
#:             records per category,
#:             collector.flows[1].events), golden scenario run to t=30.
PARENT_COUNTS = {
    "tahoe": (
        893,
        {"ack-monotonic": 302, "send-window": 607, "rr-state": 0,
         "recover-monotonic": 0, "one-cut-per-window": 0,
         "queue-occupancy": 893},
        {"link.injected_drop": 3, "link.tx": 1815, "tcp.ack": 302,
         "tcp.complete": 1, "tcp.cwnd": 281, "tcp.send": 305, "tcp.start": 1},
        888,
    ),
    "reno": (
        910,
        {"ack-monotonic": 300, "send-window": 604, "rr-state": 0,
         "recover-monotonic": 5, "one-cut-per-window": 3,
         "queue-occupancy": 910},
        {"link.injected_drop": 3, "link.tx": 1803, "tcp.ack": 300,
         "tcp.complete": 1, "tcp.cwnd": 297, "tcp.recovery_enter": 2,
         "tcp.recovery_exit": 2, "tcp.send": 303, "tcp.start": 1,
         "tcp.timeout": 1},
        905,
    ),
    "newreno": (
        908,
        {"ack-monotonic": 300, "send-window": 603, "rr-state": 0,
         "recover-monotonic": 2, "one-cut-per-window": 1,
         "queue-occupancy": 908},
        {"link.injected_drop": 3, "link.tx": 1803, "tcp.ack": 300,
         "tcp.complete": 1, "tcp.cwnd": 298, "tcp.recovery_enter": 1,
         "tcp.recovery_exit": 1, "tcp.send": 303, "tcp.start": 1},
        903,
    ),
    "sack": (
        888,
        {"ack-monotonic": 300, "send-window": 603, "rr-state": 0,
         "recover-monotonic": 2, "one-cut-per-window": 1,
         "queue-occupancy": 888},
        {"link.injected_drop": 3, "link.tx": 1803, "tcp.ack": 300,
         "tcp.complete": 1, "tcp.cwnd": 278, "tcp.recovery_enter": 1,
         "tcp.recovery_exit": 1, "tcp.send": 303, "tcp.start": 1},
        883,
    ),
    "rr": (
        875,
        {"ack-monotonic": 300, "send-window": 603, "rr-state": 4,
         "recover-monotonic": 6, "one-cut-per-window": 5,
         "queue-occupancy": 875},
        {"link.injected_drop": 3, "link.tx": 1803, "tcp.ack": 300,
         "tcp.complete": 1, "tcp.cwnd": 261, "tcp.recovery_enter": 1,
         "tcp.recovery_exit": 1, "tcp.rr": 4, "tcp.send": 303, "tcp.start": 1},
        866,
    ),
}


def observed_golden(variant):
    """The golden scenario with the full observation stack live."""
    scenario = build_golden_scenario(variant)
    bus = scenario.dumbbell.net.trace
    scenario.stats[1].watch_drops(bus)
    suite = InvariantSuite.standard()
    suite.watch_queue(scenario.dumbbell.bottleneck_queue)
    suite.install(bus)
    collector = FlowTraceCollector().install(bus)
    watchdog = Watchdog(scenario.sim, scenario.senders, tail=suite.tail).arm()
    per_category = collections.Counter()

    def count(record):
        per_category[record.category] += 1

    bus.subscribe("*", count)
    bus.subscribe("link.tx", count)  # by-name only: "*" never carries it
    return scenario, suite, collector, watchdog, per_category


class TestSameChecksSameAnswers:
    def test_the_table_covers_the_golden_set(self):
        assert tuple(PARENT_COUNTS) == GOLDEN_VARIANTS

    @pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
    def test_stack_sees_what_the_parent_saw(self, variant):
        scenario, suite, collector, watchdog, per_category = observed_golden(variant)
        scenario.sim.run(until=30.0)
        assert scenario.senders[1].completed and not watchdog.triggered
        seen, checked, categories, events = PARENT_COUNTS[variant]
        assert suite.records_seen == seen
        assert {c.name: c.records_checked for c in suite.checkers} == checked
        assert dict(per_category) == categories
        assert collector.flows[1].events == events
        # Probes run on every record the suite receives: every category
        # but the by-name-only link.tx.
        assert checked["queue-occupancy"] == seen
        assert seen == sum(categories.values()) - categories["link.tx"]


class _Spy(InvariantChecker):
    """Records, per call, who was called and whether the tail already
    held the record."""

    def __init__(self, name, categories, log):
        super().__init__()
        self.name = name
        self.categories = categories
        self._log = log

    def check(self, record):
        self._log.append((self.name, self._suite.tail.records()[-1] is record))


class TestDispatchOrder:
    def test_tail_first_then_category_checkers_then_probes(self):
        log = []
        suite = InvariantSuite()
        suite.add(_Spy("probe-a", (), log))
        suite.add(_Spy("on-ack", ("tcp.ack",), log))
        suite.add(_Spy("probe-b", (), log))
        suite.add(_Spy("on-ack-and-send", ("tcp.send", "tcp.ack"), log))
        bus = TraceBus()
        suite.install(bus)

        bus.emit(1.0, "tcp.ack", "rr/f1", ackno=1)
        assert log == [("on-ack", True), ("on-ack-and-send", True),
                       ("probe-a", True), ("probe-b", True)]
        del log[:]
        bus.emit(2.0, "link.drop", "R1->R2")  # a category nobody lists
        assert log == [("probe-a", True), ("probe-b", True)]
        assert suite.records_seen == 2
        assert [c.records_checked for c in suite.checkers] == [2, 1, 2, 1]

    def test_checker_added_after_install_is_dispatched(self):
        log = []
        suite = InvariantSuite()
        bus = TraceBus()
        suite.install(bus)
        bus.emit(1.0, "tcp.ack", "rr/f1", ackno=1)
        suite.add(_Spy("late", ("tcp.ack",), log))
        bus.emit(2.0, "tcp.ack", "rr/f1", ackno=2)
        assert log == [("late", True)]

    def test_seeded_violation_finds_the_offending_record_in_the_tail(self):
        scenario, suite, *_ = observed_golden("rr")
        scenario.sim.run(until=2.0)
        bus = scenario.dumbbell.net.trace
        with pytest.raises(InvariantViolation) as excinfo:
            bus.emit(scenario.sim.now, "tcp.rr", "rr/f1", actnum=-1, ndup=0)
        violation = excinfo.value
        assert violation.invariant == "rr-state"
        assert violation.tail[-1] is violation.record
        assert suite.tail.records()[-1] is violation.record
        assert len(violation.tail) == suite.tail.capacity  # and what led up to it


class TestRecordIsImmutable:
    def test_attribute_assignment_rejected(self):
        record = TraceRecord(1.0, "tcp.ack", "rr/f1", {"ackno": 1})
        for name in ("time", "category", "source", "fields"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            del record.time

    def test_field_order_and_both_construction_forms(self):
        positional = TraceRecord(1.0, "tcp.ack", "rr/f1", {"ackno": 1})
        keyword = TraceRecord(
            time=1.0, category="tcp.ack", source="rr/f1", fields={"ackno": 1}
        )
        assert positional == keyword
        time, category, source, fields = positional
        assert (time, category, source, fields) == (1.0, "tcp.ack", "rr/f1", {"ackno": 1})
