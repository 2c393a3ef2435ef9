"""Unit tests for the engine watchdog."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.topology import DumbbellParams
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantSuite
from repro.sim.watchdog import Watchdog


def stalled_scenario(variant="rr", packets=400):
    """A transfer whose forward path goes permanently dark mid-flight."""
    scenario = build_dumbbell_scenario(
        flows=[FlowSpec(variant=variant, amount_packets=packets)],
        params=DumbbellParams(n_pairs=1, buffer_packets=25),
    )
    scenario.sim.schedule(1.0, scenario.dumbbell.forward_link.set_down)
    return scenario


class TestStallDetection:
    def test_permanent_outage_trips_with_structured_report(self):
        scenario = stalled_scenario()
        watchdog = Watchdog(
            scenario.sim,
            senders=scenario.senders,
            stall_timeout=5.0,
            check_interval=0.5,
            trace=scenario.dumbbell.net.trace,
        ).arm()
        scenario.sim.run(until=600.0)

        assert watchdog.triggered
        report = watchdog.report
        assert report.reason == "stall"
        # The report names the stalled flow...
        assert report.stalled_flows == [1]
        # ...with a full state snapshot and recent trace evidence.
        assert len(report.flows) == 1
        snapshot = report.flows[0]
        assert snapshot.flow_id == 1
        assert snapshot.variant == "rr"
        assert not snapshot.completed
        assert snapshot.stalled_for > 5.0
        assert len(report.last_events) > 0
        assert "flow 1" in report.format()
        # The abort was graceful: the run loop returned early.
        assert scenario.sim.stop_reason == "watchdog: stall"
        assert scenario.sim.now < 600.0

    def test_healthy_transfer_never_trips(self):
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant="newreno", amount_packets=200)],
            params=DumbbellParams(n_pairs=1, buffer_packets=25),
        )
        watchdog = Watchdog(
            scenario.sim,
            senders=scenario.senders,
            stall_timeout=5.0,
            check_interval=0.5,
        ).arm()
        scenario.sim.run(until=60.0)
        assert scenario.senders[1].completed
        # Completed flows refresh their marker: idle-after-done is not
        # a stall even though the run kept going long past completion.
        assert not watchdog.triggered
        assert watchdog.checks_performed > 50


class TestEventGuards:
    def test_event_storm_ceiling(self):
        sim = Simulator()

        def storm():
            sim.schedule(0.001, storm)

        storm()
        watchdog = Watchdog(sim, stall_timeout=1e9, check_interval=0.1, max_events=500).arm()
        sim.run(until=1e9)
        assert watchdog.triggered
        assert watchdog.report.reason == "event-storm"
        assert watchdog.report.events_processed > 500

    def test_event_rate_ceiling(self):
        sim = Simulator()

        def storm():
            for _ in range(10):
                sim.schedule(1e-6, lambda: None)
            sim.schedule(1e-6, storm)

        storm()
        watchdog = Watchdog(
            sim, stall_timeout=1e9, check_interval=0.5, max_event_rate=100.0
        ).arm()
        sim.run(until=1e9)
        assert watchdog.triggered
        assert watchdog.report.reason == "event-rate"

    def test_wallclock_deadline(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)  # keep the queue alive past one tick
        watchdog = Watchdog(
            sim, stall_timeout=1e9, check_interval=1.0, max_wallclock=0.0
        ).arm()
        sim.run(until=100.0)
        assert watchdog.triggered
        assert watchdog.report.reason == "wallclock"


class TestLifecycle:
    def test_disarm_cancels_tick(self):
        sim = Simulator()
        watchdog = Watchdog(sim, check_interval=1.0).arm()
        assert sim.pending_events == 1
        watchdog.disarm()
        assert sim.pending_events == 0
        sim.run(until=100.0)
        assert not watchdog.triggered

    def test_disarm_removes_the_tail_the_watchdog_created(self):
        # Regression: Watchdog(trace=bus) subscribed its own wildcard
        # tail and never removed it, so every category kept building
        # records for the rest of the world's life.
        scenario = stalled_scenario()
        bus = scenario.dumbbell.net.trace
        watchdog = Watchdog(scenario.sim, senders=scenario.senders, trace=bus).arm()
        assert len(bus.channel("tcp.send").subs) == 1
        scenario.sim.run(until=0.5)
        watchdog.disarm()
        assert bus.channel("tcp.send").subs == []
        assert not bus.has_subscribers("tcp.ack")
        captured = len(watchdog.tail)
        assert captured > 0  # evidence survives the disarm
        scenario.sim.run(until=0.8)
        assert len(watchdog.tail) == captured
        watchdog.disarm()  # idempotent
        # Re-arming guards (and captures) again.
        watchdog.arm()
        assert len(bus.channel("tcp.send").subs) == 1

    def test_trip_removes_the_tail_the_watchdog_created(self):
        scenario = stalled_scenario()
        bus = scenario.dumbbell.net.trace
        watchdog = Watchdog(
            scenario.sim, senders=scenario.senders, stall_timeout=5.0,
            check_interval=0.5, trace=bus,
        ).arm()
        scenario.sim.run(until=600.0)
        assert watchdog.triggered and watchdog.report.last_events
        assert bus.channel("tcp.send").subs == []

    def test_disarm_leaves_a_shared_tail_to_its_owner(self):
        scenario = stalled_scenario()
        bus = scenario.dumbbell.net.trace
        suite = InvariantSuite.standard().install(bus)
        watchdog = Watchdog(scenario.sim, senders=scenario.senders, tail=suite.tail).arm()
        assert watchdog.tail is suite.tail
        scenario.sim.run(until=0.5)
        watchdog.disarm()
        assert len(bus.channel("tcp.send").subs) == 1  # the suite's, untouched
        seen = suite.records_seen
        scenario.sim.run(until=0.8)
        assert suite.records_seen > seen
        assert suite.tail.records()[-1].time > 0.5

    def test_arm_is_idempotent(self):
        sim = Simulator()
        watchdog = Watchdog(sim, check_interval=1.0)
        watchdog.arm()
        watchdog.arm()
        assert sim.pending_events == 1

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Watchdog(sim, stall_timeout=0.0)
        with pytest.raises(ConfigurationError):
            Watchdog(sim, check_interval=-1.0)
