"""Unit tests for the online invariant checkers."""

import pytest

from repro.errors import InvariantViolation
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.experiments.figure7 import Figure7Config, prefix_world
from repro.net.loss import UniformLoss
from repro.net.topology import DumbbellParams
from repro.sim.invariants import (
    AckMonotonicity,
    InvariantSuite,
    OneCutPerLossWindow,
    QueueOccupancyBounds,
    RecoverMonotonic,
    RedAverageBounds,
    RrStateSanity,
    SendWindowSanity,
)
from repro.sim.rng import RngStream
from repro.sim.tracing import TraceBus, TraceTail
from repro.tcp.base import TcpSender


def make_suite(*checkers, tail_size=50):
    suite = InvariantSuite(tail_size=tail_size)
    for checker in checkers:
        suite.add(checker)
    bus = TraceBus()
    suite.install(bus)
    return suite, bus


class TestAckMonotonicity:
    def test_regressing_ack_raises_with_tail(self):
        suite, bus = make_suite(AckMonotonicity())
        bus.emit(1.0, "tcp.ack", "rr/f1", ackno=5)
        with pytest.raises(InvariantViolation) as excinfo:
            bus.emit(2.0, "tcp.ack", "rr/f1", ackno=3)
        violation = excinfo.value
        assert violation.invariant == "ack-monotonic"
        assert violation.record.fields["ackno"] == 3
        # The offending record itself is part of the attached evidence.
        assert len(violation.tail) == 2
        assert violation.tail[-1] is violation.record
        assert "regressed" in str(violation)

    def test_flows_tracked_independently(self):
        suite, bus = make_suite(AckMonotonicity())
        bus.emit(1.0, "tcp.ack", "rr/f1", ackno=5)
        bus.emit(2.0, "tcp.ack", "rr/f2", ackno=1)  # different flow: fine
        bus.emit(3.0, "tcp.ack", "rr/f1", ackno=5)  # equal: fine

    def test_format_tail_renders_lines(self):
        suite, bus = make_suite(AckMonotonicity())
        bus.emit(1.0, "tcp.ack", "rr/f1", ackno=5)
        with pytest.raises(InvariantViolation) as excinfo:
            bus.emit(2.0, "tcp.ack", "rr/f1", ackno=0)
        rendered = excinfo.value.format_tail()
        assert "tcp.ack" in rendered and "rr/f1" in rendered


class TestSendWindowSanity:
    def test_una_beyond_nxt_raises(self):
        suite, bus = make_suite(SendWindowSanity())
        with pytest.raises(InvariantViolation):
            bus.emit(1.0, "tcp.send", "rr/f1", snd_una=9, snd_nxt=5)

    def test_nxt_beyond_maxseq_raises(self):
        suite, bus = make_suite(SendWindowSanity())
        with pytest.raises(InvariantViolation):
            bus.emit(1.0, "tcp.ack", "rr/f1", snd_una=1, snd_nxt=7, maxseq=5)

    def test_healthy_pointers_pass(self):
        suite, bus = make_suite(SendWindowSanity())
        bus.emit(1.0, "tcp.send", "rr/f1", snd_una=2, snd_nxt=6, maxseq=6)


class TestRrStateSanity:
    def test_negative_actnum_raises(self):
        suite, bus = make_suite(RrStateSanity())
        with pytest.raises(InvariantViolation):
            bus.emit(1.0, "tcp.rr", "rr/f1", phase="retreat", actnum=-1, ndup=0)

    def test_negative_ndup_raises(self):
        suite, bus = make_suite(RrStateSanity())
        with pytest.raises(InvariantViolation):
            bus.emit(1.0, "tcp.rr", "rr/f1", phase="probe", actnum=3, ndup=-2)


class TestRecoverMonotonic:
    def test_regression_within_episode_raises(self):
        suite, bus = make_suite(RecoverMonotonic())
        bus.emit(1.0, "tcp.recovery_enter", "rr/f1", recover=100)
        bus.emit(1.5, "tcp.rr", "rr/f1", recover=120)  # extend: fine
        with pytest.raises(InvariantViolation):
            bus.emit(2.0, "tcp.rr", "rr/f1", recover=90)

    def test_timeout_legitimately_resets_tracking(self):
        suite, bus = make_suite(RecoverMonotonic())
        bus.emit(1.0, "tcp.recovery_enter", "rr/f1", recover=100)
        bus.emit(1.5, "tcp.timeout", "rr/f1", snd_una=50)
        # After the episode ended, a lower recover is legal.
        bus.emit(2.0, "tcp.recovery_enter", "rr/f1", recover=60)
        bus.emit(2.5, "tcp.rr", "rr/f1", recover=60)

    def test_exit_ends_episode(self):
        suite, bus = make_suite(RecoverMonotonic())
        bus.emit(1.0, "tcp.recovery_enter", "rr/f1", recover=100)
        bus.emit(1.5, "tcp.recovery_exit", "rr/f1")
        bus.emit(2.0, "tcp.recovery_enter", "rr/f1", recover=40)


class TestOneCutPerLossWindow:
    def test_entry_before_the_window_ends_raises(self):
        suite, bus = make_suite(OneCutPerLossWindow())
        bus.emit(1.0, "tcp.recovery_enter", "newreno/f1", recover=100, snd_una=60)
        bus.emit(1.5, "tcp.recovery_exit", "newreno/f1")
        with pytest.raises(InvariantViolation) as excinfo:
            bus.emit(2.0, "tcp.recovery_enter", "newreno/f1", recover=120, snd_una=99)
        assert excinfo.value.invariant == "one-cut-per-window"

    def test_entry_at_the_end_of_the_window_is_a_new_window(self):
        suite, bus = make_suite(OneCutPerLossWindow())
        bus.emit(1.0, "tcp.recovery_enter", "rr/f1", recover=100, snd_una=60)
        bus.emit(2.0, "tcp.recovery_enter", "rr/f1", recover=150, snd_una=100)
        with pytest.raises(InvariantViolation):
            bus.emit(3.0, "tcp.recovery_enter", "rr/f1", recover=170, snd_una=149)

    def test_rr_extension_moves_the_end(self):
        suite, bus = make_suite(OneCutPerLossWindow())
        bus.emit(1.0, "tcp.recovery_enter", "rr/f1", recover=100, snd_una=60)
        bus.emit(1.5, "tcp.rr", "rr/f1", phase="probe", actnum=2, ndup=0, recover=130)
        with pytest.raises(InvariantViolation):
            bus.emit(2.0, "tcp.recovery_enter", "rr/f1", recover=140, snd_una=110)

    def test_timeout_ends_the_window_at_maxseq(self):
        suite, bus = make_suite(OneCutPerLossWindow())
        bus.emit(1.0, "tcp.recovery_enter", "sack/f1", recover=100, snd_una=60)
        bus.emit(1.5, "tcp.timeout", "sack/f1", snd_una=70, snd_nxt=110, maxseq=110)
        with pytest.raises(InvariantViolation):
            bus.emit(2.0, "tcp.recovery_enter", "sack/f1", recover=112, snd_una=105)
        suite, bus = make_suite(OneCutPerLossWindow())
        bus.emit(1.5, "tcp.timeout", "sack/f1", snd_una=70, snd_nxt=110, maxseq=110)
        bus.emit(2.0, "tcp.recovery_enter", "sack/f1", recover=130, snd_una=110)

    @pytest.mark.parametrize("source", ["reno/f1", "tahoe/f1", "sack3517/f1", "vegas/f1"])
    def test_other_variants_are_out_of_scope(self, source):
        suite, bus = make_suite(OneCutPerLossWindow())
        bus.emit(1.0, "tcp.recovery_enter", source, recover=100, snd_una=60)
        bus.emit(2.0, "tcp.recovery_enter", source, recover=120, snd_una=80)

    @staticmethod
    def lossy_world(variant, loss_rate, seed):
        """One flow on the Figure 7 path, uniform loss from t=0, watched."""
        config = Figure7Config()
        config.loss_start = 0.0
        scenario = prefix_world(variant, config)
        scenario.dumbbell.forward_link.loss = UniformLoss(
            loss_rate, RngStream(seed, f"scan-{loss_rate}")
        )
        suite = InvariantSuite.standard().install(scenario.dumbbell.net.trace)
        checker = next(c for c in suite.checkers if c.name == "one-cut-per-window")
        return scenario, checker

    @pytest.mark.parametrize("variant", ["newreno", "sack", "rr"])
    def test_silent_on_lossy_runs(self, variant):
        scenario, checker = self.lossy_world(variant, 0.03, 2)
        scenario.sim.run(until=30.0)
        sender = scenario.senders[1]
        assert sender.timeouts > 0
        assert checker.records_checked > sender.timeouts

    def test_catches_a_timeout_that_leaves_the_guard(self, monkeypatch):
        """Go-back-N resends echo duplicates from below the timed-out
        window; without the guard ``_on_timeout_reset`` sets, they start
        a second recovery inside it."""
        def reset_without_guard(sender):
            sender.recover = sender.snd_una

        monkeypatch.setattr(TcpSender, "_on_timeout_reset", reset_without_guard)
        scenario, _ = self.lossy_world("newreno", 0.03, 2)
        with pytest.raises(InvariantViolation) as excinfo:
            scenario.sim.run(until=30.0)
        assert excinfo.value.invariant == "one-cut-per-window"


class FakeQueue:
    def __init__(self, occupancy, limit=10, avg=None, name="fake"):
        self._occupancy = occupancy
        self.limit = limit
        self.name = name
        if avg is not None:
            self.avg = avg

    def __len__(self):
        return self._occupancy


class TestQueueProbes:
    def test_occupancy_over_limit_raises(self):
        queue = FakeQueue(occupancy=11, limit=10)
        suite, bus = make_suite(QueueOccupancyBounds(queue))
        with pytest.raises(InvariantViolation):
            bus.emit(1.0, "anything", "x")

    def test_red_average_out_of_bounds_raises(self):
        queue = FakeQueue(occupancy=3, limit=10, avg=10.5)
        suite, bus = make_suite(RedAverageBounds(queue))
        with pytest.raises(InvariantViolation):
            bus.emit(1.0, "anything", "x")

    def test_watch_queue_adds_red_probe_only_when_avg_exists(self):
        plain = FakeQueue(occupancy=0, limit=10)
        red = FakeQueue(occupancy=0, limit=10, avg=1.0)
        suite = InvariantSuite()
        suite.watch_queue(plain)
        suite.watch_queue(red)
        names = [type(c).__name__ for c in suite.checkers]
        assert names.count("QueueOccupancyBounds") == 2
        assert names.count("RedAverageBounds") == 1


class TestSuiteMechanics:
    def test_double_install_rejected(self):
        suite = InvariantSuite()
        bus = TraceBus()
        suite.install(bus)
        with pytest.raises(ValueError):
            suite.install(TraceBus())

    def test_uninstall_stops_checking(self):
        suite, bus = make_suite(AckMonotonicity())
        bus.emit(1.0, "tcp.ack", "rr/f1", ackno=5)
        suite.uninstall()
        bus.emit(2.0, "tcp.ack", "rr/f1", ackno=0)  # unseen: no raise

    def test_tail_capacity_bounds_evidence(self):
        suite, bus = make_suite(AckMonotonicity(), tail_size=3)
        for i in range(10):
            bus.emit(float(i), "tcp.ack", "rr/f1", ackno=i)
        with pytest.raises(InvariantViolation) as excinfo:
            bus.emit(11.0, "tcp.ack", "rr/f1", ackno=0)
        assert len(excinfo.value.tail) == 3

    def test_tail_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceTail(0)


class TestCleanRealRuns:
    @pytest.mark.parametrize("variant", ["tahoe", "newreno", "sack", "rr"])
    def test_standard_suite_silent_on_healthy_transfer(self, variant):
        scenario = build_dumbbell_scenario(
            flows=[FlowSpec(variant=variant, amount_packets=200)],
            params=DumbbellParams(n_pairs=1, buffer_packets=25),
        )
        suite = InvariantSuite.standard()
        suite.watch_queue(scenario.dumbbell.bottleneck_queue)
        suite.install(scenario.dumbbell.net.trace)
        # A mid-transfer outage exercises recovery under the checkers.
        scenario.dumbbell.forward_link.schedule_outage(start=1.0, duration=0.15)
        scenario.sim.run(until=300.0)
        assert scenario.senders[1].completed
        assert suite.records_seen > 0
        # The tcp categories actually reached the checkers.
        ack_checker = next(c for c in suite.checkers if c.name == "ack-monotonic")
        assert ack_checker.records_checked > 0
