"""Snapshot-based crash triage: neutralization and bisection."""

from repro.faults import neutralize_faults, triage_crash
from repro.net.loss import NoLoss
from repro.runner import SnapshotStore
from repro.snapshot import Snapshot, state_digest
from repro.snapshot.golden import build_golden_scenario


def _stalled_world():
    """A golden world wedged by a permanent forward-link outage: RTOs
    fire into a dead link, so no flow makes progress."""
    world = build_golden_scenario("reno")
    world.sim.run(until=1.0)
    world.dumbbell.forward_link.set_down()
    world.sim.run(until=6.0)
    return world


class TestNeutralizeFaults:
    def test_raises_links_clears_loss_cancels_outage_events(self):
        world = build_golden_scenario("reno")
        world.sim.run(until=1.0)
        link = world.dumbbell.forward_link
        link.set_down()
        pending = world.sim.schedule(5.0, link.set_up)
        notes = neutralize_faults(world)
        assert not link.is_down
        assert isinstance(link.loss, NoLoss)  # golden drops cleared too
        assert not pending.pending
        assert any("raised downed link" in note for note in notes)
        assert any("cancelled scheduled set_up" in note for note in notes)

    def test_resets_timer_skew(self):
        world = build_golden_scenario("reno")
        sender = world.senders[1]
        sender.set_timer_granularity(sender.config.timer_granularity * 4)
        notes = neutralize_faults(world)
        assert sender.timer_granularity == sender.config.timer_granularity
        assert any("timer granularity" in note for note in notes)

    def test_healthy_world_yields_only_loss_note(self):
        world = build_golden_scenario("reno")
        notes = neutralize_faults(world)
        # The golden scenario's engineered drops count as a fault to
        # clear; nothing else is installed.
        assert notes == ["cleared loss on R1->R2"] or len(notes) == 1


class TestTriageCrash:
    def test_outage_is_implicated(self, tmp_path):
        snapshot = Snapshot.capture(_stalled_world(), label="stalled")
        store = SnapshotStore(tmp_path)
        result = triage_crash(snapshot, grace=30.0, store=store)
        assert not result.with_fault_recovered
        assert result.without_fault_recovered
        assert result.fault_implicated
        assert result.crash_digest == snapshot.digest
        assert "implicated" in result.verdict()
        assert result.crash_digest[:12] in result.format()

    def test_forks_are_persisted_and_replayable(self, tmp_path):
        snapshot = Snapshot.capture(_stalled_world(), label="stalled")
        store = SnapshotStore(tmp_path)
        result = triage_crash(snapshot, grace=10.0, store=store)
        # Crash point and both fork end-points are full .snap files, and
        # nothing else was written beside them.
        digests = (
            snapshot.digest,
            result.with_fault_digest,
            result.without_fault_digest,
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{digest}.snap" for digest in digests
        )
        for digest in digests[1:]:
            assert state_digest(store.get(digest).restore()) == digest

    def test_store_is_optional(self):
        snapshot = Snapshot.capture(_stalled_world(), label="stalled")
        result = triage_crash(snapshot, grace=10.0)
        assert result.with_fault_digest and result.without_fault_digest
