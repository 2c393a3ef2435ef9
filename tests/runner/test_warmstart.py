"""The snapshot store's one file format and the prefix builder's
stepping loop."""

import pytest

from repro.errors import SnapshotError
from repro.runner import SnapshotStore, step_until
from repro.snapshot import Snapshot
from repro.snapshot.golden import build_golden_scenario


def _snapshot(variant="reno", until=1.0):
    world = build_golden_scenario(variant)
    world.sim.run(until=until)
    return Snapshot.capture(world, label=f"{variant}@{until:g}")


class TestStepUntil:
    def test_stops_when_predicate_holds(self):
        world = build_golden_scenario("reno")
        sender = world.senders[1]
        assert step_until(world.sim, lambda: sender.maxseq >= 10, deadline=30.0)
        assert sender.maxseq >= 10

    def test_gives_up_at_deadline(self):
        world = build_golden_scenario("reno")
        assert not step_until(world.sim, lambda: False, step=0.5, deadline=2.0)
        assert world.sim.now >= 2.0


class TestStrayDelta:
    """Builds before the one-format store wrote some forks as
    ``<digest>.delta`` diffs.  This build stores every snapshot in full
    and does not read them: a lone ``.delta`` is a missing snapshot."""

    def _lone_delta(self, store, digest):
        path = store.root / f"{digest}.delta"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b'{"magic": "repro-snapshot-delta", "format": 1}\n')
        return path

    def test_lone_delta_is_not_a_stored_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snapshot = _snapshot()
        stray = self._lone_delta(store, snapshot.digest)
        assert not store.contains(snapshot.digest)
        assert not store.intact(snapshot.digest)
        with pytest.raises(SnapshotError, match="no snapshot"):
            store.get(snapshot.digest)
        with pytest.raises(SnapshotError, match="no snapshot"):
            store.info(snapshot.digest)
        # Foreign, not corrupt: left exactly where it was.
        assert stray.exists()
        assert not store.quarantine_dir.exists()

    def test_put_stores_in_full_beside_a_stray_delta(self, tmp_path):
        store = SnapshotStore(tmp_path)
        fork = _snapshot(until=6.0)
        stray = self._lone_delta(store, fork.digest)
        assert store.put(fork) == fork.digest
        assert store.path_for(fork.digest).exists()
        assert store.get(fork.digest).payload == fork.payload
        assert store.info(fork.digest) == fork.info
        assert stray.exists()
