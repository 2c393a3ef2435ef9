"""The warm-start contract: prefix specs, the prefix index, the
snapshot store's one file format."""

import pytest

from repro.errors import SnapshotError
from repro.runner import PrefixSpec, SnapshotStore, fetch_prefix, step_until, warm_specs
from repro.runner.spec import TaskSpec
from repro.snapshot import Snapshot
from repro.snapshot.golden import build_golden_scenario


class CountingPrefix(PrefixSpec):
    """Counts how many times any instance actually simulates."""

    captures = 0

    def capture(self, label=""):
        type(self).captures += 1
        return super().capture(label)


def _prefix(variant="reno"):
    return CountingPrefix(
        fn="repro.snapshot.golden:build_golden_scenario",
        args=(variant,),
        label=f"golden prefix {variant}",
    )


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


class TestEnsurePrefix:
    def test_captures_once_per_spec(self, tmp_path):
        store = SnapshotStore(tmp_path)
        before = CountingPrefix.captures
        first = store.ensure_prefix(_prefix(), fingerprint="a" * 64)
        second = store.ensure_prefix(_prefix(), fingerprint="a" * 64)
        assert first == second
        assert CountingPrefix.captures == before + 1
        assert store.contains(first)

    def test_recaptures_under_a_new_fingerprint(self, tmp_path):
        store = SnapshotStore(tmp_path)
        before = CountingPrefix.captures
        store.ensure_prefix(_prefix(), fingerprint="a" * 64)
        store.ensure_prefix(_prefix(), fingerprint="b" * 64)
        assert CountingPrefix.captures == before + 2

    def test_stale_index_entry_recaptures(self, tmp_path):
        store = SnapshotStore(tmp_path)
        digest = store.ensure_prefix(_prefix(), fingerprint="a" * 64)
        store.path_for(digest).unlink()
        again = store.ensure_prefix(_prefix(), fingerprint="a" * 64)
        assert again == digest
        assert store.contains(digest)


class TestWarmSpecs:
    def _warm(self, store):
        return warm_specs(
            [("reno", 1), ("reno", 2), ("sack", 1)],
            prefix_for=lambda cell: _prefix(cell[0]),
            spec_for=lambda cell, digest: TaskSpec(
                fn="repro.models.mathis:mathis_window",
                args=(0.02,),
                kwargs={"digest": digest, "cell": cell},
            ),
            store=store,
            fingerprint="a" * 64,
        )

    def test_cells_share_prefix_captures(self, tmp_path):
        store = SnapshotStore(tmp_path)
        before = CountingPrefix.captures
        specs = self._warm(store)
        assert CountingPrefix.captures == before + 2  # one per variant
        assert len(specs) == 3
        digests = [spec.kwargs["digest"] for spec in specs]
        assert digests[0] == digests[1] != digests[2]
        assert all(store.contains(d) for d in digests)
        assert (store.prefix_captures, store.prefix_hits) == (2, 0)

    def test_second_pass_hits_the_prefix_index(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first = self._warm(store)
        before = CountingPrefix.captures
        again = self._warm(store)
        assert CountingPrefix.captures == before
        assert (store.prefix_captures, store.prefix_hits) == (2, 2)
        assert [s.kwargs["digest"] for s in again] == [
            s.kwargs["digest"] for s in first
        ]


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

    def test_fetch_prefix_recomputes_past_a_lone_delta(self, tmp_path):
        store = SnapshotStore(tmp_path)
        digest = store.ensure_prefix(_prefix(), fingerprint="a" * 64)
        payload = store.get(digest).payload
        store.path_for(digest).unlink()
        self._lone_delta(store, digest)
        healed = fetch_prefix(digest, store.root)  # from the recorded recipe
        assert healed.digest == digest and healed.payload == payload
        assert store.path_for(digest).exists() and store.intact(digest)
