"""Storage chaos: truncation, bit-flips, foreign formats.

Every corruption is injected on disk, then the read path is exercised:
corrupt entries must be quarantined (moved aside with a structured
record, never deleted, never returned) and foreign-format files must be
left in place and degraded to recompute.  What a damaged prefix
snapshot does to a warm grid is covered in
tests/experiments/test_warmstart_grids.py.
"""

import json
import os
import pickle

import pytest

from repro.errors import SnapshotError, SnapshotFormatError
from repro.runner import (
    ResultCache,
    SnapshotStore,
    SweepRunner,
    TaskSpec,
    read_quarantine,
)
from repro.runner.cache import CACHE_MAGIC
from repro.runner.pool import SweepObserver
from repro.snapshot.core import SNAPSHOT_FORMAT, Snapshot

from tests.snapshot.helpers import build_stalled_world


def _spec(fn, *args, label=""):
    return TaskSpec(fn=f"tests.runner.helpers:{fn}", args=args, label=label)


def _entry_path(cache, spec):
    return cache.root / cache.fingerprint[:16] / f"{spec.digest()}.pkl"


def _quarantined_path(cache, spec):
    return cache.quarantine_dir / f"{cache.fingerprint[:16]}-{spec.digest()}.pkl"


class TestCacheChaos:
    def test_truncated_entry_is_quarantined_on_first_read(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        spec = _spec("run_metrics_cell", "reno", 2.0)
        result = SweepRunner(cache=cache).map([spec])[0]
        path = _entry_path(cache, spec)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])

        hit, value = cache.lookup(spec)
        assert not hit and value is None
        assert not path.exists()  # moved, not left to be re-missed
        assert _quarantined_path(cache, spec).exists()
        (record,) = read_quarantine(cache.quarantine_dir)
        assert record.kind == "cache-entry"
        assert record.digest == spec.digest()
        assert cache.corrupt == 1

        # The sweep recomputes and repopulates; the healed entry hits.
        assert SweepRunner(cache=cache).map([spec]) == [result]
        hit, value = cache.lookup(spec)
        assert hit and value == result

    def test_bitflipped_payload_is_quarantined(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        spec = _spec("run_metrics_cell", "sack", 2.0)
        SweepRunner(cache=cache).map([spec])
        path = _entry_path(cache, spec)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF  # flip a bit deep in the pickle body
        path.write_bytes(bytes(data))

        hit, _ = cache.lookup(spec)
        assert not hit
        assert cache.corrupt == 1
        assert _quarantined_path(cache, spec).exists()

    def test_unframed_legacy_entry_is_a_miss(self, tmp_path):
        # An old (or foreign) entry without the checksum frame
        # never crashes the sweep; it reads as corruption and is moved.
        cache = ResultCache(root=tmp_path / "cache")
        spec = _spec("run_metrics_cell", "tahoe", 2.0)
        path = _entry_path(cache, spec)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"canonical": spec.canonical(), "result": 1}))
        hit, _ = cache.lookup(spec)
        assert not hit

    def test_frame_magic_is_versioned(self):
        assert CACHE_MAGIC.startswith(b"repro-cache:")


class TestStoreFailureChaos:
    def test_unpicklable_result_degrades_with_one_event(self, tmp_path, capsys):
        events = []

        class Recording(SweepObserver):
            def cache_store_failed(self, index, spec, reason):
                events.append((index, reason))

        cache = ResultCache(root=tmp_path / "cache")
        runner = SweepRunner(cache=cache, observer=Recording())
        (result,) = runner.map([_spec("unpicklable_result_cell")])
        assert callable(result)  # the sweep itself still succeeded
        assert runner.stats.cache_store_failures == 1
        assert cache.store_failures == 1
        assert "does not pickle" in events[0][1]
        assert "caching is degraded" in capsys.readouterr().err


    @pytest.mark.parametrize("obstacle", ["file-in-the-way", "read-only"])
    def test_unwritable_cache_dir_degrades_instead_of_raising(
        self, tmp_path, obstacle, request
    ):
        events = []

        class Recording(SweepObserver):
            def cache_store_failed(self, index, spec, reason):
                events.append((index, reason))

        root = tmp_path / "cache"
        if obstacle == "file-in-the-way":
            root.write_text("not a directory")
        else:
            root.mkdir()
            root.chmod(0o500)
            request.addfinalizer(lambda: root.chmod(0o700))
            if os.access(root, os.W_OK):  # root, or a platform without modes
                pytest.skip("cannot make a directory read-only here")

        cache = ResultCache(root=root)
        spec = _spec("run_metrics_cell", "reno", 2.0)
        assert cache.store(spec, {"x": 1}) is False
        assert cache.store_failures == 1
        assert "cache write failed" in cache.last_store_error

        runner = SweepRunner(cache=cache, observer=Recording())
        (result,) = runner.map([spec])
        assert result["variant"] == "reno"  # computed, and not lost
        assert runner.stats.cache_store_failures == 1
        assert cache.store_failures == 2
        assert [index for index, _ in events] == [0]


class TestSnapshotChaos:
    def test_corrupt_snapshot_quarantined_on_get(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        digest = store.put(Snapshot.capture(build_stalled_world()))
        path = store.path_for(digest)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

        assert not store.intact(digest)
        assert not path.exists()
        records = read_quarantine(store.quarantine_dir)
        assert any(r.kind == "snapshot" and r.digest == digest for r in records)

    def test_foreign_format_left_in_place(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        digest = "ab" * 32
        path = store.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "magic": "repro-snapshot",
            "format": SNAPSHOT_FORMAT + 1,
            "digest": digest,
        }
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"x" * 32)
        assert not store.intact(digest)  # cross-version: degrade ...
        assert path.exists()  # ... but never quarantine a foreign file
        with pytest.raises(SnapshotFormatError):
            store.get(digest)
        assert read_quarantine(store.quarantine_dir) == []

    def test_corrupt_triage_fork_is_quarantined_on_read(self, tmp_path):
        from repro.faults import triage_crash

        store = SnapshotStore(tmp_path / "snaps")
        crash = Snapshot.capture(build_stalled_world(), label="crash point")
        result = triage_crash(crash, grace=5.0, store=store)
        fork_path = store.path_for(result.without_fault_digest)
        data = bytearray(fork_path.read_bytes())
        data[-5] ^= 0xFF
        fork_path.write_bytes(bytes(data))

        with pytest.raises(SnapshotError):
            store.get(result.without_fault_digest)
        assert not fork_path.exists()
        (record,) = read_quarantine(store.quarantine_dir)
        assert record.kind == "snapshot"
        assert record.digest == result.without_fault_digest
        # Forks are self-contained: the crash point and the other arm
        # are untouched by the loss of this one.
        assert store.intact(crash.digest)
        assert store.intact(result.with_fault_digest)

