"""The storage fsck sweep and its CLI entry point."""

import json
import pickle

from repro.experiments.cli import fsck_cli
from repro.runner import (
    ResultCache,
    SnapshotStore,
    SweepRunner,
    TaskSpec,
    fsck,
    read_quarantine,
)
from repro.runner.warmstart import SNAPSHOT_SUBDIR
from repro.snapshot import Snapshot

from tests.resilience.helpers import build_stalled_world


def _spec(variant):
    return TaskSpec(
        fn="tests.resilience.helpers:run_metrics_cell", args=(variant, 2.0)
    )


def _populate(root):
    """A small real store: two cache entries + one prefix snapshot."""
    cache = ResultCache(root=root)
    SweepRunner(cache=cache).map([_spec("reno"), _spec("rr")])
    store = SnapshotStore(root / SNAPSHOT_SUBDIR)
    digest = store.put(Snapshot.capture(build_stalled_world()))
    return cache, store, digest


def test_clean_store_reports_clean(tmp_path):
    _populate(tmp_path / "cache")
    report = fsck(cache_root=tmp_path / "cache")
    assert report.clean
    assert report.scanned == 3  # 2 cache entries + 1 snap
    assert report.ok == report.scanned
    assert "0 issue(s)" in report.summary()


def test_dry_run_reports_but_touches_nothing(tmp_path):
    cache, store, digest = _populate(tmp_path / "cache")
    snap_path = store.path_for(digest)
    snap_path.write_bytes(b"garbage")
    entry = next((cache.root / cache.fingerprint[:16]).glob("*.pkl"))
    entry.write_bytes(b"also garbage")

    report = fsck(cache_root=tmp_path / "cache", repair=False)
    assert not report.clean
    assert report.repaired == 0
    assert all(issue.action == "reported" for issue in report.issues)
    # Nothing moved: the corrupt files are still exactly where they were.
    assert snap_path.exists() and entry.exists()
    assert read_quarantine(store.quarantine_dir) == []
    assert read_quarantine(cache.quarantine_dir) == []


def test_repair_quarantines_corruption(tmp_path):
    cache, store, digest = _populate(tmp_path / "cache")
    store.path_for(digest).write_bytes(b"garbage")
    entry = next((cache.root / cache.fingerprint[:16]).glob("*.pkl"))
    data = bytearray(entry.read_bytes())
    data[-3] ^= 0xFF
    entry.write_bytes(bytes(data))

    report = fsck(cache_root=tmp_path / "cache")
    kinds = {(i.kind, i.action) for i in report.issues}
    assert ("cache-entry", "quarantined") in kinds
    assert ("snapshot", "quarantined") in kinds
    assert report.repaired == len(report.issues) == 2
    assert not entry.exists()
    assert not store.path_for(digest).exists()

    # A second pass over the repaired store is clean.
    assert fsck(cache_root=tmp_path / "cache").clean


def test_foreign_entries_are_counted_but_left(tmp_path):
    cache, store, _ = _populate(tmp_path / "cache")
    legacy = cache.root / cache.fingerprint[:16] / ("ab" * 32 + ".pkl")
    legacy.write_bytes(pickle.dumps({"canonical": "{}", "result": 0}))

    report = fsck(cache_root=tmp_path / "cache")
    assert report.clean
    assert report.foreign == 1
    assert legacy.exists()


def test_stray_delta_is_foreign_not_quarantined(tmp_path):
    # A fork an older build stored as a diff: this build keeps every
    # snapshot in full and cannot read it (mixed-version policy: count
    # it, leave it).
    root = tmp_path / "cache"
    _, store, _ = _populate(root)
    stray = store.root / ("cd" * 32 + ".delta")
    stray.write_bytes(b'{"magic": "repro-snapshot-delta", "format": 1}\n')

    report = fsck(cache_root=root)
    assert report.clean
    assert report.foreign == 1
    assert report.ok == report.scanned - 1
    assert stray.exists()
    assert read_quarantine(store.quarantine_dir) == []


def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_prefix_index_left_by_older_builds_is_foreign(tmp_path, capsys):
    # Older builds kept a JSON prefix index and recipe files beside the
    # snapshots; this one never reads them (count them, leave them).
    root = tmp_path / "cache"
    _, store, digest = _populate(root)
    index = store.root / "prefix-index" / ("0f" * 8) / ("e1" * 32 + ".json")
    meta = store.root / "prefix-meta" / f"{digest}.json"
    for path in (index, meta):
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"snapshot": digest, "spec": "{}"}))
    before = _tree(root)

    report = fsck(cache_root=root)
    assert report.clean
    assert report.foreign == 2 and report.scanned == 5
    assert fsck_cli(["--cache-root", str(root)]) == 0
    capsys.readouterr()
    assert _tree(root) == before


class TestFsckCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        _populate(tmp_path / "cache")
        code = fsck_cli(["--cache-root", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "fsck" in out and "0 issue(s)" in out

    def test_repair_exit_zero_dry_run_exit_one(self, tmp_path, capsys):
        _, store, digest = _populate(tmp_path / "cache")
        store.path_for(digest).write_bytes(b"garbage")
        assert fsck_cli(["--cache-root", str(tmp_path / "cache"), "--dry-run"]) == 1
        # The dry run left the corruption; a repair pass fixes it.
        assert fsck_cli(["--cache-root", str(tmp_path / "cache")]) == 0
        assert fsck_cli(["--cache-root", str(tmp_path / "cache")]) == 0
        capsys.readouterr()

    def test_main_dispatches_fsck(self, tmp_path, capsys):
        from repro.experiments.cli import main

        _populate(tmp_path / "cache")
        code = main(["fsck", "--cache-root", str(tmp_path / "cache")])
        assert code == 0
        assert "fsck" in capsys.readouterr().out


def test_manifest_records_fsck_counters_roundtrip(tmp_path):
    # Older manifests (no resilience fields) still load: defaults apply.
    from repro.obs import RunManifest

    manifest = RunManifest.begin("fig5", fingerprint="f" * 64)
    payload = json.loads(manifest.to_json())
    for key in ("retried", "quarantined", "cache_store_failures"):
        payload.pop(key, None)
    stripped = tmp_path / "manifest.json"
    stripped.write_text(json.dumps(payload))
    loaded = RunManifest.load(stripped)
    assert loaded.retried == 0
    assert loaded.quarantined == 0
    assert loaded.cache_store_failures == 0
