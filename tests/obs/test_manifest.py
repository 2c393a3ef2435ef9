"""RunManifest schema: round-trip, rejection, atomic layout."""

import json
import re

import pytest

from repro.config import TcpConfig
from repro.errors import ConfigurationError
from repro.obs import (
    MANIFEST_FILENAME,
    MANIFEST_FORMAT,
    RunManifest,
    artifact_root,
    new_run_id,
    runs_root,
)


def _manifest():
    manifest = RunManifest.begin(
        "fig5", args={"quick": True, "jobs": 2}, fingerprint="f" * 64
    )
    manifest.describe_harness("fig5", config=TcpConfig(), seed=7, grid="heldout")
    manifest.total = 3
    manifest.cached = 1
    manifest.executed = 2
    manifest.wall_seconds = 1.25
    manifest.tasks.append(
        {
            "sweep": 0,
            "index": 0,
            "label": "fig5 rr",
            "digest": "ab" * 32,
            "cached": True,
            "seconds": None,
            "error": None,
        }
    )
    manifest.finish()
    return manifest


class TestRoundTrip:
    def test_json_round_trip_preserves_all_fields(self):
        manifest = _manifest()
        assert manifest.format == MANIFEST_FORMAT == 3
        again = RunManifest.from_json(manifest.to_json())
        assert again == manifest

    def test_write_then_load(self, tmp_path):
        manifest = _manifest()
        path = manifest.write(tmp_path)
        assert path == tmp_path / "runs" / manifest.run_id / MANIFEST_FILENAME
        assert RunManifest.load(path) == manifest

    def test_describe_harness_canonicalizes_config(self):
        manifest = _manifest()
        config_args = manifest.args["config"]
        assert config_args["__dataclass__"] == "repro.config.TcpConfig"
        assert manifest.seed == 7
        assert manifest.args["grid"] == "heldout"  # extras ride along
        assert manifest.args["quick"] is True  # begin() args survive

    def test_cache_hit_rate(self):
        manifest = _manifest()
        assert manifest.cache_hit_rate == pytest.approx(1 / 3)
        payload = json.loads(manifest.to_json())
        assert payload["cache_hit_rate"] == pytest.approx(0.3333)

    def test_outcome_lifecycle(self):
        manifest = RunManifest.begin("fig6", fingerprint="f" * 64)
        assert manifest.outcome == "running"
        assert manifest.finished_at is None
        manifest.finish()
        assert manifest.outcome == "ok"
        assert manifest.finished_at is not None


class TestRejection:
    def test_unknown_format_rejected(self):
        payload = json.loads(_manifest().to_json())
        payload["format"] = MANIFEST_FORMAT + 1
        with pytest.raises(ConfigurationError, match="unsupported manifest format"):
            RunManifest.from_json(json.dumps(payload))

    def test_previous_format_rejected_by_version_not_by_field(self):
        # A format-2 file carries the retry counters format 3 dropped;
        # the reader must say "format", not "unknown fields".
        payload = json.loads(_manifest().to_json())
        payload.update(format=2, retried=0, quarantined=0)
        with pytest.raises(ConfigurationError, match="unsupported manifest format 2"):
            RunManifest.from_json(json.dumps(payload))

    def test_missing_format_rejected(self):
        payload = json.loads(_manifest().to_json())
        del payload["format"]
        with pytest.raises(ConfigurationError, match="unsupported manifest format"):
            RunManifest.from_json(json.dumps(payload))

    def test_unknown_fields_rejected(self):
        payload = json.loads(_manifest().to_json())
        payload["surprise"] = 1
        with pytest.raises(ConfigurationError, match="unknown fields.*surprise"):
            RunManifest.from_json(json.dumps(payload))


class TestRoots:
    def test_artifact_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "elsewhere"))
        assert artifact_root() == tmp_path / "elsewhere"
        assert runs_root() == tmp_path / "elsewhere" / "runs"

    def test_run_ids_are_distinct_and_prefixed(self):
        first, second = new_run_id("fig5"), new_run_id("fig5")
        assert re.fullmatch(r"fig5-\d{8}-\d{6}-[0-9a-f]{6}", first), first
        assert first != second

    def test_write_defaults_to_artifact_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "out"))
        manifest = _manifest()
        path = manifest.write()
        assert path.is_file()
        assert path.parent.parent == tmp_path / "out" / "runs"
