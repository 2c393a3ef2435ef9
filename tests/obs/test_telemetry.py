"""RunTelemetry: the per-run orchestrator wiring runner → manifest,
heartbeat, progress, and profiles."""

import io

import pytest

from repro.obs import MANIFEST_FILENAME, RunManifest, RunTelemetry, read_events
from repro.runner import ResultCache, SweepRunner, TaskSpec


def _specs(n, fail_at=None):
    fn = "tests.runner.test_salvage:boom"
    bad = (fail_at,) if fail_at is not None else ()
    return [TaskSpec(fn=fn, args=(i, bad), label=f"cell {i}") for i in range(n)]


def _telemetry(tmp_path, **kwargs):
    kwargs.setdefault("stream", io.StringIO())
    kwargs.setdefault("root", tmp_path)
    return RunTelemetry("fig5", args={"jobs": 1}, **kwargs)


class TestRunLifecycle:
    def test_finish_writes_manifest_and_heartbeat(self, tmp_path):
        telemetry = _telemetry(tmp_path)
        runner = SweepRunner()
        telemetry.attach(runner)
        assert runner.observer is telemetry
        runner.map(_specs(3))
        telemetry.detach(runner)
        assert runner.observer is None
        path = telemetry.finish()

        assert path == telemetry.run_dir / MANIFEST_FILENAME
        manifest = RunManifest.load(path)
        assert manifest.harness == "fig5"
        assert manifest.outcome == "ok"
        assert manifest.args == {"jobs": 1}
        assert manifest.total == 3
        assert manifest.executed == 3
        assert manifest.cached == 0
        assert len(manifest.tasks) == 3
        assert manifest.tasks[0]["label"] == "cell 0"
        assert manifest.wall_seconds > 0

        events = read_events(telemetry.run_dir / "events.jsonl")
        assert [e["event"] for e in events][0] == "sweep_started"
        assert events[-1]["event"] == "sweep_finished"

    def test_manifest_accumulates_across_map_calls(self, tmp_path):
        # A harness may map more than once: every sweep must land in
        # one manifest.
        telemetry = _telemetry(tmp_path)
        runner = SweepRunner(cache=ResultCache(root=tmp_path / "cache"))
        telemetry.attach(runner)
        runner.map(_specs(2))
        runner.map(_specs(2))  # replayed from cache
        telemetry.detach(runner)
        manifest = RunManifest.load(telemetry.finish())
        assert manifest.total == 4
        assert manifest.executed == 2
        assert manifest.cached == 2
        assert manifest.cache_hit_rate == 0.5
        assert {t["sweep"] for t in manifest.tasks} == {0, 1}

    def test_abort_records_the_failure(self, tmp_path):
        telemetry = _telemetry(tmp_path)
        runner = SweepRunner()
        telemetry.attach(runner)
        with pytest.raises(ValueError):
            runner.map(_specs(3, fail_at=1))
        try:
            raise ValueError("boom 1")
        except ValueError as error:
            path = telemetry.abort(error)
        finally:
            telemetry.detach(runner)
        manifest = RunManifest.load(path)
        assert manifest.outcome.startswith("failed: ValueError")
        assert manifest.failed == 1
        assert manifest.salvaged == 2
        errors = [t["error"] for t in manifest.tasks if t["error"]]
        assert errors and "boom 1" in errors[0]

    def test_profile_capture_and_report(self, tmp_path):
        telemetry = _telemetry(tmp_path, profile=True)
        runner = SweepRunner()
        telemetry.attach(runner)
        assert runner.profile_dir == telemetry.profile_dir
        runner.map(_specs(2))
        telemetry.detach(runner)
        assert runner.profile_dir is None
        telemetry.finish()
        report = telemetry.profile_report(top=5)
        assert "merged profile over 2 task capture(s)" in report
        assert "hot function (merged)" in report

    def test_no_profile_report_when_not_profiling(self, tmp_path):
        telemetry = _telemetry(tmp_path)
        assert telemetry.profile_report() is None

    def test_progress_suppressed_on_pipe_stream(self, tmp_path):
        stream = io.StringIO()
        telemetry = _telemetry(tmp_path, stream=stream)
        runner = SweepRunner()
        telemetry.attach(runner)
        runner.map(_specs(2))
        telemetry.detach(runner)
        telemetry.finish()
        assert stream.getvalue() == ""

    def test_progress_forced_on(self, tmp_path):
        stream = io.StringIO()
        telemetry = _telemetry(tmp_path, stream=stream, progress=True)
        runner = SweepRunner()
        telemetry.attach(runner)
        runner.map(_specs(2))
        telemetry.detach(runner)
        telemetry.finish()
        assert "[fig5] 2/2 done" in stream.getvalue()
