"""Tests for the experiments CLI."""

import pytest

from repro.experiments.cli import EXPERIMENTS, main
from repro.snapshot.core import SNAPSHOT_FORMAT


class TestDispatch:
    def test_all_design_md_ids_registered(self):
        assert {"fig5", "fig6", "fig7", "table5", "ackloss", "ablation",
                "vegas", "burst"} <= set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["does-not-exist"])
        assert excinfo.value.code != 0

    def test_quick_fig5_runs(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "===== fig5 =====" in out
        assert "6 packet losses" in out

    def test_quick_ablation_runs(self, capsys):
        assert main(["ablation", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "rr-retreat-always" in out

    def test_out_directory_written(self, capsys, tmp_path):
        target = tmp_path / "reports"
        assert main(["ablation", "--quick", "--out", str(target)]) == 0
        written = target / "ablation.txt"
        assert written.exists()
        assert "rr-retreat-always" in written.read_text()

    def test_vegas_quick_runs(self, capsys):
        assert main(["vegas", "--quick"]) == 0
        assert "vegas-rec-only" in capsys.readouterr().out

    def test_burst_quick_runs(self, capsys):
        assert main(["burst", "--quick"]) == 0
        assert "burst len" in capsys.readouterr().out


class TestTelemetry:
    """Every CLI run writes a provenance manifest (ISSUE 5 acceptance)."""

    def _runs(self, tmp_path):
        root = tmp_path / "artifacts" / "runs"
        return sorted(root.iterdir()) if root.is_dir() else []

    def test_run_writes_a_manifest(self, capsys, tmp_path, monkeypatch):
        from repro.obs import RunManifest

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
        assert main(["ablation", "--quick", "--quiet", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "[manifest]" in out
        runs = self._runs(tmp_path)
        assert len(runs) == 1
        manifest = RunManifest.load(runs[0] / "manifest.json")
        assert manifest.harness == "ablation"
        assert manifest.outcome == "ok"
        assert manifest.run_id.startswith("ablation-")
        assert manifest.args["quick"] is True
        assert manifest.args["cache"] is False
        assert manifest.args["config"]["__dataclass__"].endswith("AblationConfig")
        assert manifest.total == len(manifest.tasks) > 0
        assert manifest.executed + manifest.cached == manifest.total
        assert manifest.failed == 0
        assert manifest.code_fingerprint

    def test_heartbeat_log_written_next_to_manifest(self, tmp_path, monkeypatch, capsys):
        from repro.obs import read_events

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
        assert main(["ablation", "--quick", "--quiet", "--no-cache"]) == 0
        (run_dir,) = self._runs(tmp_path)
        events = read_events(run_dir / "events.jsonl")
        kinds = [event["event"] for event in events]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert "task_finished" in kinds

    def test_fig5_profile_writes_pstats_and_merged_table(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
        assert main(["fig5", "--quick", "--quiet", "--no-cache", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "hot function (merged)" in out
        (run_dir,) = self._runs(tmp_path)
        captures = sorted((run_dir / "profiles").glob("*.pstats"))
        assert captures
        assert all(p.name.startswith("task-") for p in captures)

    def test_failed_run_still_writes_manifest(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import ablation
        from repro.obs import RunManifest

        def exploding(args, runner, manifest=None):
            raise RuntimeError("harness blew up")

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
        monkeypatch.setattr(ablation, "run_cli", exploding)
        with pytest.raises(RuntimeError, match="harness blew up"):
            main(["ablation", "--quick", "--quiet"])
        (run_dir,) = self._runs(tmp_path)
        manifest = RunManifest.load(run_dir / "manifest.json")
        assert manifest.outcome.startswith("failed: RuntimeError")


class TestBadValues:
    """Input from outside the program: a bad value is a one-line usage
    error with exit status 2, never a traceback or a silent run."""

    @pytest.mark.parametrize(
        "argv,complaint",
        [
            (["fig5", "--jobs", "0"], "--jobs must be >= 1"),
            (["chaos", "--seeds", "0"], "--seeds must be >= 1"),
        ],
        ids=["jobs", "seeds"],
    )
    def test_out_of_range_number_is_a_usage_error(self, capsys, tmp_path, argv, complaint):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--quick", "--quiet", "--no-cache"])
        assert excinfo.value.code == 2
        assert complaint in capsys.readouterr().err
        assert not (tmp_path / "artifacts").exists()  # nothing ran

    @pytest.mark.parametrize(
        "argv,complaint",
        [
            (["chaos", "--variants", "bogus"], "unknown TCP variant 'bogus'"),
            (["identify", "--variants", "bogus"], "unknown TCP variant 'bogus'"),
            (["manyflow", "--scene", "bogus"], "unknown scene family 'bogus'"),
        ],
        ids=["chaos-variants", "identify-variants", "manyflow-scene"],
    )
    def test_unknown_name_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, argv, complaint
    ):
        from repro.experiments import cli
        from repro.obs import RunManifest

        real_build_runner, runners = cli.build_runner, []
        monkeypatch.setattr(
            cli,
            "build_runner",
            lambda **kwargs: runners.append(real_build_runner(**kwargs)) or runners[-1],
        )
        assert main(argv + ["--quick", "--quiet", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-experiments: error: ") and complaint in line
        (runner,) = runners
        assert runner.stats.total == 0
        (run_dir,) = (tmp_path / "artifacts" / "runs").iterdir()
        manifest = RunManifest.load(run_dir / "manifest.json")
        assert manifest.outcome.startswith("failed: ConfigurationError")
        assert manifest.total == 0

    def test_warm_start_flag_is_gone(self, capsys):
        # Spelled in two pieces so that grepping the tree for the
        # removed flag finds nothing.
        flag = "--warm" + "-start"
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7", "--quick", flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "warm" not in capsys.readouterr().out


class TestListing:
    def test_list_enumerates_every_experiment(self, capsys):
        from repro.experiments.cli import DESCRIPTIONS

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name, description in DESCRIPTIONS.items():
            assert name in out
            assert description in out
        assert "all" in out

    def test_every_experiment_has_a_description(self):
        from repro.experiments.cli import DESCRIPTIONS
        from repro.experiments.export_results import _CONVERTERS

        assert set(DESCRIPTIONS) == set(EXPERIMENTS)
        # A deleted harness must not leave its exporter behind.
        assert set(_CONVERTERS) <= set(EXPERIMENTS)

    @pytest.mark.parametrize(
        "name,phrase",
        [
            ("fig6", "sequence-number dynamics under RED gateways"),
            ("fig7", "fitness to the Mathis square-root model"),
            ("table5", "RR interoperating with"),
            ("table5", "transfer delay"),
        ],
    )
    def test_description_says_what_the_harness_does(self, name, phrase):
        """``--list`` once described three harnesses that do not exist
        (cwnd trajectories, goodput vs. loss, fairness shares): the
        description must share its key phrase with the harness's own
        module docstring."""
        from importlib import import_module

        from repro.experiments.cli import DESCRIPTIONS

        harness = import_module(f"repro.experiments.{EXPERIMENTS[name]}")
        assert phrase in DESCRIPTIONS[name]
        assert phrase in " ".join(harness.__doc__.split())

    def test_no_arguments_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code != 0


class TestSnapshotSubcommand:
    def test_capture_inspect_run_cycle(self, capsys, tmp_path):
        path = tmp_path / "rr.snap"
        assert main([
            "snapshot", "capture", "rr", "--checkpoint-at", "2.0",
            "--out", str(path),
        ]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "captured rr at t=2" in out

        assert main(["snapshot", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"format {SNAPSHOT_FORMAT}" in out
        assert "t=2" in out

        assert main([
            "snapshot", "run", "--from-snapshot", str(path), "--until", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert "flow 1 (rr)" in out

    def test_unknown_verb_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["snapshot", "explode"])
        assert excinfo.value.code != 0
