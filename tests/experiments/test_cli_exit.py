"""The CLI's process exit path (``repro.experiments.cli.console_main``).

A CLI process freezes the collector before teardown, so the interpreter
skips its final collection pass (docs/PERFORMANCE.md "Cost of a CLI
call").  These tests check that nothing a caller sees changes: exit
status, stdout, the manifest and the event log.
"""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from repro.experiments.cli import main

REPO = Path(__file__).resolve().parents[2]
_MANIFEST_LINE = re.compile(r"^\[manifest\] (.+)$", re.MULTILINE)


def report_text(stdout):
    """The report: stdout less the run-specific lines."""
    return "\n".join(
        line for line in stdout.splitlines()
        if not line.startswith(("[runner]", "[manifest]"))
    )


def cli_process(argv, tmp_path):
    env = {
        **os.environ,
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "REPRO_ARTIFACT_DIR": str(tmp_path / "artifacts"),
    }
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def in_process_fig6(tmp_path_factory):
    """``main()``'s fig6 report, run in this process without a cache."""
    root = tmp_path_factory.mktemp("in-process")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ARTIFACT_DIR", str(root))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["fig6", "--quick", "--quiet", "--no-cache"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fig6_process_matches_in_process_main(tmp_path, in_process_fig6, jobs):
    done = cli_process(["fig6", "--quick", "--quiet", "--jobs", jobs], tmp_path)
    assert done.returncode == 0, done.stderr
    assert report_text(done.stdout) == report_text(in_process_fig6)

    manifest_path = Path(_MANIFEST_LINE.search(done.stdout).group(1))
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outcome"] == "ok"
    assert manifest["total"] > 0
    assert manifest["executed"] == manifest["total"]
    assert len(manifest["tasks"]) == manifest["total"]
    events = manifest_path.with_name("events.jsonl").read_text().splitlines()
    assert json.loads(events[-1])["event"] == "sweep_finished"


@pytest.mark.parametrize(
    "argv",
    [
        ["fig6", "--jobs", "0"],  # argparse usage error
        [],  # no experiment id
        ["manyflow", "--quick", "--scene", "no-such-family"],  # ConfigurationError
    ],
)
def test_errors_keep_exit_status_2(tmp_path, argv):
    done = cli_process(argv, tmp_path)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr


def test_in_process_main_leaves_the_collector_alone(capsys):
    assert main(["--list"]) == 0
    assert gc.get_freeze_count() == 0


def test_console_script_uses_the_exit_helper():
    with open(REPO / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts["repro-experiments"] == "repro.experiments.cli:console_main"


def test_module_entry_uses_the_exit_helper():
    """``python -m repro.experiments`` runs ``console_main``, which
    freezes the collector once ``main`` has returned."""
    script = (
        "import gc, runpy, sys\n"
        "import repro.experiments.cli as cli\n"
        "calls = []\n"
        "real = cli.console_main\n"
        "cli.console_main = lambda: calls.append(gc.get_freeze_count()) or real()\n"
        "sys.argv = ['repro-experiments', '--list']\n"
        "try:\n"
        "    runpy.run_module('repro.experiments', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    code = done.code\n"
        "print(calls, code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert done.stderr.strip() == "[0] 0 True"
