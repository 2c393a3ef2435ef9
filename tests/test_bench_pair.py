"""The CI performance gate's verdict (scripts/bench_pair.py), on
synthetic runs: no benchmark is executed here."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

SPEC = {
    "end_to_end": [
        {"name": "norm_s", "unit": "norm_s", "better": "lower", "bound": 0.15},
        {"name": "hops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ]
}


def _run(norm_s, hops_per_s=1000.0, failed=0, attempted=20):
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "norm_s": {"value": norm_s, "unit": "norm_s"},
            "hops_per_s": {"value": hops_per_s, "unit": "1/s"},
        },
    }


def test_inside_the_bound_passes():
    parent = [_run(1.00), _run(1.04), _run(0.98)]
    change = [_run(1.10), _run(1.14), _run(1.02)]  # median +10 %, bound 15 %
    rows, problems = bench_pair.verdict(SPEC, "wan_red", parent, change)
    assert problems == []
    (row,) = [r for r in rows if r[1] == "norm_s"]
    assert row[:4] == ("wan_red", "norm_s", 1.00, 1.10)
    assert row[4] == pytest.approx(0.10)


def test_beyond_the_bound_fails_naming_metric_and_workload():
    parent = [_run(1.00), _run(1.02)]
    change = [_run(1.20), _run(1.22)]
    _, (problem,) = bench_pair.verdict(SPEC, "lossy_recovery", parent, change)
    assert "norm_s" in problem and "lossy_recovery" in problem
    assert "+19.8%" in problem and "bound 15%" in problem


def test_one_slow_run_does_not_move_the_median():
    parent = [_run(1.00), _run(1.00), _run(1.00)]
    change = [_run(1.00), _run(3.00), _run(1.00)]
    assert bench_pair.verdict(SPEC, "wan_red", parent, change)[1] == []


def test_direction_is_honoured():
    # Faster is never a regression for a lower-is-better metric ...
    assert bench_pair.verdict(SPEC, "w", [_run(1.0)], [_run(0.5)])[1] == []
    # ... a higher-is-better metric fails when it *drops* past its bound
    # and passes when it rises by the same amount.
    _, (problem,) = bench_pair.verdict(SPEC, "w", [_run(1.0, 1000.0)], [_run(1.0, 880.0)])
    assert "hops_per_s on w is +12.0% worse" in problem
    assert bench_pair.verdict(SPEC, "w", [_run(1.0, 1000.0)], [_run(1.0, 1120.0)])[1] == []


def test_higher_failed_share_fails():
    parent = [_run(1.0), _run(1.0)]
    change = [_run(1.0), _run(1.0, failed=1)]
    _, (problem,) = bench_pair.verdict(SPEC, "paper_sweep", parent, change)
    assert "failed share on paper_sweep rose from 0.0000 to 0.0250" in problem
    # The same share on both sides is not a regression of the change.
    assert bench_pair.verdict(SPEC, "paper_sweep", change, change)[1] == []


def _git(root, *args):
    subprocess.run(
        ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        check=True,
        capture_output=True,
    )


def test_differing_benchmark_trees_refuse(tmp_path, monkeypatch, capsys):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("print('{}')\n")
    (tmp_path / "BENCHMARK.json").write_text('{"workloads": [], "end_to_end": []}')
    (tmp_path / "src.py").write_text("x = 1\n")
    (tmp_path / ".gitignore").write_text("bench/out/\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "parent")

    # Edits outside the benchmark, and its git-ignored output, are what a
    # change is expected to have.
    (tmp_path / "src.py").write_text("x = 2\n")
    (tmp_path / "bench" / "out").mkdir()
    (tmp_path / "bench" / "out" / "pairs.json").write_text("{}")
    assert bench_pair.benchmark_changes(tmp_path, "HEAD") == []

    (tmp_path / "bench" / "run.py").write_text("print('{ }')\n")
    (tmp_path / "bench" / "extra.py").write_text("")
    assert bench_pair.benchmark_changes(tmp_path, "HEAD") == [
        "bench/extra.py",
        "bench/run.py",
    ]
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    assert bench_pair.main(["--parent", "HEAD"]) == 2
    assert "refusing" in capsys.readouterr().out
    # Refused before anything ran: no run record was written.
    assert (tmp_path / "bench" / "out" / "pairs.json").read_text() == "{}"
