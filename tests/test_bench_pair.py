"""The CI performance gate's verdict (scripts/bench_pair.py), on
synthetic runs: no benchmark is executed here."""

import importlib.util
import json
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


def test_rows_count_wins_per_pair_and_the_parent_iqr():
    parent = [_run(1.00, 1000.0), _run(1.04, 1000.0), _run(0.98, 1000.0)]
    change = [_run(0.90, 1100.0), _run(1.04, 1000.0), _run(0.99, 900.0)]
    rows, _ = bench_pair.verdict(SPEC, "w", parent, change)
    by_metric = {row.metric: row for row in rows}
    # Pair by pair: one win, one tie (counts for neither), one loss.
    assert (by_metric["norm_s"].wins, by_metric["norm_s"].pairs) == (1, 3)
    # Higher is better: only the first pair rose.
    assert by_metric["hops_per_s"].wins == 1
    # Quartiles of 0.98, 1.00, 1.04 are 0.99 and 1.02.
    assert by_metric["norm_s"].parent_iqr == pytest.approx(0.03)
    assert by_metric["hops_per_s"].parent_iqr == 0.0
    assert bench_pair.iqr([1.0]) == 0.0


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


_FAKE_RUN = """\
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
speed = float(Path("src.py").read_text().split("=")[1])
value = speed + seed / 100
metrics = {name: {"value": value, "unit": "s"} for name in ("norm_s", "setup_s")}
if "--trace" in sys.argv:
    metrics = {
        "sim.engine.events": {"value": int(speed * 1000) + seed, "unit": "count"},
        "sim.engine.self_s": {"value": value, "unit": "norm_s"},
    }
print("progress")
print(json.dumps({"attempted": 4, "failed": 0, "metrics": metrics}))
"""


def test_record_writes_both_shas_every_run_and_the_verdicts(tmp_path, monkeypatch, capsys):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(_FAKE_RUN)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "norm_s", "unit": "s", "better": "lower", "bound": 0.15},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        ],
    }))
    (tmp_path / "src.py").write_text("x = 1.0\n")
    (tmp_path / ".gitignore").write_text("bench/out/\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "parent")
    (tmp_path / "src.py").write_text("x = 0.5\n")  # the change: faster
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setenv("TMPDIR", str(tmp_path))

    out = tmp_path / "BENCH_1.json"
    assert bench_pair.main(["--parent", "HEAD", "--pairs", "2", "--seed", "7", "--record", str(out)]) == 0
    assert "| w | norm_s | 1.075 | 0.005 | 0.575 | -46.5% | 2/2 | 15% |" in capsys.readouterr().out

    record = json.loads(out.read_text())
    head = subprocess.run(
        ["git", "-C", str(tmp_path), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    assert record["parent"] == {"rev": "HEAD", "sha": head}
    assert record["change"] == {"sha": head, "uncommitted_changes": True}
    assert record["verdict"] == "ok" and record["problems"] == []
    runs = record["workloads"]["w"]["runs"]
    assert [run["seed"] for run in runs["parent"]] == [7, 8]
    assert [run["metrics"]["norm_s"] for run in runs["change"]] == pytest.approx([0.57, 0.58])
    assert runs["parent"][0] == {
        "seed": 7, "failed": 0, "attempted": 4,
        "metrics": {"norm_s": pytest.approx(1.07), "setup_s": pytest.approx(1.07)},
    }
    norm_s = record["workloads"]["w"]["metrics"]["norm_s"]
    assert norm_s["parent_median"] == pytest.approx(1.075)
    assert norm_s["change_median"] == pytest.approx(0.575)
    assert norm_s["parent_iqr"] == pytest.approx(0.005)
    assert (norm_s["wins"], norm_s["pairs"], norm_s["within_bound"]) == (2, 2, True)
    assert norm_s["bound"] == 0.15
    # One traced run of the first seed per side, counts only.
    assert record["workloads"]["w"]["traced"] == {
        "seed": 7, "parent": {"sim.engine.events": 1007}, "change": {"sim.engine.events": 507},
    }


def test_record_keeps_the_traced_counts_and_ratios(tmp_path, monkeypatch):
    (tmp_path / "src.py").write_text("x = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "parent")
    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    spec = {"end_to_end": [{"name": "norm_s", "unit": "norm_s", "better": "lower", "bound": 0.15}]}
    parent, change = [_run(1.0)], [_run(0.9)]
    rows, problems = bench_pair.verdict(spec, "w", parent, change)

    def traced(events, pool_size):
        return {"metrics": {
            "sim.engine.events": {"value": events, "unit": "count"},
            "sim.engine.event_pool_size": {"value": pool_size, "unit": "count"},
            "net.packet.pool_hit_ratio": {"value": pool_size / 1000, "unit": "ratio"},
            "sim.engine.self_s": {"value": 0.3, "unit": "norm_s"},
            "runner.cache.bytes": {"value": 4096, "unit": "B"},
        }}

    args = bench_pair.argparse.Namespace(parent="HEAD", pairs=1, seed=3)
    runs = {"w": {"parent": parent, "change": change}}
    out = bench_pair.record(
        spec, args, runs, rows, problems,
        {"w": {"parent": traced(325165, 40), "change": traced(325165, 0)}},
    )
    assert out["workloads"]["w"]["traced"] == {
        "seed": 3,
        "parent": {
            "sim.engine.events": 325165, "sim.engine.event_pool_size": 40,
            "net.packet.pool_hit_ratio": 0.04,
        },
        "change": {
            "sim.engine.events": 325165, "sim.engine.event_pool_size": 0,
            "net.packet.pool_hit_ratio": 0.0,
        },
    }
    assert out["workloads"]["w"]["metrics"]["norm_s"]["wins"] == 1
    # Without a traced pass there is no traced key.
    plain = bench_pair.record(spec, args, runs, rows, problems, {})
    assert "traced" not in plain["workloads"]["w"]
