"""Contract tests of the benchmark itself.

Run with ``python -m pytest bench/tests`` (tier-1 ``testpaths`` stays
``tests``).  They drive ``bench/run.py`` as a subprocess on ``--smoke``
inputs, so they rebuild the compiled core in place like any run does.
"""

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: sha256 of bench/kernel.py.  Every recorded number is a multiple of
#: the kernel's cost: changing it silently rescales the whole history.
KERNEL_SHA256 = "ee47ad0c1ef131b29e8d728b456a75d289e225be136740e8b2edbe3bbab16251"


def run_bench(*args):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - started


@pytest.fixture(scope="module")
def smoke_traces():
    """lossy_recovery, smoke-sized and traced: seed 1 twice, seed 2 once."""
    runs = {}
    for label, seed in (("a", 1), ("b", 1), ("other", 2)):
        runs[label], _ = run_bench(
            "--smoke", "--trace", "1", "--workload", "lossy_recovery", "--seed", str(seed)
        )
        if label == "a":
            runs["trace_file"] = json.loads(
                (BENCH / "out" / "trace-lossy_recovery.json").read_text(encoding="utf-8")
            )
    return runs


def test_spec_names_units_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_smoke_runs_every_workload_with_every_end_to_end_metric():
    result, seconds = run_bench("--smoke")
    assert seconds < 15.0, f"--smoke took {seconds:.1f}s"
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, final in result["workloads"].items():
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1, name
        assert set(final["metrics"]) == set(declared), name
        for metric, entry in final["metrics"].items():
            assert entry["unit"] == declared[metric]
            assert entry["value"] > 0, (name, metric)


def test_traced_run_emits_every_per_layer_metric(smoke_traces):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    final = smoke_traces["a"]
    assert final["correct"], final
    assert set(final["metrics"]) == set(declared)
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    # The workload is dominated by the layers it was chosen for.
    assert metrics["net.red.enqueues"] == 0
    assert metrics["sim.tracing.delivered"] == 0
    assert metrics["runner.cache.lookups"] == 0
    assert metrics["tcp.sender.sends"] > 0 and metrics["net.loss.drops"] > 0


def test_same_seed_same_counts_other_seed_other_losses(smoke_traces):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] + ["oracle_rel_err"]
    a, b, other = (smoke_traces[k]["metrics"] for k in ("a", "b", "other"))
    for name in exact:
        assert a[name]["value"] == b[name]["value"], name
    differing = [name for name in exact if a[name]["value"] != other[name]["value"]]
    assert "tcp.sender.retransmits" in differing or "net.loss.drops" in differing, differing


def test_trace_self_times_sum_to_the_root_span(smoke_traces):
    cells = smoke_traces["trace_file"]["cells"]
    segments = [cell for cell, spans in cells.items() if "bench:segment" in spans]
    assert segments
    for cell in segments:
        spans = cells[cell]
        root = spans["bench:segment"]["total_ns"]
        total_self = sum(span["self_ns"] for span in spans.values())
        assert abs(total_self - root) <= 0.01 * root, cell
    parents = {span["id"] for span in smoke_traces["trace_file"]["spans"]} | {0}
    assert all(span["parent"] in parents for span in smoke_traces["trace_file"]["spans"])


def test_reference_kernel_is_unchanged():
    digest = hashlib.sha256((BENCH / "kernel.py").read_bytes()).hexdigest()
    assert digest == KERNEL_SHA256, (
        "bench/kernel.py changed: every recorded benchmark number is a "
        "multiple of its cost, so this rescales the whole history"
    )


def test_outside_a_checkout_the_command_fails_fast(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wan_red", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
