"""The grid executor (:mod:`repro.runner.grid`) on a toy prefix/finish
pair; the seven real harnesses are covered end to end in
tests/experiments/test_warmstart_grids.py."""

import pytest

from repro.experiments.table5 import Table5Config, run_table5
from repro.obs.manifest import RunManifest
from repro.runner import GridCell, SnapshotStore, SweepObserver, SweepRunner, TaskSpec, run_grid

PREFIX_UNTIL, FINISH_UNTIL = 1.0, 3.0


def cells(variants=("reno", "rr"), finishes=(FINISH_UNTIL,)):
    return [
        GridCell(
            "tests.runner.helpers:toy_prefix",
            (variant, PREFIX_UNTIL),
            "tests.runner.helpers:toy_finish",
            (until,),
            label=f"toy {variant}@{until:g}",
        )
        for variant in variants
        for until in finishes
    ]


class QueuedSpecs(SweepObserver):
    def __init__(self):
        self.specs = []

    def task_queued(self, index, spec):
        self.specs.append(spec)


@pytest.mark.parametrize("warm_start", [False, "force"])
def test_fresh_world_yields_independent_worlds(tmp_path, warm_start):
    results = run_grid(cells(), SweepRunner(), warm_start, SnapshotStore(tmp_path))
    for result in results:
        assert result["distinct"]
        assert result["first"][0] == FINISH_UNTIL
        # Running the first replication on left the second at the
        # capture point.
        assert result["second"][0] == PREFIX_UNTIL
        assert result["second"][1] < result["first"][1]
    assert results == run_grid(cells())  # ... and equal the cold rows


def test_auto_skipped_warm_start_runs_cold_and_says_why(tmp_path):
    # One cell per prefix: nothing to share, the model refuses.
    store = SnapshotStore(tmp_path / "snaps")
    manifest = RunManifest.begin("toy", fingerprint="test")
    observer = QueuedSpecs()
    results = run_grid(
        cells(), SweepRunner(observer=observer), True, store, manifest, prefix_fraction=0.3
    )
    assert "no predicted win" in manifest.warm_start_skipped
    assert manifest.warm_prefix_captures is None
    assert store.prefix_captures == 0 and not store.root.exists()
    assert [spec.label for spec in observer.specs] == ["toy reno@3", "toy rr@3"]
    assert results == run_grid(cells())


def test_shared_prefixes_warm_start_on_their_own(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    manifest = RunManifest.begin("toy", fingerprint="test")
    grid = cells(variants=("rr",), finishes=(2.0, 3.0, 4.0))
    results = run_grid(grid, None, True, store, manifest, prefix_fraction=0.3)
    assert manifest.warm_start_skipped is None
    assert (manifest.warm_prefix_captures, manifest.warm_prefix_hits) == (1, 0)
    assert results == run_grid(grid)


@pytest.mark.parametrize("warm_start", [False, "force"])
def test_also_specs_ride_along_cold_in_order(tmp_path, warm_start):
    observer = QueuedSpecs()
    also = [TaskSpec("math:sqrt", (4.0,)), TaskSpec("math:sqrt", (9.0,))]
    results = run_grid(
        cells(), SweepRunner(observer=observer), warm_start, SnapshotStore(tmp_path), also=also
    )
    assert results[2:] == [2.0, 3.0]
    assert [spec.fn for spec in observer.specs] == 2 * [
        "repro.runner.grid:run_grid_cell"
    ] + 2 * ["math:sqrt"]


@pytest.mark.parametrize("warm_start", [False, "force"])
def test_table5_issues_one_task_per_replication(tmp_path, warm_start):
    config = Table5Config(
        cases=(("reno", "rr"), ("rr", "rr")), runs_per_case=2, sim_duration=10.0
    )
    observer = QueuedSpecs()
    runner = SweepRunner(observer=observer)
    run_table5(config, runner, warm_start, SnapshotStore(tmp_path))
    assert runner.stats.total == len(config.cases) * config.runs_per_case
    assert {spec.fn for spec in observer.specs} == {"repro.runner.grid:run_grid_cell"}
