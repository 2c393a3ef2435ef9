"""The grid executor (:mod:`repro.runner.grid`) on a toy prefix/finish
pair; the five real grid harnesses are covered end to end in
tests/experiments/test_warmstart_grids.py."""

import pytest

from repro.experiments.table5 import Table5Config, run_table5
from repro.runner import GridCell, SnapshotStore, SweepObserver, SweepRunner, run_grid

from tests.runner import helpers

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


@pytest.mark.parametrize("warm_start", [False, True])
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


def test_warm_start_captures_each_distinct_prefix_once(tmp_path, monkeypatch):
    prefixes_run, toy_prefix = [], helpers.toy_prefix

    def counting_prefix(*args):
        prefixes_run.append(args)
        return toy_prefix(*args)

    store = SnapshotStore(tmp_path / "snaps")
    observer = QueuedSpecs()
    grid = cells(finishes=(2.0, 3.0, 4.0))  # two variants x three finishes
    with monkeypatch.context() as patch:
        patch.setattr(helpers, "toy_prefix", counting_prefix)
        results = run_grid(grid, SweepRunner(observer=observer), True, store)
        assert len(prefixes_run) == len(list(store.root.glob("*.snap"))) == 2
        # The captures ran in the coordinator: only the forks were mapped.
        assert [spec.label for spec in observer.specs] == [
            f"{cell.label} (warm)" for cell in grid
        ]
        # A second call captures again, into the same content-addressed
        # files.
        assert run_grid(grid, None, True, store) == results
        assert len(prefixes_run) == 4
        assert len(list(store.root.glob("*.snap"))) == 2
    assert results == run_grid(grid)


@pytest.mark.parametrize("warm_start", [False, True])
def test_table5_issues_one_task_per_replication(tmp_path, warm_start):
    config = Table5Config(
        cases=(("reno", "rr"), ("rr", "rr")), runs_per_case=2, sim_duration=10.0
    )
    observer = QueuedSpecs()
    runner = SweepRunner(observer=observer)
    run_table5(config, runner, warm_start, SnapshotStore(tmp_path))
    assert runner.stats.total == len(config.cases) * config.runs_per_case
    assert {spec.fn for spec in observer.specs} == {"repro.runner.grid:run_grid_cell"}
