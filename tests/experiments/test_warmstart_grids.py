"""Every warm-startable harness, one table: rows are bit-identical cold,
warm, replayed from the prefix index, serial and parallel.

All seven harnesses describe their cells as
:class:`repro.runner.grid.GridCell` and run them through
:func:`repro.runner.grid.run_grid`, so one table-driven module covers
what used to be per-harness copies.  ``warm_start="force"`` bypasses
the cost model (:func:`repro.runner.warmstart.warm_start_decision`,
covered in tests/runner/test_warmstart_economics.py) — the trimmed
grids here are exactly the shape it would, correctly, refuse.
"""

import copy
import functools
from typing import Any, Callable, NamedTuple

import pytest

from repro.experiments.ackloss import AckLossConfig, run_ackloss
from repro.experiments.figure5 import Figure5Config, run_figure5
from repro.experiments.figure6 import Figure6Config, run_figure6
from repro.experiments.figure7 import Figure7Config, run_figure7
from repro.experiments.manyflow import ManyflowConfig, run_manyflow
from repro.experiments.rivals import RivalsConfig, run_rivals
from repro.experiments.table5 import Table5Config, run_table5
from repro.obs.manifest import RunManifest
from repro.runner import SnapshotStore, SweepRunner



class Grid(NamedTuple):
    run_fn: Callable
    config: Any            # trimmed: seconds, not minutes
    rows_of: Callable
    prefixes: int          # distinct prefixes the grid's cells fork
    #: Whether the cost model warm-starts the grid on its own — only
    #: grids whose cells share prefixes can win on a first pass.
    auto_warm: bool


GRIDS = {
    "figure5": Grid(
        run_figure5,
        Figure5Config(
            variants=("newreno", "rr"),
            drop_counts=(3, 6),
            transfer_packets=300,
            sim_duration=40.0,
        ),
        lambda r: r.rows,
        2,  # one per variant
        True,
    ),
    "figure6": Grid(
        run_figure6,
        Figure6Config(variants=("newreno", "rr"), duration=4.0),
        lambda r: r.flows,
        2,
        False,
    ),
    "figure7": Grid(
        run_figure7,
        Figure7Config(
            variants=("rr",), loss_rates=(0.02, 0.05), duration=15.0, runs_per_point=2
        ),
        lambda r: r.points,
        1,
        True,
    ),
    "table5": Grid(
        run_table5,
        Table5Config(cases=(("reno", "rr"),), runs_per_case=2, sim_duration=20.0),
        lambda r: r.rows,
        2,  # one per (background, run)
        False,
    ),
    "ackloss": Grid(
        run_ackloss,
        AckLossConfig(
            variants=("rr",),
            ack_loss_rates=(0.0, 0.2),
            runs_per_point=2,
            transfer_packets=300,
            sim_duration=30.0,
        ),
        lambda r: r.rows,
        1,
        False,
    ),
    "manyflow": Grid(
        run_manyflow,
        ManyflowConfig(flow_counts=(12,), max_ps=(0.02,), duration=6.0, seed=5),
        lambda r: r.cells,
        1,
        False,
    ),
    "rivals": Grid(
        run_rivals,
        RivalsConfig(
            rivals=("cubic", "relentless"),
            regimes=("delack", "ecn-red", "mobile"),
            duration=6.0,
            model_loss_rates=(0.03,),
            model_duration=30.0,
            seed=11,
        ),
        lambda r: (r.cells, r.rows),
        15,  # every match / pure cell is its own prefix; model cells have none
        False,
    ),
}

each_grid = pytest.mark.parametrize("name", sorted(GRIDS))


def run(name, **kwargs):
    """One sweep of grid ``name`` (manyflow/rivals pin ``warmup`` on the
    config they are handed, so each sweep gets its own copy)."""
    grid = GRIDS[name]
    return grid.rows_of(grid.run_fn(copy.deepcopy(grid.config), **kwargs))


@functools.lru_cache(maxsize=None)
def cold_rows(name):
    return run(name, runner=SweepRunner())


@each_grid
def test_warm_matches_cold(tmp_path, name):
    prefixes = GRIDS[name].prefixes
    store = SnapshotStore(tmp_path / "snaps")
    warm = run(name, runner=SweepRunner(), warm_start="force", store=store)
    assert warm == cold_rows(name)
    assert (store.prefix_captures, store.prefix_hits) == (prefixes, 0)
    # Replay through the prefix index (no recapture) stays identical.
    replay = run(name, runner=SweepRunner(), warm_start="force", store=store)
    assert replay == cold_rows(name)
    assert (store.prefix_captures, store.prefix_hits) == (prefixes, prefixes)


@each_grid
def test_parallel_matches_serial(tmp_path, name):
    assert run(name, runner=SweepRunner(jobs=2)) == cold_rows(name)
    # The first warm pass also captures its missing prefixes over the
    # worker pool (tests/runner/test_warmstart.py); the second forks
    # the stored ones from two workers at once.
    store = SnapshotStore(tmp_path / "snaps")
    for _ in range(2):
        warm = run(name, runner=SweepRunner(jobs=2), warm_start="force", store=store)
        assert warm == cold_rows(name)


@each_grid
def test_auto_warm_start_matches_cold(tmp_path, name):
    """``warm_start=True`` lets the cost model choose; either way the
    rows are the cold rows and the manifest says which way it went."""
    grid = GRIDS[name]
    store = SnapshotStore(tmp_path / "snaps")
    manifest = RunManifest.begin(name, fingerprint="test")
    rows = run(
        name, runner=SweepRunner(), warm_start=True, store=store, manifest=manifest
    )
    assert rows == cold_rows(name)
    assert bool(manifest.warm_start_skipped) != grid.auto_warm
    if grid.auto_warm:
        assert manifest.warm_prefix_captures == store.prefix_captures == grid.prefixes
    else:
        assert store.prefix_captures == 0
        assert manifest.warm_prefix_captures is None


def test_table5_first_warm_pass_captures_prefixes_in_parallel(tmp_path):
    # Two replications → two missing (background, run) prefixes on the
    # first warm pass; with a parallel runner they are captured over
    # the worker pool rather than one after another, and the rows stay
    # bit-identical to cold.
    store = SnapshotStore(tmp_path / "snaps")
    warm = run("table5", runner=SweepRunner(jobs=2), warm_start="force", store=store)
    assert warm == cold_rows("table5")
    assert store.prefix_captures == 2
    assert store.prefix_hits == 0
