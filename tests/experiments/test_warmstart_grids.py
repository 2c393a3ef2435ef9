"""Every sweep harness with independent cells, one table: rows are
bit-identical serial and parallel, and — for the five grids whose cells
are :class:`repro.runner.grid.GridCell` prefix/finish pairs — cold,
warm, warm again over the same store, and warm from a store whose
prefix snapshot was deleted, bit-flipped or replaced by a foreign
format before the forks ran.

``manyflow`` runs plain cached tasks (every cell's warm-up is its own),
so it takes part in the cold checks only; that its worlds survive a
capture/restore is checked directly in
tests/scenes/test_scene_determinism.py.
"""

import copy
import functools
import json
from typing import Any, Callable, NamedTuple, Optional

import pytest

from repro.experiments.ackloss import AckLossConfig, run_ackloss
from repro.experiments.figure5 import Figure5Config, run_figure5
from repro.experiments.figure6 import Figure6Config, run_figure6
from repro.experiments.figure7 import Figure7Config, run_figure7
from repro.experiments.manyflow import ManyflowConfig, run_manyflow
from repro.experiments.table5 import Table5Config, run_table5
from repro.runner import SnapshotStore, SweepObserver, SweepRunner, read_quarantine
from repro.snapshot.core import SNAPSHOT_FORMAT


class Grid(NamedTuple):
    run_fn: Callable
    config: Any            # trimmed: seconds, not minutes
    rows_of: Callable
    #: Distinct prefixes the grid's cells fork; None = not a
    #: prefix/finish grid (plain tasks, cold only).
    prefixes: Optional[int]


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
    ),
    "figure6": Grid(
        run_figure6,
        Figure6Config(variants=("newreno", "rr"), duration=4.0),
        lambda r: r.flows,
        2,
    ),
    "figure7": Grid(
        run_figure7,
        Figure7Config(
            variants=("rr",), loss_rates=(0.02, 0.05), duration=15.0, runs_per_point=2
        ),
        lambda r: r.points,
        1,
    ),
    "table5": Grid(
        run_table5,
        Table5Config(cases=(("reno", "rr"),), runs_per_case=2, sim_duration=20.0),
        lambda r: r.rows,
        2,  # one per (background, run)
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
    ),
    "manyflow": Grid(
        run_manyflow,
        ManyflowConfig(flow_counts=(12,), max_ps=(0.02,), duration=6.0, seed=5),
        lambda r: r.cells,
        None,
    ),
}

each_grid = pytest.mark.parametrize("name", sorted(GRIDS))
each_warm_grid = pytest.mark.parametrize(
    "name", sorted(name for name, grid in GRIDS.items() if grid.prefixes is not None)
)


def run(name, **kwargs):
    """One sweep of grid ``name`` (manyflow pins ``warmup`` on the
    config it is handed, so each sweep gets its own copy)."""
    grid = GRIDS[name]
    return grid.rows_of(grid.run_fn(copy.deepcopy(grid.config), **kwargs))


@functools.lru_cache(maxsize=None)
def cold_rows(name):
    return run(name, runner=SweepRunner())


def snapshots(store):
    return sorted(store.root.glob("*.snap"))


@each_warm_grid
def test_warm_matches_cold(tmp_path, name):
    prefixes = GRIDS[name].prefixes
    store = SnapshotStore(tmp_path / "snaps")
    warm = run(name, runner=SweepRunner(), warm_start=True, store=store)
    assert warm == cold_rows(name)
    assert len(snapshots(store)) == prefixes
    # A second pass over the same store captures again (into the same
    # content-addressed files) and stays identical.
    again = run(name, runner=SweepRunner(), warm_start=True, store=store)
    assert again == cold_rows(name)
    assert len(snapshots(store)) == prefixes


def test_warm_start_is_tested_for_truth(tmp_path):
    """``bench/probes.py`` passes the string it always has; any true
    value forks every cell."""
    store = SnapshotStore(tmp_path / "snaps")
    warm = run("figure5", runner=SweepRunner(), warm_start="force", store=store)
    assert warm == cold_rows("figure5")
    assert len(snapshots(store)) == GRIDS["figure5"].prefixes


@each_grid
def test_parallel_matches_serial(tmp_path, name):
    assert run(name, runner=SweepRunner(jobs=2)) == cold_rows(name)
    if GRIDS[name].prefixes is None:
        return
    # Each warm pass captures in the coordinator and forks from two
    # workers at once; the second finds its captures already stored.
    store = SnapshotStore(tmp_path / "snaps")
    for _ in range(2):
        warm = run(name, runner=SweepRunner(jobs=2), warm_start=True, store=store)
        assert warm == cold_rows(name)


def _damage(path, how):
    if how == "deleted":
        path.unlink()
        return
    header, payload = path.read_bytes().split(b"\n", 1)
    if how == "bit-flipped":
        flipped = bytearray(payload)
        flipped[len(flipped) // 2] ^= 0xFF
        payload = bytes(flipped)
    else:  # foreign: valid, but written by another format version
        fields = json.loads(header)
        fields["format"] = SNAPSHOT_FORMAT + 1
        header = json.dumps(fields, sort_keys=True).encode()
    path.write_bytes(header + b"\n" + payload)


class DamageFirstPrefix(SweepObserver):
    """Damages the first captured prefix snapshot once ``run_grid`` has
    stored every capture and before any fork reads one."""

    def __init__(self, store, how):
        self.store, self.how, self.path = store, how, None

    def sweep_started(self, total, jobs):
        path = snapshots(self.store)[0]
        _damage(path, self.how)
        self.path = path  # set only once the damage is done


@pytest.mark.parametrize("how", ["deleted", "bit-flipped", "foreign"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", ["figure5", "table5"])
def test_damaged_prefix_runs_cold(tmp_path, name, jobs, how):
    store = SnapshotStore(tmp_path / "snaps")
    damage = DamageFirstPrefix(store, how)
    runner = SweepRunner(jobs=jobs, observer=damage)
    assert run(name, runner=runner, warm_start=True, store=store) == cold_rows(name)
    assert runner.stats.failed == 0
    quarantined = store.quarantine_dir / damage.path.name
    if how == "bit-flipped":
        assert quarantined.exists() and not damage.path.exists()
        assert {r.kind for r in read_quarantine(store.quarantine_dir)} == {"snapshot"}
    else:
        # A deleted file stays gone, a foreign one stays put; neither
        # is quarantined.
        assert damage.path.exists() == (how == "foreign")
        assert not quarantined.exists()
