"""Watchdog and invariant state across snapshot restore.

A watchdog armed on a *restored* world must behave bit-identically to
one armed on a cold world at the same point — the stall clock, the
trip report, and the invariant monitors all survive the
checkpoint/restore cycle.
"""

from repro.runner import SnapshotStore, SweepRunner, TaskSpec
from repro.sim.invariants import InvariantSuite
from repro.snapshot import Snapshot

from tests.snapshot.helpers import (
    build_stalled_world,
    watchdog_cell_cold,
    watchdog_metrics,
)


def _put_prefix(store):
    return store.put(Snapshot.capture(build_stalled_world(), label="stalled prefix rr"))


def _warm_spec(digest, store_root):
    return TaskSpec(
        fn="tests.snapshot.helpers:watchdog_cell_from_snapshot",
        args=(digest, str(store_root)),
        label="watchdog warm",
    )


def test_watchdog_trips_identically_cold_vs_restored(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    digest = _put_prefix(store)

    cold = watchdog_cell_cold()
    warm = SweepRunner().map([_warm_spec(digest, store.root)])[0]
    assert cold["triggered"] is True
    assert cold["reason"] == "stall"
    assert cold["stalled"] == [1]
    assert cold["stop_reason"] == "watchdog: stall"
    assert warm == cold  # full dict equality: time, events, report


def test_invariant_monitors_see_identical_streams_cold_vs_restored(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    digest = _put_prefix(store)

    cold_world = build_stalled_world()
    cold_suite = InvariantSuite.standard().install(cold_world.dumbbell.net.trace)
    cold = watchdog_metrics(cold_world)

    warm_world = store.get(digest).restore()
    warm_suite = InvariantSuite.standard().install(warm_world.dumbbell.net.trace)
    warm = watchdog_metrics(warm_world)

    assert warm == cold
    # Both suites watched the identical post-restore event stream and
    # neither raised: invariants hold through checkpoint/restore.
    assert cold_suite.records_seen == warm_suite.records_seen > 0
