"""Watchdog and invariant state across snapshot restore under retry.

Satellite contract: a watchdog armed on a *restored* world must behave
bit-identically to one armed on a cold world at the same point — the
stall clock, the trip report, and the invariant monitors all survive
the checkpoint/restore/retry cycle.
"""

from repro.runner import RetryPolicy, SnapshotStore, SweepRunner, TaskSpec
from repro.sim.invariants import InvariantSuite
from repro.snapshot import Snapshot

from tests.resilience.helpers import (
    build_stalled_world,
    watchdog_cell_cold,
    watchdog_metrics,
)


def _put_prefix(store):
    return store.put(Snapshot.capture(build_stalled_world(), label="stalled prefix rr"))


def _warm_spec(digest, store_root, sentinel=""):
    return TaskSpec(
        fn="tests.resilience.helpers:watchdog_cell_from_snapshot",
        args=(digest, str(store_root), sentinel),
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


def test_watchdog_after_restore_under_retry_matches_cold(tmp_path):
    # The first attempt dies *before* restoring; the retry restores and
    # arms the watchdog — state must still match the cold run exactly.
    store = SnapshotStore(tmp_path / "snaps")
    digest = _put_prefix(store)
    sentinel = tmp_path / "retry.sentinel"

    runner = SweepRunner(retry_policy=RetryPolicy(max_retries=1, base_delay=0.01))
    warm = runner.map([_warm_spec(digest, store.root, str(sentinel))])[0]
    assert runner.stats.retried == 1
    assert warm == watchdog_cell_cold()


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
