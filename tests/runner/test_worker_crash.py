"""A worker that dies fails every unfinished cell, and a re-run
resumes from the cache.

A cell is a pure function of its spec, so the runner does not retry:
the cells that completed before the crash are cached, and running the
same sweep again replays them and executes only the rest.
"""

import pytest

from repro.errors import WorkerCrashError
from repro.runner import ResultCache, SweepRunner, TaskSpec


def _specs(sentinel):
    # Index 1 sleeps past its siblings (cells 0, 2 and 3 finish on the
    # other worker) and then kills its worker while the sentinel exists.
    specs = [
        TaskSpec(
            fn="tests.runner.helpers:run_metrics_cell",
            args=(variant, 2.0),
            label=f"metrics {variant}",
        )
        for variant in ("reno", "sack", "tahoe")
    ]
    specs.insert(
        1,
        TaskSpec(
            fn="tests.runner.helpers:crash_metrics_cell",
            args=("rr", str(sentinel), 1.0, 2.0),
            label="crash rr",
        ),
    )
    return specs


def test_worker_crash_fails_unfinished_cells_and_resumes_from_cache(tmp_path):
    sentinel = tmp_path / "crash.sentinel"
    sentinel.write_text("crash", encoding="utf-8")
    cache = ResultCache(root=tmp_path / "cache")
    specs = _specs(sentinel)

    runner = SweepRunner(jobs=2, cache=cache)
    with pytest.raises(WorkerCrashError):
        runner.map(specs)
    finished = [record.index for record in runner.stats.records if record.error is None]
    unfinished = [record.index for record in runner.stats.records if record.error]
    assert 1 in unfinished
    assert sorted(finished + unfinished) == list(range(len(specs)))
    for index in finished:
        assert cache.lookup(specs[index])[0], index
    for index in unfinished:
        assert not cache.lookup(specs[index])[0], index
    assert runner.stats.failed == len(unfinished)
    assert runner.stats.salvaged == len(finished)

    sentinel.unlink()
    rerun = SweepRunner(jobs=2, cache=cache)
    resumed = rerun.map(specs)
    assert rerun.stats.cache_hits == len(finished)
    assert rerun.stats.executed == len(unfinished)
    assert resumed == SweepRunner().map(specs)
