"""Runner correctness: parallel output is bit-identical to serial, and
the cache replays sweeps across runs and invalidates honestly.

These are the determinism guarantees docs/PERFORMANCE.md commits to.
The grids are shrunk (fewer cells, shorter transfers) to keep the
suite fast; the cells exercise the same code paths as the full-scale
campaigns.
"""

import dataclasses

from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.figure5 import Figure5Config, run_figure5
from repro.runner import ResultCache, SweepRunner, TaskSpec


def quick_fig5():
    config = Figure5Config()
    config.transfer_packets = 300
    config.sim_duration = 30.0
    return config


def quick_chaos():
    return ChaosConfig(seeds=1, variants=("rr",), transfer_packets=400)


def fig5_rows(result):
    return [dataclasses.asdict(row) for row in result.rows]


def chaos_cells(result):
    return [
        (
            run.variant,
            run.seed_index,
            run.plan,
            run.completed,
            run.delivered,
            run.duplicates,
            run.timeouts,
            run.finish_time,
            run.records_checked,
            run.survived,
        )
        for run in result.runs
    ]


class TestParallelDeterminism:
    def test_figure5_jobs4_bit_identical_to_serial(self):
        config = quick_fig5()
        serial = run_figure5(config, runner=SweepRunner(jobs=1))
        parallel = run_figure5(config, runner=SweepRunner(jobs=4))
        assert fig5_rows(serial) == fig5_rows(parallel)

    def test_chaos_campaign_jobs4_bit_identical_to_serial(self):
        config = quick_chaos()
        serial = run_chaos(config, runner=SweepRunner(jobs=1))
        parallel = run_chaos(config, runner=SweepRunner(jobs=4))
        assert chaos_cells(serial) == chaos_cells(parallel)
        assert serial.baselines == parallel.baselines

    def test_results_come_back_in_spec_order(self):
        specs = [
            TaskSpec(fn="repro.models.mathis:mathis_window", args=(p,))
            for p in (0.05, 0.01, 0.2, 0.001)
        ]
        assert SweepRunner(jobs=4).map(specs) == [spec.run() for spec in specs]


class TestCacheReplay:
    def test_repeat_sweep_is_pure_cache_replay(self, tmp_path):
        config = quick_fig5()
        runner = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
        cold = run_figure5(config, runner=runner)
        assert runner.stats.executed == len(cold.rows)
        assert runner.stats.cache_hits == 0
        warm = run_figure5(config, runner=runner)
        assert runner.stats.executed == 0
        assert runner.stats.cache_hits == len(cold.rows)
        assert fig5_rows(cold) == fig5_rows(warm)

    def test_cache_shared_between_runner_instances(self, tmp_path):
        config = quick_fig5()
        run_figure5(config, runner=SweepRunner(jobs=1, cache=ResultCache(root=tmp_path)))
        replay = SweepRunner(jobs=4, cache=ResultCache(root=tmp_path))
        run_figure5(config, runner=replay)
        assert replay.stats.executed == 0

    def test_spec_change_misses(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
        run_figure5(quick_fig5(), runner=runner)
        changed = quick_fig5()
        changed.transfer_packets += 50
        run_figure5(changed, runner=runner)
        assert runner.stats.cache_hits == 0
        assert runner.stats.executed == len(changed.drop_counts) * len(
            changed.variants
        )

    def test_code_fingerprint_change_invalidates(self, tmp_path):
        config = quick_fig5()
        run_figure5(
            config,
            runner=SweepRunner(jobs=1, cache=ResultCache(root=tmp_path, fingerprint="a" * 64)),
        )
        stale = SweepRunner(
            jobs=1, cache=ResultCache(root=tmp_path, fingerprint="b" * 64)
        )
        run_figure5(config, runner=stale)
        assert stale.stats.cache_hits == 0
        assert stale.stats.executed > 0
