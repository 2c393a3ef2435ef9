"""Traced-run probes for mechanisms no workload's timed path exercises.

They feed the per-layer metrics that deliberately map to no gated
end-to-end metric: snapshot capture/restore/digest cost, delta-snapshot
size, warm-start on/off ratios and the worker pool's per-task overhead
— the measured on/off deltas the ROADMAP audit asks for.  They run in
the worker process with the tracer installed, outside timed segments.
"""

import tempfile
import time

from kernel import KERNEL_NOMINAL_S

SNAPSHOT_SPANS = {
    "snapshot.capture_s": "snapshot:capture",
    "snapshot.restore_s": "snapshot:restore",
    "snapshot.digest_s": "snapshot:digest",
    "snapshot.delta.diff_s": "snapshot.delta:diff",
}


def fork_probe(tracer, norm, make_base, near, far):
    """Freeze a world, fork it ``near`` and ``far`` simulated seconds
    onward and diff each fork against the base.  Costs are the spans'
    self times in normalised seconds; ``snapshot.delta.ratio`` is delta
    bytes over full bytes, averaged over the two forks."""
    from repro.snapshot import DeltaSnapshot, Snapshot

    state = {}

    def body():
        base = make_base()
        ratios = []
        for extra in (near, far):
            fork = base.restore()
            fork.sim.run(until=fork.sim.now + extra)
            forked = Snapshot.capture(fork, label="bench probe fork")
            delta = DeltaSnapshot.diff(forked, base)
            ratios.append(delta.nbytes / forked.nbytes)
        state["bytes"] = base.nbytes
        state["ratio"] = sum(ratios) / len(ratios)

    timing, _ = norm.time_call(lambda: tracer.run_segment("probe", body))
    scale = KERNEL_NOMINAL_S / timing["reference_s"] / 1e9
    spans = tracer.cells["probe"]
    result = {
        metric: tracer.corrected_self_ns(spans[span]) * scale if span in spans else 0.0
        for metric, span in SNAPSHOT_SPANS.items()
    }
    result["snapshot.bytes"] = state["bytes"]
    result["snapshot.delta.ratio"] = state["ratio"]
    return result


def snapshot_probe(workload, tracer, norm):
    """The fork probe on the workload's own world, frozen mid-run."""
    from repro.snapshot import Snapshot

    cell, base_time, near, far = workload.probe_plan()

    def make_base():
        world = workload.build(cell)
        target = workload.snapshot_target(world)
        target.sim.run(until=base_time)
        return Snapshot.capture(target, label="bench probe base")

    return fork_probe(tracer, norm, make_base, near, far)


# ----------------------------------------------------------------------
# paper_sweep: warm-start ratios, pool overhead, Figure-5 prefix forks
# ----------------------------------------------------------------------
def _warmstart_grids():
    """The trimmed grids scripts/bench.py --quick times warm vs cold."""
    from repro.experiments.ackloss import AckLossConfig, run_ackloss
    from repro.experiments.figure5 import Figure5Config, run_figure5
    from repro.experiments.figure6 import Figure6Config, run_figure6
    from repro.experiments.figure7 import Figure7Config, run_figure7
    from repro.experiments.table5 import Table5Config, run_table5

    fig5 = Figure5Config(
        drop_counts=(1, 2, 3, 4, 5, 6), first_drop_seq=400, transfer_packets=600,
        sim_duration=60.0, variants=("newreno", "rr"),
    )
    fig6 = Figure6Config(duration=4.0)
    fig7 = Figure7Config(loss_rates=(0.01, 0.05), duration=20.0, runs_per_point=1)
    tab5 = Table5Config(cases=(("reno", "rr"), ("rr", "rr")), runs_per_case=2, sim_duration=30.0)
    ack = AckLossConfig(
        variants=("newreno", "rr"), ack_loss_rates=(0.0, 0.1), runs_per_point=2, sim_duration=30.0
    )
    return fig5, [
        ("fig5late", run_figure5, fig5, lambda r: r.rows),
        ("fig6", run_figure6, fig6, lambda r: r.flows),
        ("fig7", run_figure7, fig7, lambda r: r.points),
        ("table5", run_table5, tab5, lambda r: r.rows),
        ("ackloss", run_ackloss, ack, lambda r: r.rows),
    ]


def sweep_probes(tracer, norm, scratch):
    from repro.experiments.figure5 import capture_warm_snapshot
    from repro.runner import SnapshotStore, SweepRunner, TaskSpec

    result, failures = {}, []
    fig5, grids = _warmstart_grids()
    for name, run_fn, config, rows_of in grids:
        with tempfile.TemporaryDirectory(prefix="warm-", dir=scratch) as tmp:
            cold_t, cold = norm.time_call(lambda: run_fn(config, runner=SweepRunner()))
            # "force": measure the warm machinery even where the cost
            # model would (rightly) refuse to use it.
            warm_t, warm = norm.time_call(
                lambda: run_fn(
                    config, runner=SweepRunner(), warm_start="force", store=SnapshotStore(tmp)
                )
            )
        if rows_of(warm) != rows_of(cold):
            failures.append(f"warm-started {name} rows differ from cold rows")
        result[f"runner.warmstart.{name}_ratio"] = warm_t["norm_s"] / cold_t["norm_s"]

    tasks = [TaskSpec(fn="math:sqrt", args=(float(i),)) for i in range(40)]
    started = time.perf_counter()
    roots = SweepRunner(jobs=2).map(tasks)
    result["runner.pool.task_overhead_ms"] = (time.perf_counter() - started) * 1000.0 / len(tasks)
    if roots != [float(i) ** 0.5 for i in range(40)]:
        failures.append("pool returned wrong results for the trivial tasks")

    result.update(
        fork_probe(tracer, norm, lambda: capture_warm_snapshot("rr", fig5), near=0.25, far=5.0)
    )
    return result, failures
