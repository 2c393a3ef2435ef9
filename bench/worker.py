"""One pass of an in-process workload, on whichever engine backend the
environment selects (``REPRO_PURE_PYTHON``).  bench/run.py starts it as
``python bench/worker.py '<job json>'`` and reads one JSON object from
the last line of its standard output.

The backend is chosen when ``repro.sim.engine`` is first imported, so
each backend needs its own process; imports are therefore part of what
this file times (as set-up).
"""

import functools
import importlib
import json
import resource
import sys
import time

from kernel import KERNEL_NOMINAL_S, run_kernel
from timing import Normaliser


def _extension_path():
    module = sys.modules.get("repro.sim._engine_core")
    return getattr(module, "__file__", None)


def run_round(workload, norm, digest, tracer=None, untraced=None):
    """Build, run and summarise every cell once.  Returns the timings
    per segment key, the summary per cell and the normalised cost of
    world construction.  With a ``tracer`` every segment runs as a root
    span and its layers are billed against the segment's ``untraced``
    timing."""
    timings, summaries = {}, {}
    construct_score = 0.0
    layers, setup_layers = {}, {}
    for cell in workload.cells:
        if tracer is not None:
            tracer.set_cell("setup")
        cpu0 = time.process_time()
        world = workload.build(cell)
        build_cpu = time.process_time() - cpu0
        first = True
        for key, step in workload.steps(world, cell):
            if tracer is None:
                timings[key], _ = norm.time_call(step)
            else:
                timings[key], _ = norm.time_call(
                    functools.partial(tracer.run_segment, key, step)
                )
                _bill_layers(tracer, key, untraced[key]["norm_s"], layers)
                tracer.set_cell("setup")
            if first:
                construct_score += build_cpu / timings[key]["reference_s"]
                first = False
        summaries[cell["id"]] = workload.summary(world, cell, digest)
    if tracer is not None:
        # World construction happens between segments; bill it against
        # the round's typical kernel cost.
        kernels = sorted(t["reference_s"] for t in timings.values())
        _bill_layers(tracer, "setup", None, setup_layers, kernels[len(kernels) // 2])
    return {
        "timings": timings,
        "summaries": summaries,
        "construct_norm_s": KERNEL_NOMINAL_S * construct_score,
        "layers": layers,
        "setup_layers": setup_layers,
    }


def _bill_layers(tracer, cell, budget, layers, kernel_s=None):
    """Add one cell's spans to the per-span totals.

    The shims cost more than the work they wrap, and more inside a
    real run than on the calibration no-op, so a traced segment's self
    times do not add up to its untraced cost.  They are used as
    *shares*: the segment's untraced normalised seconds (``budget``)
    are split in proportion to the calibrated self times.  Without a
    budget (world construction, which no untraced segment times) the
    calibrated self times are normalised by ``kernel_s`` directly."""
    records = tracer.cells[cell]
    corrected = {name: tracer.corrected_self_ns(r) for name, r in records.items()}
    if budget is None:
        to_norm = KERNEL_NOMINAL_S / kernel_s / 1e9
    else:
        to_norm = budget / (sum(corrected.values()) or 1.0)
    for name, record in records.items():
        entry = layers.setdefault(name, {"calls": 0, "self_norm_s": 0.0})
        entry["calls"] += record[0]
        entry["self_norm_s"] += corrected[name] * to_norm


def sweep_probes(job, norm):
    """``paper_sweep``'s traced extras (see bench/probes.py)."""
    import probes
    import trace
    from repro.sim.engine import CORE_BACKEND

    tracer = trace.install()
    tracer.calibrate()
    metrics, failures = probes.sweep_probes(tracer, norm, job["scratch"])
    return {"backend": CORE_BACKEND, "probes": metrics, "failures": failures}


def main(job):
    norm = Normaliser(run_kernel, KERNEL_NOMINAL_S)
    if job["workload"] == "sweep_probes":
        return sweep_probes(job, norm)
    started = time.perf_counter()
    import_timing, workloads = norm.time_call(lambda: importlib.import_module("workloads"))
    from repro.sim.engine import CORE_BACKEND

    workload = workloads.make_workload(job["workload"], job["inputs"])
    result = {
        "backend": CORE_BACKEND,
        "extension": _extension_path(),
        "import": import_timing,
        "rounds": [],
    }
    if hasattr(workload, "run_unsliced") and CORE_BACKEND == "compiled":
        # Doubles as the warm-up pass.  The pure-python pass skips it:
        # its sliced digest must equal the compiled one anyway.
        result["unsliced_digest"] = workload.run_unsliced()

    deadline = started + job["budget_s"]
    last_wall = 0.0
    while len(result["rounds"]) < job["max_rounds"]:
        done = len(result["rounds"])
        if done >= job["min_rounds"] and time.perf_counter() + last_wall > deadline:
            break
        round_start = time.perf_counter()
        result["rounds"].append(run_round(workload, norm, digest=done == 0))
        last_wall = time.perf_counter() - round_start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if job["trace"]:
        import probes
        import trace

        tracer = trace.install()
        tracer.calibrate()
        result["traced_round"] = run_round(
            workload, norm, digest=False, tracer=tracer,
            untraced=result["rounds"][0]["timings"],
        )
        if CORE_BACKEND == "compiled":
            result["probes"] = probes.snapshot_probe(workload, tracer, norm)
        payload = tracer.export()
        payload["workload"] = job["workload"]
        payload["backend"] = CORE_BACKEND
        with open(job["trace_out"], "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        result["trace_counts"] = payload["counts"]
        result["calibration"] = payload["calibration"]

    result["reference"] = norm.reference_summary()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
