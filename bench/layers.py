"""Per-layer metrics from a traced run (the names BENCHMARK.json lists).

Three sources, in order of preference:

* exact counts the program keeps in public counters (events fired,
  queue drops, retransmissions, ...), read after an *untraced* round;
* span calls and self times from bench/trace.py — self times are
  shares of the *untraced* cost of the same segment (see
  ``worker._bill_layers``), in normalised seconds scaled to the
  workload's reference work like ``norm_s``, so the layers of a
  workload add up to the ``norm_s`` of the untraced round beside it;
* the probes of bench/probes.py.

A layer a workload does not exercise reads 0 — that is a result
(``net.red.*`` on ``lossy_recovery``), not a gap.
"""

from timing import round_total

#: layer metric -> span-name prefixes whose self times it sums.
SELF_TIME = {
    "sim.engine.self_s": ("sim.engine",),
    "sim.timers.self_s": ("sim.timers",),
    "net.link.self_s": ("net.link",),
    "net.queues.self_s": ("net.queues",),
    "net.red.self_s": ("net.red",),
    "net.node.self_s": ("net.node",),
    "net.loss.self_s": ("net.loss",),
    "tcp.receiver.self_s": ("tcp.receiver",),
    "tcp.sender.self_s": ("tcp.sender", "core.robust_recovery"),
    "core.robust_recovery.self_s": ("core.robust_recovery",),
    "tcp.scoreboard.self_s": ("tcp.scoreboard",),
    "metrics.flowstats.self_s": ("metrics.flowstats",),
    "sim.tracing.self_s": ("sim.tracing",),
    "sim.invariants.self_s": ("sim.invariants",),
    "sim.watchdog.self_s": ("sim.watchdog",),
    "ident.features.extract_s": ("ident.features",),
    "scenes.build_s": ("scenes",),
    "runner.spec.digest_s": ("runner.spec",),
    "runner.fingerprint_s": ("runner.fingerprint",),
    "runner.cache.lookup_s": ("runner.cache:lookup",),
    "runner.cache.store_s": ("runner.cache:store",),
    "runner.pool.map_self_s": ("runner.pool",),
    "obs.manifest.write_s": ("obs.manifest",),
}
#: layer metric -> span names whose calls it sums.
SPAN_CALLS = {
    "sim.engine.schedule_calls": ("sim.engine:schedule",),
    "tcp.sender.acks": ("tcp.sender:receive", "core.robust_recovery:receive"),
    "tcp.scoreboard.updates": ("tcp.scoreboard:update",),
    "sim.tracing.emits": ("sim.tracing:emit",),
    "runner.spec.digests": ("runner.spec:digest",),
    "runner.cache.lookups": ("runner.cache:lookup",),
}
#: Counts the program keeps itself; on ``paper_sweep`` (no access to
#: the worlds inside the CLI children) the span calls stand in.
PUBLIC_COUNTS = {
    "sim.engine.events": None,
    "sim.engine.event_pool_size": None,
    "net.link.sends": ("net.link:send",),
    "net.queues.enqueues": None,
    "net.queues.drops": None,
    "net.red.enqueues": None,
    "net.red.early_drops": None,
    "net.red.forced_drops": None,
    "net.node.forwards": None,
    "net.loss.decisions": ("net.loss:should_drop",),
    "net.loss.drops": None,
    "net.packet.allocs": None,
    "net.packet.pool_reused": None,
    "net.packet.pool_skipped": None,
    "tcp.receiver.segments": ("tcp.receiver:receive",),
    "tcp.receiver.acks_sent": None,
    "tcp.sender.dupacks": None,
    "tcp.sender.sends": ("metrics.flowstats:on_send",),
    "tcp.sender.retransmits": None,
    "tcp.sender.timeouts": ("metrics.flowstats:on_timeout",),
    "tcp.sender.recoveries": ("metrics.flowstats:on_recovery_enter",),
    "tcp.rtt.samples": ("tcp.rtt:on_sample",),
    "sim.invariants.checks": ("sim.invariants:check",),
    "ident.features.records": None,
}
#: Counters a shim frame perturbs (it holds one more reference to the
#: packet, so the refcount-gated pool skips the recycle): taken from the
#: untraced round and left out of the traced-vs-untraced comparison.
TRACE_SENSITIVE = ("net.packet.pool_reused", "net.packet.pool_skipped")
PROBE_DEFAULTS = {
    "snapshot.capture_s": 0.0, "snapshot.restore_s": 0.0, "snapshot.digest_s": 0.0,
    "snapshot.bytes": 0, "snapshot.delta.diff_s": 0.0, "snapshot.delta.ratio": 0.0,
    "runner.pool.task_overhead_ms": 0.0,
    "runner.warmstart.fig5late_ratio": 0.0, "runner.warmstart.fig6_ratio": 0.0,
    "runner.warmstart.fig7_ratio": 0.0, "runner.warmstart.table5_ratio": 0.0,
    "runner.warmstart.ackloss_ratio": 0.0,
}


def _layer(span):
    return span.split(":", 1)[0]


def span_metrics(spans, scale=1.0):
    """Everything derivable from ``{span: {calls, self_norm_s}}``."""
    metrics = {}
    for metric, prefixes in SELF_TIME.items():
        metrics[metric] = scale * sum(
            entry["self_norm_s"]
            for span, entry in spans.items()
            if span in prefixes or _layer(span) in prefixes
        )
    for metric, names in SPAN_CALLS.items():
        metrics[metric] = sum(spans[n]["calls"] for n in names if n in spans)
    metrics["metrics.flowstats.callbacks"] = sum(
        entry["calls"] for span, entry in spans.items() if _layer(span) == "metrics.flowstats"
    )
    return metrics


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _finish(metrics, shim_counts):
    """Derived ratios and the shim-only counters."""
    metrics["sim.timers.restarts"] = sum(c["timer_restarts"] for c in shim_counts)
    metrics["sim.tracing.delivered"] = sum(c["trace_delivered"] for c in shim_counts)
    metrics["sim.engine.heap_peak"] = max((c["heap_peak"] for c in shim_counts), default=0)
    metrics["sim.engine.cancel_ratio"] = _ratio(
        sum(c["timer_cancels"] for c in shim_counts), metrics["sim.engine.schedule_calls"]
    )
    metrics["tcp.sender.retx_ratio"] = _ratio(
        metrics["tcp.sender.retransmits"], metrics["tcp.sender.sends"]
    )
    metrics["net.packet.pool_hit_ratio"] = _ratio(
        metrics["net.packet.pool_reused"], metrics["net.packet.allocs"]
    )
    return metrics


def _sum_counts(summaries):
    totals = {}
    for summary in summaries.values():
        for key, value in summary["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def scene_layer_metrics(session, checks, name, passes, scale):
    """Per-layer metrics of an in-process workload."""
    compiled = passes["compiled"]
    traced = compiled["traced_round"]
    plain = compiled["rounds"][0]
    segments = set(traced["timings"])
    shim_counts = [c for cell, c in compiled["trace_counts"].items() if cell in segments]

    spans = dict(traced["layers"])
    for span, entry in traced["setup_layers"].items():
        if _layer(span) == "scenes":
            spans[span] = entry
    metrics = span_metrics(spans, scale)
    counts = _sum_counts(plain["summaries"])
    traced_counts = _sum_counts(traced["summaries"])
    for key in PUBLIC_COUNTS:
        metrics[key] = counts.get(key, 0)
        if key not in TRACE_SENSITIVE:
            checks.check(
                counts.get(key, 0) == traced_counts.get(key, 0),
                f"{name}: {key} is {counts.get(key, 0)} untraced but {traced_counts.get(key, 0)} traced",
            )
    # The outside-in trace must see exactly the work the program counts.
    callbacks = sum(e["calls"] for span, e in spans.items() if span.endswith(":callback"))
    checks.check(
        callbacks == metrics["sim.engine.events"],
        f"{name}: {callbacks} traced callbacks vs {metrics['sim.engine.events']} events",
    )
    checks.check(
        spans.get("net.link:send", {"calls": 0})["calls"] == metrics["net.link.sends"],
        f"{name}: traced Link.send calls differ from the links' own counters",
    )
    _finish(metrics, shim_counts)

    untraced_norm = round_total(plain["timings"])
    traced_norm = round_total(traced["timings"])
    metrics["sim.engine.events_per_s"] = _ratio(metrics["sim.engine.events"], untraced_norm)
    metrics["bench.trace_overhead"] = traced_norm / untraced_norm - 1.0
    python_spans = passes["python"]["traced_round"]["layers"]
    metrics["sim.engine.py_self_s"] = span_metrics(python_spans, scale)["sim.engine.self_s"]

    summaries = plain["summaries"].values()
    errors = [s["oracle_rel_err"] for s in summaries if "oracle_rel_err" in s]
    metrics["oracle_rel_err"] = sum(errors) / len(errors) if errors else 0.0
    matches = [s["ident_match"] for s in summaries if "ident_match" in s]
    metrics["ident.match_share"] = sum(matches) / len(matches) if matches else 0.0

    metrics["setup.build_ext_s"] = session.build["timing"]["norm_s"]
    metrics["experiments.cli.import_s"] = 0.0
    for key in ("runner.cache.hits", "runner.cache.hit_ratio", "runner.cache.bytes",
                "runner.cold_norm_s", "runner.replay_norm_s"):
        metrics[key] = 0
    metrics.update(PROBE_DEFAULTS)
    metrics.update(compiled["probes"])
    return metrics


def sweep_layer_metrics(session, checks, plain, traced, probes):
    """Per-layer metrics of ``paper_sweep``: the CLI children's own
    span aggregates (bench/trace.py run as a script), summed over the
    cold and the replay pass, plus the manifests they wrote."""
    spans, shim_counts = {}, []
    import_norm = 0.0
    for key, child in traced["traces"].items():
        untraced = plain["timings"][key]
        # Imports happen before the shims go in, so they cost the traced
        # and the untraced call the same CPU.
        child_import = untraced["norm_s"] * min(1.0, child["import_cpu_s"] / untraced["cpu_s"])
        import_norm += child_import
        shim_counts.extend(child["counts"].values())
        # The untraced call's cost, less its imports, is what the
        # traced call's spans share out (see worker._bill_layers).
        budget = untraced["norm_s"] - child_import
        records = [r for cell in child["cells"].values() for r in cell.items()]
        total = sum(record["self_corrected_ns"] for _, record in records) or 1.0
        for span, record in records:
            entry = spans.setdefault(span, {"calls": 0, "self_norm_s": 0.0})
            entry["calls"] += record["calls"]
            entry["self_norm_s"] += budget * record["self_corrected_ns"] / total
    metrics = span_metrics(spans)
    for key, stand_in in PUBLIC_COUNTS.items():
        metrics[key] = sum(spans[s]["calls"] for s in stand_in or () if s in spans)
    metrics["sim.engine.events"] = sum(
        e["calls"] for span, e in spans.items() if span.endswith(":callback")
    )
    _finish(metrics, shim_counts)

    untraced_norm = round_total(plain["timings"])
    traced_norm = round_total(traced["timings"])
    cold_norm = sum(
        t["norm_s"] for key, t in plain["timings"].items() if key.startswith("cold/")
    )
    metrics["sim.engine.events_per_s"] = _ratio(metrics["sim.engine.events"], cold_norm)
    # norm_s on this workload is cold + replay; the split is the one
    # thing the end-to-end metrics cannot show.
    metrics["runner.cold_norm_s"] = cold_norm
    metrics["runner.replay_norm_s"] = untraced_norm - cold_norm
    metrics["bench.trace_overhead"] = traced_norm / untraced_norm - 1.0
    metrics["sim.engine.py_self_s"] = 0.0
    metrics["oracle_rel_err"] = 0.0
    metrics["ident.match_share"] = 0.0
    metrics["setup.build_ext_s"] = session.build["timing"]["norm_s"]
    metrics["experiments.cli.import_s"] = import_norm
    manifests = list(plain["manifests"].values())
    metrics["runner.cache.hits"] = sum(m.get("cached", 0) for m in manifests)
    metrics["runner.cache.hit_ratio"] = _ratio(
        metrics["runner.cache.hits"], sum(m.get("total", 0) for m in manifests)
    )
    metrics["runner.cache.bytes"] = plain["cache_bytes"]
    # Same program, same inputs: the traced children must have done the
    # same cells as the untraced ones.
    checks.check(
        [m.get("total") for m in traced["manifests"].values()] == [m.get("total") for m in manifests],
        "paper_sweep: traced CLI calls ran a different number of cells",
    )
    metrics.update(PROBE_DEFAULTS)
    metrics.update(probes)
    return metrics
