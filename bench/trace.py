"""Outside-in layer trace: spans around the calls *into* each layer.

Nothing inside ``src/`` knows about this file.  :func:`install` wraps,
at class level and before any world is built, the public entry points
of every layer (see ``METHOD_SHIMS`` / ``FUNCTION_SHIMS``) and the two
engine boundaries:

* ``Simulator.schedule`` / ``schedule_abs`` — every scheduled callback
  is re-routed through :func:`dispatch`, which opens a span named after
  the layer that *owns* the callback (the module of the bound method's
  instance).  That is the engine -> layer boundary, and it needs no
  private name.
* ``Simulator.run`` — the span whose self time is the dispatch loop.

A span has a name ``<layer>:<operation>``, a start, an end and a
parent.  Per (cell, name) the tracer keeps calls, total and self
nanoseconds (self = duration - children) and the number of child spans;
the first ``SPAN_SAMPLE`` spans of every segment are also kept whole.
Everything stays in memory until :meth:`Tracer.export`.

Self times are reported less the cost of the shims themselves,
calibrated on a no-op (:meth:`Tracer.calibrate`): ``inner`` ns are
charged inside each span, ``outer`` ns land in its parent.

Run as a script it is the traced stand-in for ``python -m``:

    python bench/trace.py --out FILE --import repro.experiments.cli \
        -m repro.experiments fig5 --quick

imports the named modules (timed: the CLI's import cost), installs the
shims, runs the module as ``__main__`` and writes the aggregates to FILE.
"""

import argparse
import functools
import importlib
import json
import runpy
import sys
import time

_clock = time.perf_counter_ns

#: Whole spans kept per segment (the aggregates cover every span).
SPAN_SAMPLE = 400
ROOT_SPAN = "bench:segment"

#: (module, class, method, span name).  Subclasses that override the
#: method are wrapped too, under the layer of the module defining them.
METHOD_SHIMS = [
    ("repro.sim.engine", "Simulator", "run", "sim.engine:run"),
    ("repro.net.link", "Link", "send", "net.link:send"),
    ("repro.net.queues", "PacketQueue", "enqueue", ":enqueue"),
    ("repro.net.queues", "PacketQueue", "dequeue", ":dequeue"),
    ("repro.net.node", "Node", "receive", "net.node:receive"),
    ("repro.net.loss", "LossModule", "should_drop", "net.loss:should_drop"),
    ("repro.tcp.receiver", "TcpReceiver", "receive", "tcp.receiver:receive"),
    ("repro.tcp.base", "TcpSender", "receive", ":receive"),
    ("repro.tcp.base", "TcpSender", "send_available", ":send_available"),
    ("repro.tcp.scoreboard", "Scoreboard", "update", "tcp.scoreboard:update"),
    ("repro.tcp.rtt", "RtoEstimator", "on_sample", "tcp.rtt:on_sample"),
    ("repro.sim.invariants", "InvariantChecker", "check", "sim.invariants:check"),
    ("repro.ident.features", "FlowTraceCollector", "features", "ident.features:extract"),
    ("repro.runner.spec", "TaskSpec", "digest", "runner.spec:digest"),
    ("repro.runner.cache", "ResultCache", "lookup", "runner.cache:lookup"),
    ("repro.runner.cache", "ResultCache", "store", "runner.cache:store"),
    ("repro.runner.pool", "SweepRunner", "map", "runner.pool:map"),
    ("repro.obs.manifest", "RunManifest", "write", "obs.manifest:write"),
    ("repro.snapshot.core", "Snapshot", "capture", "snapshot:capture"),
    ("repro.snapshot.core", "Snapshot", "restore", "snapshot:restore"),
    ("repro.snapshot.core", "Snapshot", "save", "snapshot:save"),
    ("repro.snapshot.core", "Snapshot", "load", "snapshot:load"),
    ("repro.snapshot.delta", "DeltaSnapshot", "diff", "snapshot.delta:diff"),
]
#: The SenderObserver hooks, wrapped on the stats classes only (the
#: base class's no-ops are what a sender without an observer calls).
METHOD_SHIMS += [
    ("repro.metrics.flowstats", cls, hook, f"metrics.flowstats:{hook}")
    for cls in ("FlowStats", "LeanFlowStats")
    for hook in (
        "on_start", "on_send", "on_ack", "on_cwnd", "on_timeout",
        "on_recovery_enter", "on_recovery_exit", "on_complete",
    )
]
#: (module, function, span name) — wrapped in every loaded module that
#: imported the function by name (the benchmark's own included).
FUNCTION_SHIMS = [
    ("repro.scenes.build", "build_scene", "scenes:build"),
    ("repro.snapshot.digest", "state_digest", "snapshot:digest"),
    ("repro.runner.fingerprint", "code_fingerprint", "runner.fingerprint:compute"),
]


def layer_of(cls):
    """The layer a class's work is billed to (its module, with every
    sender variant folded into ``tcp.sender`` except RR itself)."""
    from repro.tcp.base import TcpSender

    module = cls.__module__
    if issubclass(cls, TcpSender):
        if module == "repro.core.robust_recovery":
            return "core.robust_recovery"
        return "tcp.sender"
    return module[len("repro."):] if module.startswith("repro.") else module


class Tracer:
    def __init__(self):
        self.cells = {}            # cell id -> {span name: [calls, total, self, children]}
        self.counts = {}           # shim-only counters, per cell id
        self.spans = []            # sampled [id, parent, name, start_ns, end_ns, cell]
        self.calibration = {"inner_ns": 0.0, "outer_ns": 0.0}
        self._stack = [[0, 0, 0]]  # frames: [child_ns, child_calls, span id]
        self._labels = {}          # callback owner type -> span-wrapped trampoline
        self._cell = None
        self._agg = None
        self._cnt = None
        self._sample_left = 0
        self._next_id = 1
        self._installed = False
        self._root = self.wrap(_invoke, ROOT_SPAN)
        self.set_cell("-")

    # ------------------------------------------------------------------
    # context
    # ------------------------------------------------------------------
    def set_cell(self, cell):
        self._cell = cell
        self._agg = self.cells.setdefault(cell, {})
        self._cnt = self.counts.setdefault(
            cell,
            {"timer_restarts": 0, "timer_cancels": 0, "trace_delivered": 0, "heap_peak": 0},
        )

    def run_segment(self, cell, fn):
        """Run ``fn()`` as the root span of one timed segment."""
        self.set_cell(cell)
        self._sample_left = SPAN_SAMPLE
        try:
            return self._root(fn)
        finally:
            self._sample_left = 0

    # ------------------------------------------------------------------
    # span bookkeeping (the hot path)
    # ------------------------------------------------------------------
    def wrap(self, fn, name):
        """``fn`` inside a span called ``name``."""
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = stack[-1]
            span_id = 0
            if tracer._sample_left > 0:
                tracer._sample_left -= 1
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0, 0, span_id]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                del stack[-1]
                duration = end - start
                agg = tracer._agg
                record = agg.get(name)
                if record is None:
                    record = agg[name] = [0, 0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                record[3] += frame[1]
                parent[0] += duration
                parent[1] += 1
                if span_id:
                    tracer.spans.append([span_id, parent[2], name, start, end, tracer._cell])

        return shim

    def wrap_by_owner(self, fn, operation):
        """Like :meth:`wrap`, but the span is named after the layer of
        the *instance* the method is called on (so RR's share of the
        sender code it inherits is billed to RR)."""
        table = {}

        @functools.wraps(fn)
        def shim(obj, *args, **kwargs):
            wrapped = table.get(type(obj))
            if wrapped is None:
                wrapped = table[type(obj)] = self.wrap(fn, layer_of(type(obj)) + operation)
            return wrapped(obj, *args, **kwargs)

        return shim

    def callback_shim(self, fn):
        """The span-wrapped trampoline for a scheduled callback, named
        after the layer that owns it."""
        owner = getattr(fn, "__self__", None)
        key = type(owner) if owner is not None else fn
        shim = self._labels.get(key)
        if shim is None:
            if owner is not None:
                layer = layer_of(type(owner))
            else:
                layer = getattr(fn, "__module__", "?").replace("repro.", "", 1)
            shim = self._labels[key] = self.wrap(_invoke, layer + ":callback")
        return shim

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self):
        if self._installed:
            return self
        self._installed = True
        for module_name, cls_name, method, span in METHOD_SHIMS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch_method(cls, method, span)
        self._patch_engine()
        self._patch_timers()
        self._patch_tracing()
        for module_name, fn_name, span in FUNCTION_SHIMS:
            self._patch_function(importlib.import_module(module_name), fn_name, span)
        return self

    def _patch_method(self, cls, method, span):
        seen = set()
        pending = [cls]
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            if method in vars(klass):
                attr = vars(klass)[method]
                if span.startswith(":"):
                    wrapped = self.wrap_by_owner(attr, span)
                elif isinstance(attr, (classmethod, staticmethod)):
                    wrapped = type(attr)(self.wrap(attr.__func__, span))
                else:
                    wrapped = self.wrap(attr, span)
                setattr(klass, method, wrapped)

    def _patch_function(self, module, fn_name, span):
        original = getattr(module, fn_name)
        wrapped = self.wrap(original, span)
        for mod in list(sys.modules.values()):
            for attr, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def _patch_engine(self):
        from repro.sim.engine import Simulator

        counts = {"calls": 0}
        tracer = self

        def reroute(original):
            def schedule(sim, when, fn, *args):
                counts["calls"] += 1
                if not counts["calls"] & 63:
                    pending = sim.pending_events
                    if pending > tracer._cnt["heap_peak"]:
                        tracer._cnt["heap_peak"] = pending
                return original(sim, when, dispatch, fn, *args)

            return self.wrap(schedule, "sim.engine:schedule")

        Simulator.schedule = reroute(Simulator.schedule)
        Simulator.schedule_abs = reroute(Simulator.schedule_abs)

    def _patch_timers(self):
        from repro.sim.timers import Timer

        tracer = self
        start = self.wrap(Timer.start, "sim.timers:start")
        stop = self.wrap(Timer.stop, "sim.timers:stop")

        def counted_start(timer, delay):
            if timer.pending:
                tracer._cnt["timer_restarts"] += 1
            return start(timer, delay)

        def counted_stop(timer):
            if timer.pending:
                tracer._cnt["timer_cancels"] += 1
            return stop(timer)

        Timer.start = Timer.restart = counted_start
        Timer.stop = counted_stop

    def _patch_tracing(self):
        from repro.sim.tracing import TraceBus, TraceChannel

        tracer = self
        channel_emit = self.wrap(TraceChannel.emit, "sim.tracing:emit")
        bus_emit = self.wrap(TraceBus.emit, "sim.tracing:emit")
        bus_publish = self.wrap(TraceBus.publish, "sim.tracing:emit")

        def counted_channel_emit(channel, time_, source, **fields):
            tracer._cnt["trace_delivered"] += len(channel.subs)
            return channel_emit(channel, time_, source, **fields)

        def counted_bus_emit(bus, time_, category, source, **fields):
            tracer._cnt["trace_delivered"] += len(bus.channel(category).subs)
            return bus_emit(bus, time_, category, source, **fields)

        def counted_bus_publish(bus, record):
            tracer._cnt["trace_delivered"] += len(bus.channel(record.category).subs)
            return bus_publish(bus, record)

        TraceChannel.emit = counted_channel_emit
        TraceBus.emit = counted_bus_emit
        TraceBus.publish = counted_bus_publish

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    def calibrate(self, calls=20000):
        """Cost of one shim on a no-op: ``inner_ns`` is what a span's
        own duration includes, ``outer_ns`` what its parent sees on top."""

        def noop():
            return None

        shim = self.wrap(noop, "bench:calibration")
        saved_cell = self._cell
        self.set_cell("calibration")
        start = _clock()
        for _ in range(calls):
            noop()
        bare = _clock() - start
        start = _clock()
        for _ in range(calls):
            shim()
        wrapped = _clock() - start
        inner = self._agg["bench:calibration"][1] / calls
        outer = max(0.0, (wrapped - bare) / calls - inner)
        del self.cells["calibration"], self.counts["calibration"]
        self.set_cell(saved_cell)
        self.calibration = {"inner_ns": inner, "outer_ns": outer}
        return self.calibration

    def corrected_self_ns(self, record):
        """A span record's self time less the calibrated shim cost."""
        calls, _, self_ns, children = record
        cal = self.calibration
        return max(0.0, self_ns - calls * cal["inner_ns"] - children * cal["outer_ns"])

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def export(self):
        return {
            "calibration": self.calibration,
            "cells": {
                cell: {
                    name: {
                        "calls": r[0], "total_ns": r[1], "self_ns": r[2],
                        "children": r[3], "self_corrected_ns": self.corrected_self_ns(r),
                    }
                    for name, r in sorted(agg.items())
                }
                for cell, agg in self.cells.items()
                if agg
            },
            "counts": {cell: c for cell, c in self.counts.items() if cell in self.cells and self.cells[cell]},
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3], "end_ns": s[4], "cell": s[5]}
                for s in self.spans
            ],
        }


_TRACER = None


def _invoke(fn, *args):
    return fn(*args)


def dispatch(fn, *args):
    """Every scheduled callback fires through here.  Module-level (not
    a bound method) so events stay picklable for ``Snapshot.capture``."""
    return _TRACER.callback_shim(fn)(fn, *args)


def install():
    """The process-wide tracer, with every shim in place."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    return _TRACER.install()


def run_module_traced(argv):
    """``trace.py --out FILE [--import NAME] -m MODULE [ARGS...]``."""
    parser = argparse.ArgumentParser(prog="trace.py")
    parser.add_argument("--out", required=True)
    parser.add_argument("--import", dest="imports", action="append", default=[])
    parser.add_argument("-m", dest="module", required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)

    cpu0 = time.process_time()
    for name in options.imports:
        importlib.import_module(name)
    import_cpu = time.process_time() - cpu0
    tracer = install()
    tracer.calibrate()
    sys.argv = [options.module] + options.args
    code = 0

    def run():
        runpy.run_module(options.module, run_name="__main__", alter_sys=True)

    try:
        tracer.run_segment("cli", run)
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else (0 if exit_.code is None else 1)
    payload = tracer.export()
    payload["import_cpu_s"] = import_cpu
    with open(options.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    # Re-import under the module's real name: scheduled callbacks are
    # routed through ``trace.dispatch``, and a pickle (snapshots) must
    # find it there, not in ``__main__``.
    import trace as _self

    sys.exit(_self.run_module_traced(sys.argv[1:]))
