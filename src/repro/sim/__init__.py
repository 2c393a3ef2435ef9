"""Discrete-event simulation core.

This subpackage is the substrate everything else runs on: a heap-based event
scheduler (:class:`~repro.sim.engine.Simulator`), cancellable/restartable
timers (:class:`~repro.sim.timers.Timer`), seeded random-number streams
(:class:`~repro.sim.rng.RngStream`), and a lightweight trace bus
(:class:`~repro.sim.tracing.TraceBus`) — plus the chaos harness's
defensive half: online invariant checking over the bus
(:mod:`repro.sim.invariants`) and a run watchdog
(:mod:`repro.sim.watchdog`); see docs/FAULTS.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "engine": ("Event", "Simulator"),
        "invariants": ("InvariantChecker", "InvariantSuite", "standard_suite"),
        "rng": ("RngStream",),
        "timers": ("Timer",),
        "tracing": ("TraceBus", "TraceRecord", "TraceTail"),
        "watchdog": ("CrashReport", "FlowSnapshot", "Watchdog"),
    },
)
