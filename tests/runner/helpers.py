"""Picklable cells for the runner tests (module-level, so a
:class:`~repro.runner.spec.TaskSpec` or :class:`~repro.runner.grid.
GridCell` can name them)."""

import os
import time
from pathlib import Path

from repro.snapshot.golden import build_golden_scenario


def toy_prefix(variant: str, until: float):
    """A golden scenario advanced to ``until``."""
    world = build_golden_scenario(variant)
    world.sim.run(until=until)
    return world


def toy_finish(fresh_world, until: float) -> dict:
    """Take two worlds; run only the first on to ``until``."""
    first, second = fresh_world(), fresh_world()
    first.sim.run(until=until)
    return {
        "distinct": first is not second,
        "first": (first.sim.now, first.senders[1].snd_una),
        "second": (second.sim.now, second.senders[1].snd_una),
    }


def run_metrics_cell(variant: str, until: float = 6.0) -> dict:
    """A deterministic cell: run a golden scenario and return scalar
    metrics (the payload of the bit-identity assertions)."""
    world = build_golden_scenario(variant)
    world.sim.run(until=until)
    sender = world.senders[1]
    return {
        "variant": variant,
        "snd_una": sender.snd_una,
        "cwnd": sender.cwnd,
        "events": world.sim.events_processed,
        "timeouts": sender.timeouts,
    }


def crash_metrics_cell(variant: str, sentinel: str, delay: float, until: float) -> dict:
    """While ``sentinel`` exists, wait ``delay`` seconds and kill the
    worker process outright; otherwise :func:`run_metrics_cell`."""
    if Path(sentinel).exists():
        time.sleep(delay)
        os._exit(13)
    return run_metrics_cell(variant, until=until)


def unpicklable_result_cell() -> object:
    """Succeeds, but returns something the cache cannot pickle."""
    return lambda: None  # pragma: no cover - never called
