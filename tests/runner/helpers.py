"""Picklable toy prefix/finish functions for tests/runner/test_grid.py
(module-level, so a :class:`~repro.runner.grid.GridCell` can name them)."""

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
