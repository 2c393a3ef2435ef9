"""The scenes determinism contract: same digest, same world, same run.

Pins the guarantees docs/SCENARIOS.md documents: a SceneSpec fully
determines its world (rebuilds are bit-identical), runs are
reproducible across topology families, and a scene survives mid-run
snapshot capture/restore bit-identically — including on a >= 100-flow
scene, the scale the manyflow harness runs at.
"""

import pytest

from repro.net.red import RedParams
from repro.scenes import ArrivalSpec, FlowPopulation, SceneSpec, build_scene
from repro.snapshot import Snapshot, state_digest

FAMILY_SPECS = [
    SceneSpec(
        family="dumbbell",
        flows=FlowPopulation(count=6),
        red=RedParams(),
        seed=3,
        duration=2.0,
    ),
    SceneSpec(
        family="parkinglot",
        flows=FlowPopulation(count=5, size_dist="pareto", mean_packets=30.0),
        arrivals=ArrivalSpec(process="poisson", rate=20.0),
        seed=4,
        duration=2.0,
    ),
    SceneSpec(
        family="fattree",
        flows=FlowPopulation(count=4),
        arrivals=ArrivalSpec(process="onoff", on_packets=20, off_seconds=0.2),
        seed=5,
        duration=1.0,
    ),
    SceneSpec(
        family="wan",
        flows=FlowPopulation(count=6, size_dist="lognormal", mean_packets=40.0),
        arrivals=ArrivalSpec(process="staggered", stagger=0.05),
        seed=6,
        duration=1.5,
    ),
]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
def test_rerun_is_bit_identical(spec):
    a = build_scene(spec)
    a.sim.run(until=spec.duration)
    b = build_scene(spec)
    b.sim.run(until=spec.duration)
    assert state_digest(a) == state_digest(b)


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
def test_capture_restore_continues_bit_identically(spec):
    cold = build_scene(spec)
    cold.sim.run(until=spec.duration)
    reference = state_digest(cold)

    warm = build_scene(spec)
    warm.sim.run(until=spec.duration / 2)
    restored = Snapshot.capture(warm, label=f"{spec.family} midpoint").restore()
    restored.sim.run(until=spec.duration)
    assert state_digest(restored) == reference


def test_seed_changes_the_run():
    base, reseeded = FAMILY_SPECS[0], SceneSpec(
        family="dumbbell",
        flows=FlowPopulation(count=6),
        red=RedParams(),
        seed=103,
        duration=2.0,
    )
    a = build_scene(base)
    a.sim.run(until=base.duration)
    b = build_scene(reseeded)
    b.sim.run(until=reseeded.duration)
    assert state_digest(a) != state_digest(b)


def test_hundred_flow_scene_capture_restore():
    """Mid-run capture/restore on a manyflow-scale scene (>= 100 flows)."""
    from repro.experiments.manyflow import ManyflowConfig, cell_spec

    spec = cell_spec(100, 0.02, ManyflowConfig(duration=2.0))
    cold = build_scene(spec)
    cold.sim.run(until=spec.duration)
    reference = state_digest(cold)
    assert len(cold.senders) == 100

    warm = build_scene(spec)
    warm.sim.run(until=0.8)
    snapshot = Snapshot.capture(warm, label="manyflow 100-flow midpoint")
    restored = snapshot.restore()
    restored.sim.run(until=spec.duration)
    assert state_digest(restored) == reference
