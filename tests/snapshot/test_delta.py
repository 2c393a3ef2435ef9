"""Delta snapshots: bit-identical rebuilds and sizing (in memory)."""

import pytest

from repro.errors import SnapshotError
from repro.snapshot import Snapshot, state_digest
from repro.snapshot.delta import DeltaSnapshot
from repro.snapshot.golden import GOLDEN_VARIANTS, build_golden_scenario


def _base_and_fork(variant, base_t=2.0, fork_t=6.0):
    """One golden world captured in slow-start (base) and again
    mid-recovery (fork) — the shape every warm cell and triage fork
    has: same topology, diverged late-stream state."""
    world = build_golden_scenario(variant)
    world.sim.run(until=base_t)
    base = Snapshot.capture(world, label=f"{variant} base")
    world.sim.run(until=fork_t)
    fork = Snapshot.capture(world, label=f"{variant} fork")
    return base, fork


class TestDiffRebuild:
    @pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
    def test_rebuild_is_bit_identical_mid_recovery(self, variant):
        base, fork = _base_and_fork(variant)
        delta = DeltaSnapshot.diff(fork, base)
        rebuilt = delta.rebuild(base)
        assert rebuilt.payload == fork.payload
        assert rebuilt.info == fork.info
        assert state_digest(rebuilt.restore()) == fork.digest

    def test_delta_is_smaller_than_full_for_a_fork(self):
        base, fork = _base_and_fork("rr")
        delta = DeltaSnapshot.diff(fork, base)
        assert delta.nbytes < fork.nbytes

    def test_self_delta_changes_nothing(self):
        base, _ = _base_and_fork("reno")
        delta = DeltaSnapshot.diff(base, base)
        assert delta.changed_sections == []
        assert delta.nbytes == 0
        assert delta.rebuild(base).payload == base.payload

    def test_wrong_base_is_refused(self):
        base, fork = _base_and_fork("reno")
        other, _ = _base_and_fork("sack")
        delta = DeltaSnapshot.diff(fork, base)
        with pytest.raises(SnapshotError, match="expects base"):
            delta.rebuild(other)

