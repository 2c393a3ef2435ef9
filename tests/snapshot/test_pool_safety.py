"""Snapshots taken mid-recovery.

A capture taken while a TCP sender is retransmitting must restore
bit-identically, fork into identical continuations and run on like
the uninterrupted original, across every golden variant.
"""

import pytest

from repro.net.packet import set_uid_state
from repro.snapshot import Snapshot, state_digest
from repro.snapshot.golden import build_golden_scenario

#: Mid-recovery checkpoint: the golden scenario's engineered 3-drop
#: burst hits around t=2-3s; by t=6 every variant is inside (or just
#: completing) loss recovery with retransmissions in flight.
MID_RECOVERY_T = 6.0

VARIANTS = ("tahoe", "reno", "newreno", "sack", "rr")


def run_to_recovery(variant):
    scenario = build_golden_scenario(variant)
    scenario.sim.run(until=MID_RECOVERY_T)
    return scenario


class TestCaptureDrainsPools:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_capture_restore_roundtrip_with_active_pools(self, variant):
        scenario = run_to_recovery(variant)
        snapshot = Snapshot.capture(scenario)
        restored = snapshot.restore()  # verify=True re-checks the digest
        assert state_digest(restored) == snapshot.digest

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fork_continuations_bit_identical(self, variant):
        scenario = run_to_recovery(variant)
        snapshot = Snapshot.capture(scenario)
        digests = []
        for world in snapshot.fork(2):
            set_uid_state(snapshot.uid_next)
            world.sim.run(until=12.0)
            digests.append(state_digest(world))
        assert digests[0] == digests[1]

    def test_restored_world_runs_like_the_original(self):
        # The uninterrupted original and a restored continuation agree
        # at the end.
        original = run_to_recovery("rr")
        snapshot = Snapshot.capture(original)
        original.sim.run(until=12.0)
        final = state_digest(original)
        restored = snapshot.restore()
        restored.sim.run(until=12.0)
        assert state_digest(restored) == final
