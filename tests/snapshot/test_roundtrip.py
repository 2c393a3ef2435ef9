"""Bit-identical continuation: the snapshot subsystem's correctness bar.

For every TCP variant: run the golden scenario until the sender is
inside loss recovery, capture, continue the *original* to the end, then
restore the snapshot and run the copy to the end.  Both the continued
original and the restored copy must match an uninterrupted reference
run exactly — same FlowStats series, same final canonical state digest.
"""

import json

import pytest

from repro._record import replace
from repro.errors import SnapshotError, SnapshotFormatError
from repro.faults.campaign import CampaignRunner, CampaignSpec
from repro.faults.plan import FaultContext
from repro.snapshot import GOLDEN_VARIANTS, Snapshot, state_digest
from repro.snapshot.golden import build_golden_scenario

END_TIME = 40.0


def _run_to_mid_recovery(scenario):
    """Step until the flow is mid-recovery (Tahoe has no recovery phase
    flag — its marker is the first fast retransmit)."""
    sender = scenario.senders[1]
    while not (sender.in_recovery or sender.retransmits > 0):
        assert scenario.sim.now < 30.0, "never reached the loss episode"
        scenario.sim.run(until=scenario.sim.now + 0.02)
    return scenario


@pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
class TestBitIdenticalContinuation:
    def test_restore_matches_uninterrupted_run(self, variant):
        reference = build_golden_scenario(variant)
        reference.sim.run(until=END_TIME)
        reference_digest = state_digest(reference)
        reference_stats = reference.stats[1]

        world = _run_to_mid_recovery(build_golden_scenario(variant))
        snapshot = Snapshot.capture(world, label=f"{variant} mid-recovery")

        # Capture must not perturb: the original continues identically.
        world.sim.run(until=END_TIME)
        assert state_digest(world) == reference_digest

        restored = snapshot.restore()
        assert restored is not world
        assert state_digest(restored) == snapshot.digest
        restored.sim.run(until=END_TIME)

        stats = restored.stats[1]
        assert stats.ack_series == reference_stats.ack_series
        assert stats.send_series == reference_stats.send_series
        assert stats.cwnd_series == reference_stats.cwnd_series
        assert stats.episodes == reference_stats.episodes
        assert state_digest(restored) == reference_digest

    def test_save_load_roundtrip(self, variant, tmp_path):
        world = _run_to_mid_recovery(build_golden_scenario(variant))
        snapshot = Snapshot.capture(world)
        path = snapshot.save(tmp_path / f"{variant}.snap")

        info = Snapshot.read_info(path)
        assert info.digest == snapshot.digest
        assert info.sim_time == snapshot.sim_time

        loaded = Snapshot.load(path)
        restored = loaded.restore()
        assert state_digest(restored) == snapshot.digest


class TestFaultPlanResumability:
    def test_mid_campaign_snapshot_continues_identically(self):
        """A world with an installed fault plan (scheduled outages,
        tamper chains) snapshots mid-campaign and resumes exactly."""

        def build():
            scenario = build_golden_scenario("newreno")
            campaign = CampaignRunner(
                seed=97, spec=CampaignSpec(horizon=8.0, warmup=1.0, max_actions=3)
            )
            plan = campaign.plan_for(0)
            plan.install(FaultContext.from_scenario(scenario))
            return scenario

        reference = build()
        reference.sim.run(until=END_TIME)
        reference_digest = state_digest(reference)

        world = build()
        world.sim.run(until=3.0)  # inside the campaign window
        snapshot = Snapshot.capture(world, label="mid-campaign")
        restored = snapshot.restore()
        restored.sim.run(until=END_TIME)
        assert state_digest(restored) == reference_digest


class TestCaptureGuards:
    def test_capture_while_running_raises(self):
        scenario = build_golden_scenario("reno")
        sim = scenario.sim
        failure = {}

        def grab():
            try:
                Snapshot.capture(scenario)
            except SnapshotError as exc:
                failure["error"] = exc

        sim.schedule(0.5, grab)
        sim.run(until=1.0)
        assert "error" in failure
        assert "running" in str(failure["error"])

    def test_unpicklable_world_raises_snapshot_error(self):
        scenario = build_golden_scenario("reno")
        scenario.sim.run(until=1.0)
        # A closure in a scheduled event is the canonical capture-killer.
        scenario.sim.schedule(5.0, lambda: None)
        with pytest.raises(SnapshotError, match="picklable"):
            Snapshot.capture(scenario)

    def test_world_without_simulator_rejected(self):
        with pytest.raises(SnapshotError, match="Simulator"):
            Snapshot.capture(object())

    def test_corrupted_payload_fails_digest_verification(self, tmp_path):
        scenario = build_golden_scenario("reno")
        scenario.sim.run(until=1.0)
        snapshot = Snapshot.capture(scenario)
        # Tamper with the recorded digest: restore must notice.
        snapshot.info = replace(snapshot.info, digest="0" * 64)
        with pytest.raises(SnapshotError, match="digest"):
            snapshot.restore()


class TestFormatGate:
    def test_format_2_file_is_refused(self, tmp_path):
        """A format-2 file predates the pickled ``Timer._deadline``: it
        would load and then fail when a restored timer fires, so both
        readers refuse it up front."""
        scenario = build_golden_scenario("rr")
        scenario.sim.run(until=1.0)
        path = Snapshot.capture(scenario).save(tmp_path / "rr.snap")
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["format"] = 2
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(SnapshotFormatError, match="format 2"):
            Snapshot.read_info(path)
        with pytest.raises(SnapshotFormatError, match="format 2"):
            Snapshot.load(path)
