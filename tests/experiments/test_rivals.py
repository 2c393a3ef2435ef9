"""The rivals harness: modern senders vs RR under modern regimes (serial
== parallel: tests/experiments/test_warmstart_grids.py)."""

import pytest

from repro._record import replace
from repro.experiments import rivals
from repro.experiments.export_results import export_result
from repro.obs.manifest import RunManifest
from repro.snapshot import Snapshot, state_digest

QUICK = rivals.RivalsConfig(
    rivals=("cubic", "relentless"),
    regimes=("delack", "ecn-red", "mobile"),
    flows_per_side=2,
    duration=8.0,
    warmup=2.0,
    model_loss_rates=(0.03,),
    model_duration=30.0,
    seed=11,
)


@pytest.fixture(scope="module")
def quick_result():
    return rivals.run_rivals(replace(QUICK))


def test_grid_shape(quick_result):
    # Per regime: one match cell per rival, plus pure baselines for rr
    # and each rival; model cells ride along once per loss rate.
    n_regimes, n_rivals = len(QUICK.regimes), len(QUICK.rivals)
    match = [c for c in quick_result.cells if c.kind == "match"]
    pure = [c for c in quick_result.cells if c.kind == "pure"]
    model = [c for c in quick_result.cells if c.kind == "model"]
    assert len(match) == n_regimes * n_rivals
    assert len(pure) == n_regimes * (n_rivals + 1)
    assert len(model) == len(QUICK.model_loss_rates)
    assert len(quick_result.rows) == len(match)


def test_match_cells_carry_both_groups(quick_result):
    for cell in quick_result.cells:
        if cell.kind != "match":
            continue
        assert cell.rr_goodput_bps > 0, cell.label
        assert cell.rival_goodput_bps > 0, cell.label
        assert 0.0 < cell.jain <= 1.0
        assert cell.events > 0


def test_regimes_shape_tcp_config():
    config = replace(QUICK)
    delack = rivals._regime_tcp_config("delack", config)
    ecn = rivals._regime_tcp_config("ecn-red", config)
    wired = rivals._regime_tcp_config("wired", config)
    assert delack.delayed_ack and not delack.ecn_enabled
    assert ecn.ecn_enabled and not ecn.delayed_ack
    assert not wired.delayed_ack and not wired.ecn_enabled
    forced = rivals._regime_tcp_config(
        "wired", replace(config, force_delayed_ack=True, force_ecn=True)
    )
    assert forced.delayed_ack and forced.ecn_enabled


def test_model_cell_verdict(quick_result):
    model = [c for c in quick_result.cells if c.kind == "model"]
    assert model and all(c.verdict is not None for c in model)
    for cell in model:
        assert cell.verdict.passed, cell.verdict.format()
    assert quick_result.all_passed


def test_mobile_cells_share_channel_trace():
    config = replace(QUICK)
    a = rivals.mobile_schedule(config)
    b = rivals.mobile_schedule(config)
    assert a.steps == b.steps  # same seed, same channel for every cell


@pytest.mark.parametrize("regime", ["delack", "ecn-red", "mobile"])
def test_cell_world_survives_capture_restore(regime):
    """Delayed-ACK timers, the ECN-marking RED queue and the rate
    schedule all ride through a mid-run snapshot (chaos ``--triage``
    forks such worlds)."""
    config = replace(QUICK)
    # One world at a time: packet uids are process-global and
    # build_cell_world rewinds them.
    in_place = rivals.build_cell_world("match", "cubic", regime, config)
    in_place.sim.run(until=config.duration)

    world = rivals.build_cell_world("match", "cubic", regime, config)
    world.sim.run(until=config.warmup)
    restored = Snapshot.capture(world, label=f"rivals {regime}").restore()
    restored.sim.run(until=config.duration)
    assert state_digest(restored) == state_digest(in_place)


def test_manifest_records_model_verdicts():
    manifest = RunManifest.begin("rivals", fingerprint="test")
    result = rivals.run_rivals(replace(QUICK), manifest=manifest)
    model = [c for c in result.cells if c.kind == "model"]
    assert manifest.oracle is not None and len(manifest.oracle) == len(model)
    entry = manifest.oracle[0]
    assert entry["passed"] == model[0].verdict.passed
    loaded = RunManifest.from_json(manifest.to_json())
    assert loaded.oracle == manifest.oracle


def test_reduce_reports_friendliness(quick_result):
    for row in quick_result.rows:
        assert 0.0 < row.rival_share < 1.0
        assert row.friendliness > 0.0
        assert row.rr_retained > 0.0


def test_format_report(quick_result):
    report = rivals.format_report(quick_result)
    assert "share" in report
    assert "relentless-model" in report
    assert "within tolerance" in report


def test_export_rows(tmp_path, quick_result):
    paths = export_result("rivals", quick_result, tmp_path)
    assert sorted(p.name for p in paths) == ["rivals.csv", "rivals.json"]
    text = (tmp_path / "rivals.csv").read_text()
    assert "oracle_passed" in text
    assert "relentless" in text
