"""The manyflow harness: sweep and oracle wiring (serial == parallel:
tests/experiments/test_warmstart_grids.py)."""

import pytest

from repro._record import replace
from repro.experiments import manyflow
from repro.experiments.export_results import export_result
from repro.obs.manifest import RunManifest

QUICK = manyflow.ManyflowConfig(
    flow_counts=(12,), max_ps=(0.02,), duration=6.0, seed=5
)


@pytest.fixture(scope="module")
def quick_result():
    return manyflow.run_manyflow(replace(QUICK))


def test_quick_sweep_passes_oracle(quick_result):
    assert len(quick_result.cells) == 1
    cell = quick_result.cells[0]
    assert cell.verdict is not None
    assert cell.verdict.passed, cell.verdict.format()
    assert cell.events > 0
    assert 0.0 <= cell.measured_loss < 1.0


def test_cell_spec_scales_bandwidth_with_flows():
    small = manyflow.cell_spec(10, 0.02, replace(QUICK))
    large = manyflow.cell_spec(100, 0.02, replace(QUICK))
    assert (
        large.topology.bottleneck_bandwidth_bps
        == 10 * small.topology.bottleneck_bandwidth_bps
    )
    assert small.digest() != large.digest()


def test_manifest_records_oracle_verdicts():
    manifest = RunManifest.begin("manyflow", fingerprint="test")
    result = manyflow.run_manyflow(replace(QUICK), manifest=manifest)
    assert manifest.oracle is not None and len(manifest.oracle) == 1
    entry = manifest.oracle[0]
    assert entry["passed"] == result.cells[0].verdict.passed
    assert entry["label"] == result.cells[0].label
    assert entry["regime"] == result.cells[0].verdict.regime
    # The verdict survives the manifest's JSON round trip.
    loaded = RunManifest.from_json(manifest.to_json())
    assert loaded.oracle == manifest.oracle


def test_multibottleneck_family_skips_oracle():
    config = manyflow.ManyflowConfig(
        family="parkinglot", flow_counts=(8,), max_ps=(0.02,), duration=4.0
    )
    result = manyflow.run_manyflow(config)
    assert result.cells[0].verdict is None
    report = manyflow.format_report(result)
    assert "no oracle" in report


def test_format_report_mentions_verdict(quick_result):
    report = manyflow.format_report(quick_result)
    assert "PASS" in report
    assert "within tolerance" in report


def test_export_rows(tmp_path, quick_result):
    paths = export_result("manyflow", quick_result, tmp_path)
    assert sorted(p.name for p in paths) == ["manyflow.csv", "manyflow.json"]
    text = (tmp_path / "manyflow.csv").read_text()
    assert "oracle_passed" in text
