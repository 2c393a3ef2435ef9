"""Machine-readable exports for the experiment results.

Each experiment's result object converts to a flat list of dicts and
lands as CSV + JSON in a directory — for replotting the figures with
real plotting stacks, or for regression-diffing runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Union

from repro._record import asdict
from repro.metrics.export import rows_to_csv, rows_to_json

PathLike = Union[str, Path]


def _strip(row: Mapping[str, object]) -> Dict[str, object]:
    """Drop non-scalar fields (traces, nested objects) from a row."""
    return {
        key: value
        for key, value in row.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    }


def figure5_rows(result) -> List[Dict[str, object]]:
    return [_strip(asdict(row)) for row in result.rows]


def figure6_rows(result) -> List[Dict[str, object]]:
    rows = []
    for variant, flow in result.flows.items():
        rows.append(
            _strip(
                {
                    "variant": variant,
                    "final_ack": flow.final_ack,
                    "throughput_bps": flow.throughput_bps,
                    "timeouts": flow.timeouts,
                    "retransmits": flow.retransmits,
                    "longest_stall": flow.longest_stall,
                }
            )
        )
    return rows


def figure7_rows(result) -> List[Dict[str, object]]:
    return [_strip(asdict(point)) for point in result.points]


def table5_rows(result) -> List[Dict[str, object]]:
    return [_strip(asdict(row)) for row in result.rows]


def burstchannel_rows(result) -> List[Dict[str, object]]:
    return [_strip(asdict(row)) for row in result.rows]


def manyflow_rows(result) -> List[Dict[str, object]]:
    rows = []
    for cell in result.cells:
        row = _strip(asdict(cell))
        if cell.verdict is not None:
            row.update(
                oracle_passed=cell.verdict.passed,
                predicted_queue=cell.verdict.predicted_queue,
                predicted_loss=cell.verdict.predicted_loss,
                regime=cell.verdict.regime,
            )
        rows.append(row)
    return rows


_CONVERTERS = {
    "fig5": figure5_rows,
    "fig6": figure6_rows,
    "fig7": figure7_rows,
    "table5": table5_rows,
    "burst": burstchannel_rows,
    "manyflow": manyflow_rows,
}


def export_result(experiment_id: str, result, directory: PathLike) -> List[Path]:
    """Write ``<id>.csv`` and ``<id>.json`` for a finished experiment.

    ``experiment_id`` is a key of ``_CONVERTERS``.  Returns the written
    paths.
    """
    converter = _CONVERTERS.get(experiment_id)
    if converter is None:
        raise KeyError(
            f"no exporter for {experiment_id!r}; choose from {sorted(_CONVERTERS)}"
        )
    rows = converter(result)
    directory = Path(directory)
    return [
        rows_to_csv(rows, directory / f"{experiment_id}.csv"),
        rows_to_json(rows, directory / f"{experiment_id}.json"),
    ]
