"""Exporters: the list-of-dicts table writers behind the experiment
CLI's ``--out`` (:func:`rows_to_csv`, :func:`rows_to_json`)."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence, Union

PathLike = Union[str, Path]


def rows_to_csv(rows: Sequence[Mapping[str, object]], path: PathLike) -> Path:
    """Write a list of homogeneous dicts as CSV (keys of the first row
    define the columns)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    fields = list(rows[0].keys())
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(dict(row))
    return path


def rows_to_json(rows: Sequence[Mapping[str, object]], path: PathLike) -> Path:
    """Write rows as a JSON array (pretty-printed, stable ordering)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([dict(r) for r in rows], indent=2, sort_keys=True))
    return path

