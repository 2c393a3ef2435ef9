"""Tests for the CSV/JSON row writers."""

import csv
import json

from repro.metrics.export import rows_to_csv, rows_to_json


class TestRowWriters:
    ROWS = [{"scheme": "rr", "kbps": 706.2}, {"scheme": "sack", "kbps": 691.6}]

    def test_csv_roundtrip(self, tmp_path):
        path = rows_to_csv(self.ROWS, tmp_path / "out.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["scheme"] == "rr"
        assert float(rows[1]["kbps"]) == 691.6

    def test_empty_rows(self, tmp_path):
        path = rows_to_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ""

    def test_json_roundtrip(self, tmp_path):
        path = rows_to_json(self.ROWS, tmp_path / "out.json")
        data = json.loads(path.read_text())
        assert data[0]["scheme"] == "rr"
        assert len(data) == 2
