"""Tests for table rendering."""

from repro.analysis.tables import format_table


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert len(lines) == 4
        header, sep, r1, r2 = lines
        assert "a" in header and "bbb" in header
        assert set(sep) <= {"-", "+"}
        # Columns align: separators at same positions.
        assert header.index("|") == r1.index("|") == r2.index("|")

    def test_float_formatting(self):
        text = format_table(["x"], [[0.123456]], float_format="{:.2f}")
        assert "0.12" in text
        assert "0.1234" not in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = format_table(["col1", "col2"], [])
        assert "col1" in text

    def test_non_numeric_cells(self):
        text = format_table(["name", "val"], [["BSP", "-"]])
        assert "BSP" in text and "-" in text
