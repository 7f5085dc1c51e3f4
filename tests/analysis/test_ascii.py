"""Tests for ASCII chart rendering."""

from repro.analysis.ascii import fig1_chart, line_chart


class TestLineChart:
    def test_marks_land_at_extremes(self):
        text = line_chart(
            {"a": [(0, 0.0), (10, 1.0)]}, width=21, height=5, title="t"
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        # Top row contains the max point, bottom row the min point.
        assert "o" in lines[1]
        assert "o" in lines[5]

    def test_legend_lists_series(self):
        text = line_chart({"alpha": [(0, 1)], "beta": [(1, 2)]})
        assert "o=alpha" in text
        assert "x=beta" in text

    def test_axis_annotations(self):
        text = line_chart({"s": [(2, 5), (8, 9)]}, x_label="workers")
        assert "2" in text and "8" in text
        assert "workers" in text
        assert "9" in text and "5" in text

    def test_empty_series(self):
        assert "(no data)" in line_chart({}, title="empty")

    def test_flat_series_no_crash(self):
        text = line_chart({"flat": [(0, 1.0), (5, 1.0)]})
        assert "o" in text

    def test_collisions_keep_first_mark(self):
        text = line_chart({"a": [(0, 0)], "b": [(0, 0)]}, width=10, height=4)
        grid_rows = [
            ln.split("|", 1)[1] for ln in text.splitlines() if "|" in ln
        ]
        marks = "".join(grid_rows).replace(" ", "")
        assert marks == "o"  # second series' colliding mark is dropped


class TestFig1Chart:
    def test_renders_both_panels(self):
        from repro.core.history import TrainingHistory
        from repro.experiments.artefact import Table, artefact

        table = Table(artefact("fig1"), {"algorithms": ("bsp", "asp")}, (0,))
        epochs = [0, 1, 2]
        table.results = {
            ("bsp",): [TrainingHistory(epochs=epochs, times=[0, 5, 10], test_accuracy=[0.2, 0.5, 0.7])],
            ("asp",): [TrainingHistory(epochs=epochs, times=[0, 4, 8], test_accuracy=[0.2, 0.4, 0.6])],
        }
        text = fig1_chart(table)
        assert "Fig 1(a)" in text and "Fig 1(b)" in text
        assert "BSP" in text and "ASP" in text
