"""Tests for the ASCII chart helpers."""

import pytest

from repro.common.ascii_plot import bar_chart, line_chart
from repro.common.errors import ConfigError


class TestAsciiPlots:
    def test_bar_chart_renders_all_labels(self):
        chart = bar_chart([("CPU", 32.2), ("GPU", 76.4), ("ASIC", 0.46)])
        assert "CPU" in chart and "GPU" in chart and "ASIC" in chart
        assert chart.count("\n") == 2

    def test_bar_lengths_ordered(self):
        chart = bar_chart([("a", 1.0), ("b", 2.0)])
        rows = chart.splitlines()
        assert rows[1].count("#") > rows[0].count("#")

    def test_log_scale_positive_only(self):
        with pytest.raises(ConfigError):
            bar_chart([("a", 0.0)], log_scale=True)

    def test_log_scale_compresses(self):
        chart = bar_chart(
            [("small", 0.001), ("huge", 1000.0)], log_scale=True, width=30
        )
        rows = chart.splitlines()
        assert rows[0].count("#") >= 1  # small still visible

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            bar_chart([])

    def test_line_chart_contains_markers_and_legend(self):
        chart = line_chart(
            [1, 2, 4, 8],
            [("state", [40.0, 30.0, 25.0, 20.0]),
             ("arc", [50.0, 45.0, 42.0, 40.0])],
        )
        assert "*" in chart and "o" in chart
        assert "state" in chart and "arc" in chart

    def test_line_chart_requires_data(self):
        with pytest.raises(ConfigError):
            line_chart([], [])
