"""Measurement utilities: sample recorders, summary statistics, and
text rendering for the benchmark harness tables/figures."""

from repro.metrics.stats import Summary, median, percentile, summarize
from repro.metrics.recorder import MetricsRecorder, TimeSeries
from repro.metrics.render import render_histogram, render_table

__all__ = [
    "MetricsRecorder",
    "Summary",
    "TimeSeries",
    "median",
    "percentile",
    "render_histogram",
    "render_table",
    "summarize",
]
