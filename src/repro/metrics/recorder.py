"""Sample recorders used across the simulation.

Every component that wants to report a measurement pushes
``(name, value)`` samples into a shared :class:`MetricsRecorder`; the
experiment harness reads them back as summaries or raw arrays.
"""

from __future__ import annotations

import collections

from repro.metrics.stats import Summary, summarize


class TimeSeries:
    """Event timestamps recorded in simulation order."""

    def __init__(self) -> None:
        self._times: list[float] = []

    def append(self, time: float) -> None:
        self._times.append(time)

    @property
    def times(self) -> list[float]:
        return list(self._times)

    def __len__(self) -> int:
        return len(self._times)


class MetricsRecorder:
    """Collects named scalar samples and named time series."""

    def __init__(self) -> None:
        self._samples: dict[str, list[float]] = collections.defaultdict(list)
        self._series: dict[str, TimeSeries] = collections.defaultdict(TimeSeries)
        self._counters: collections.Counter[str] = collections.Counter()

    # -- scalar samples ---------------------------------------------------

    def record(self, name: str, value: float) -> None:
        """Append a scalar sample under ``name``."""
        self._samples[name].append(float(value))

    def samples(self, name: str) -> list[float]:
        """All samples recorded under ``name`` (empty if none)."""
        return list(self._samples.get(name, ()))

    def summary(self, name: str) -> Summary:
        """Summary statistics for ``name``; raises if no samples exist."""
        values = self._samples.get(name)
        if not values:
            raise KeyError(f"no samples recorded under {name!r}")
        return summarize(values)

    def names(self) -> list[str]:
        return sorted(self._samples)

    # -- time series --------------------------------------------------------

    def mark(self, name: str, time: float) -> None:
        """Append an event to the time series ``name``."""
        self._series[name].append(time)

    def series(self, name: str) -> TimeSeries:
        return self._series[name]

    # -- counters ------------------------------------------------------------

    def count(self, name: str) -> None:
        """Increment the named event counter (breaker transitions,
        retries, ... — things where only the tally matters)."""
        self._counters[name] += 1

    def counter(self, name: str) -> int:
        """Current value of the named counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, int]:
        """All counters whose name starts with ``prefix``."""
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }
