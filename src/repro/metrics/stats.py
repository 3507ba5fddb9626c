"""Summary statistics over latency samples.

The paper reports medians (figs. 11–16); we additionally expose the
usual percentiles so the harness can print richer rows.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t


def _quantile(ordered: _t.Sequence[float], q: float) -> float:
    """numpy's default (``linear``) percentile ``q`` of an ascending
    sequence, float for float."""
    index = (len(ordered) - 1) * (q / 100)
    lo = math.floor(index)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    t = index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def median(samples: _t.Sequence[float]) -> float:
    """Median of ``samples``; raises on empty input."""
    if not samples:
        raise ValueError("median of empty sample set")
    return _quantile(sorted(map(float, samples)), 50)


def percentile(samples: _t.Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) using linear interpolation."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    return _quantile(sorted(map(float, samples)), q)


@dataclasses.dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a latency distribution (seconds)."""

    count: int
    mean: float
    median: float
    p25: float
    p75: float
    p95: float
    minimum: float
    maximum: float
    stddev: float

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        return (
            f"n={self.count} median={self.median * 1e3:.1f}ms "
            f"mean={self.mean * 1e3:.1f}ms "
            f"p95={self.p95 * 1e3:.1f}ms "
            f"range=[{self.minimum * 1e3:.1f}, {self.maximum * 1e3:.1f}]ms"
        )


def summarize(samples: _t.Sequence[float]) -> Summary:
    """Compute a :class:`Summary` over ``samples``."""
    if not samples:
        raise ValueError("summarize of empty sample set")
    ordered = sorted(map(float, samples))
    n = len(ordered)
    mean = math.fsum(ordered) / n
    return Summary(
        count=n,
        mean=mean,
        median=_quantile(ordered, 50),
        p25=_quantile(ordered, 25),
        p75=_quantile(ordered, 75),
        p95=_quantile(ordered, 95),
        minimum=ordered[0],
        maximum=ordered[-1],
        stddev=math.sqrt(math.fsum((x - mean) ** 2 for x in ordered) / (n - 1)) if n > 1 else 0.0,
    )
