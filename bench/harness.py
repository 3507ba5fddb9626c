"""How a run is measured: repeats, the reference kernel, the traced pass.

One *run* of a workload is a sequence of *repeats* in one process.  A
repeat builds a fresh testbed (``setup_s``), collects garbage, times a
fixed pure-Python *reference kernel*, times the workload, and times the
kernel again.  The box this runs on is shared: the same code swings by
15 % from minute to minute, and the kernel swings with it.  Every
host-time metric is therefore reported in **seconds at reference
speed** — raw seconds x ``REF_KERNEL_S`` / (mean of the two kernel
timings around it) — and the run reports the median over its repeats
with the quartiles beside it.

All load is generated in *simulated* time, so an open-loop generator is
never late by construction: a request due at simulated ``t`` is issued
at exactly ``t`` no matter how slow the host is.  There is no lag
figure to report.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import math
import os
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
import typing as _t
from heapq import heappop, heappush

import layers

#: Seconds the reference kernel takes on the reference box (2 shared
#: cores, CPython 3.11).  A constant: it only fixes the unit "second at
#: reference speed", so that numbers from different days compare.
REF_KERNEL_S = 0.25
_KERNEL_STEPS = 190_000

#: Units of metrics that are host time or ratios of host time; every
#: other metric is a simulated quantity or a count and repeats bit for
#: bit (same seed, same commit).
HOST_UNITS = frozenset({"s", "ms", "us", "x", "share", "1/s", "MiB"})

#: Percentiles tried for the tail, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0)
#: A percentile is reported only with this many samples beyond it.
_TAIL_MIN_BEYOND = 10


def ref_kernel() -> float:
    """Time the reference kernel: heap push/pop plus dict updates.

    The same mix of bytecode, small-int arithmetic, heap and dict work
    the simulator's event loop is made of, on fixed inputs.  The
    collector is off while it runs: the kernel allocates tuples, and a
    full collection triggered by them would cost in proportion to the
    live objects of whatever testbed happens to exist — the kernel
    must time the box, not the heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list[tuple[int, int]] = []
        table: dict[int, int] = {}
        x = 12345
        for i in range(_KERNEL_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heappush(heap, (x, i))
            slot = x & 1023
            table[slot] = table.get(slot, 0) + 1
            if i & 1:
                heappop(heap)
        while heap:
            heappop(heap)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def at_ref_speed(raw_s: float, kernel_s: float) -> float:
    """Convert raw seconds to seconds at reference speed."""
    return raw_s * REF_KERNEL_S / kernel_s


def nearest_rank(sorted_values: _t.Sequence[float], q: float) -> float:
    """The ``q``-th percentile as an actual sample (nearest rank)."""
    # round(): 99.9 * 20000 / 100 is 19980.000000000004 in floats.
    rank = max(1, math.ceil(round(q * len(sorted_values) / 100.0, 9)))
    return sorted_values[rank - 1]


def tail(sorted_values: _t.Sequence[float]) -> tuple[float, float]:
    """(percentile used, value): the highest of p99.9/p99/p95/p90 that
    still has at least ten samples beyond it (p90 if none has)."""
    n = len(sorted_values)
    for q in _TAILS:
        if n * (1.0 - q / 100.0) >= _TAIL_MIN_BEYOND:
            return q, nearest_rank(sorted_values, q)
    return _TAILS[-1], nearest_rank(sorted_values, _TAILS[-1])


def latency_md5(latencies: _t.Iterable[float]) -> str:
    """Fingerprint of a ``time_total`` sequence at 17 digits."""
    digest = hashlib.md5()
    for value in latencies:
        digest.update(f"{value:.17g}\n".encode("ascii"))
    return digest.hexdigest()


def summarize(values: _t.Sequence[float]) -> dict[str, float]:
    """Median, quartiles, min and n of one metric over the repeats.

    The repeats are the whole population of this run, hence the
    inclusive method: with five repeats the quartiles are the second
    and the fourth value, not a point next to the extremes.
    """
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
    }


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Outcome:
    """What one timed call of a workload produced (see ``workloads``)."""

    #: Client ``time_total`` of every completed request, in a
    #: deterministic order (simulated seconds).
    latencies: list[float]
    attempted: int
    failed: int
    #: Kernel events processed inside the timed call.
    events: int
    #: Per-layer metrics that need no profile: name -> value.  Exact
    #: (they repeat bit for bit) unless listed in ``host_s``.
    counters: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Host timings taken around public calls: name -> raw seconds
    #: (reported at reference speed, in the metric's declared unit).
    host_s: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Ratios of such timings: name -> value (nothing to convert).
    host_ratios: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Denominators for the profile-derived ratios (``switch_rx``
    #: packets, ``k8s_deploys``).
    denominators: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Output checks that failed (empty: outputs are correct).
    problems: list[str] = dataclasses.field(default_factory=list)
    #: Free-form facts printed beside the metrics (model vs paper).
    notes: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Repeat:
    """One repeat: raw clocks, the kernel around them, the outcome."""

    setup_raw_s: float
    wall_raw_s: float
    #: What the speed correction divides by: the mean of the two kernel
    #: timings, or ``REF_KERNEL_S`` (no correction) for a forked run.
    kernel_s: float
    #: The mean of the two kernel timings, whether used or not.
    measured_kernel_s: float
    outcome: Outcome
    profile: dict | None = None

    @property
    def setup_s(self) -> float:
        return at_ref_speed(self.setup_raw_s, self.kernel_s)

    @property
    def wall_s(self) -> float:
        return at_ref_speed(self.wall_raw_s, self.kernel_s)


def one_repeat(workload: _t.Any, seed: int, sizes: dict, traced: bool) -> Repeat:
    """Build, settle, kernel, timed call, kernel."""
    # The previous repeat's testbed is cyclic garbage by now; collect it
    # here so that its disposal is not billed to this repeat's set-up.
    gc.collect()
    started = time.perf_counter()
    prepared = workload.prepare(seed, sizes)
    setup_raw = time.perf_counter() - started
    gc.collect()

    profile_dir = None
    profiler = cProfile.Profile() if traced else None
    if traced and workload.forks:
        work = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
        os.makedirs(work, exist_ok=True)
        profile_dir = tempfile.mkdtemp(dir=work)
    try:
        kernel_before = ref_kernel()
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        raw = prepared.run(profile_dir)
        if profiler is not None:
            profiler.disable()
        wall_raw = time.perf_counter() - started
        kernel_after = ref_kernel()

        profile = None
        if profiler is not None:
            stats = pstats.Stats(profiler)
            if profile_dir is not None:
                for name in sorted(os.listdir(profile_dir)):
                    stats.add(os.path.join(profile_dir, name))
            profile = stats.stats  # type: ignore[attr-defined]
    finally:
        if profile_dir is not None:
            shutil.rmtree(profile_dir, ignore_errors=True)
    outcome = prepared.finish(raw)
    measured = (kernel_before + kernel_after) / 2.0
    return Repeat(
        setup_raw_s=setup_raw,
        wall_raw_s=wall_raw,
        # A forked run waits on pipes and the scheduler for most of its
        # wall time; its speed does not follow the single-threaded
        # kernel (measured: no correlation), so it is reported raw.
        kernel_s=REF_KERNEL_S if workload.forks else measured,
        measured_kernel_s=measured,
        outcome=outcome,
        profile=profile,
    )


def _exact_signature(outcome: Outcome) -> dict[str, _t.Any]:
    """Everything that must repeat bit for bit between repeats."""
    return {
        "latency_md5": latency_md5(outcome.latencies),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "events": outcome.events,
        "counters": outcome.counters,
        "denominators": outcome.denominators,
    }


def _end_to_end(repeats: list[Repeat]) -> dict[str, dict]:
    first = repeats[0].outcome
    ordered = sorted(first.latencies)
    used, tail_s = tail(ordered)
    metrics = {
        "setup_s": summarize([r.setup_s for r in repeats]),
        "wall_s": summarize([r.wall_s for r in repeats]),
        "requests_per_s": summarize(
            [r.outcome.attempted / r.wall_s for r in repeats]
        ),
        "peak_rss_mib": {"value": peak_rss_mib(), "n": 1},
        "availability": {
            "value": (first.attempted - first.failed) / first.attempted,
            "n": first.attempted,
        },
        "sim_latency_p50_s": {
            "value": nearest_rank(ordered, 50.0),
            "n": len(ordered),
        },
        "sim_latency_tail_s": {
            "value": tail_s,
            "n": len(ordered),
            "percentile": used,
        },
        "sim_events_per_req": {
            "value": first.events / first.attempted,
            "n": first.attempted,
        },
    }
    metrics["setup_s"]["raw"] = statistics.median(r.setup_raw_s for r in repeats)
    metrics["wall_s"]["raw"] = statistics.median(r.wall_raw_s for r in repeats)
    return metrics


def _per_layer(
    plain: Repeat,
    traced: Repeat,
    owner: _t.Callable,
    forks: bool,
    declared: _t.Mapping[str, dict],
) -> dict[str, float]:
    """Every per-layer metric from one untraced and one traced repeat."""
    out = plain.outcome
    attempted = out.attempted
    values: dict[str, float] = {**out.counters, **out.host_ratios}
    for name, raw in out.host_s.items():
        scale = 1e3 if declared[name]["unit"] == "ms" else 1.0
        values[name] = at_ref_speed(raw, plain.kernel_s) * scale
    values["sim.events"] = out.events
    values["sim.us_per_event"] = plain.wall_s / out.events * 1e6
    values["host.ref_kernel_s"] = plain.measured_kernel_s
    values["host.raw_wall_s"] = plain.wall_raw_s
    values["host.raw_setup_s"] = plain.setup_raw_s

    assert traced.profile is not None
    profile = traced.profile
    self_s, calls = layers.fold(
        profile, owner, orphans="sim.parallel" if forks else "python"
    )
    profiled_s = sum(self_s.values())
    # The profiler's own bookkeeping between its timer reads (1-3 % of
    # the traced wall) belongs to no function; spread it in proportion,
    # so that the layers sum to the traced wall.  A forked run has one
    # profile per process and no single wall to sum to.
    stretch = 1.0 if forks else traced.wall_raw_s / profiled_s
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = at_ref_speed(
            self_s[layer] * stretch, traced.kernel_s
        )
        values[f"{layer}.share"] = self_s[layer] / profiled_s
        values[f"{layer}.calls_per_req"] = float(calls[layer] / attempted)
    values["trace.overhead_x"] = traced.wall_s / plain.wall_s

    def per(name: str, file: str, functions: set[str], denominator: int) -> None:
        count = layers.calls_of(profile, file, functions)
        values[name] = count / denominator if denominator else 0.0

    table = "net/openflow/table.py"
    per(
        "net.openflow.slow_lookup_ratio",
        table,
        {"lookup"},
        out.denominators.get("switch_rx", 0),
    )
    per(
        "net.openflow.table_writes_per_req",
        table,
        {"install", "remove", "remove_matching", "clear"},
        attempted,
    )
    per(
        "k8s.selector_matches_per_deploy",
        "k8s/objects.py",
        {"matches_selector"},
        out.denominators.get("k8s_deploys", 0),
    )
    per(
        "core.state.replica_writes_per_req",
        "core/federation/state.py",
        {"submit"},
        attempted,
    )
    return values


def profiled_calls(profile: _t.Mapping) -> int:
    """Total calls the profiler saw — a fingerprint, not a metric."""
    return sum(row[1] for row in profile.values())


def _differences(found: Outcome, reference: dict, label: str, keys=None) -> list[str]:
    """Where ``found`` departs from what must repeat bit for bit."""
    signature = _exact_signature(found)
    return [
        f"{label} differs from repeat 1 in {key}: "
        f"{signature[key]!r} != {reference[key]!r}"
        for key in (keys or signature)
        if signature[key] != reference[key]
    ]


def measure(
    workload: _t.Any,
    seed: int,
    seconds: float,
    traced: bool,
    sizes: dict,
    spec: dict,
    repro_dir: str,
) -> dict[str, _t.Any]:
    """Run one workload and return its result document.

    Untraced: repeats until ``seconds`` of measuring are used up (at
    least three), end-to-end metrics.  Traced: one untraced and one
    profiled repeat, per-layer metrics.
    """
    repeats: list[Repeat] = []
    begun = time.perf_counter()
    if traced:
        repeats.append(one_repeat(workload, seed, sizes, traced=False))
        repeats.append(one_repeat(workload, seed, sizes, traced=True))
    else:
        # End to end, a forked workload is timed on its steady twin.
        timed = workload.steady or workload
        while True:
            repeats.append(one_repeat(timed, seed, sizes, traced=False))
            used = time.perf_counter() - begun
            # Stop when the next repeat would overshoot by more than
            # half of itself; never report a median of fewer than 3.
            if len(repeats) >= 3 and used + 0.5 * used / len(repeats) > seconds:
                break

    first = repeats[0].outcome
    reference = _exact_signature(first)
    problems = [problem for repeat in repeats for problem in repeat.outcome.problems]
    for index, repeat in enumerate(repeats[1:], start=2):
        problems += _differences(repeat.outcome, reference, f"repeat {index}")

    fingerprints = {"latency_md5": reference["latency_md5"]}
    if traced:
        wanted = spec["per_layer"]
        values = _per_layer(
            repeats[0],
            repeats[1],
            layers.make_owner(repro_dir),
            workload.forks,
            wanted,
        )
        if workload.steady is not None:
            # The same plan on the program's single-process executor.
            serial = one_repeat(workload.steady, seed, sizes, traced=False)
            values["sim.parallel.serial_wall_s"] = serial.wall_s
            values["sim.parallel.speedup_vs_serial"] = (
                serial.wall_raw_s / repeats[0].wall_raw_s
            )
            problems += serial.outcome.problems + _differences(
                serial.outcome,
                reference,
                "serial reference",
                ("latency_md5", "attempted", "failed", "events"),
            )
        assert repeats[1].profile is not None
        fingerprints["profiled_calls"] = profiled_calls(repeats[1].profile)
        metrics = {name: {"value": values.get(name, 0.0), "n": 1} for name in wanted}
    else:
        wanted = spec["end_to_end"]
        metrics = _end_to_end(repeats)
    if set(metrics) != set(wanted) or (traced and set(values) - set(wanted)):
        problems.append("metrics differ from those BENCHMARK.json declares")
    for name, row in metrics.items():
        row["unit"] = wanted[name]["unit"]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "repeats": len(repeats),
        "sizes": sizes,
        "loop": workload.loop,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r.outcome.attempted for r in repeats),
        "failed": sum(r.outcome.failed for r in repeats),
        "metrics": metrics,
        "fingerprints": fingerprints,
        "notes": first.notes,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "ref_kernel_s": REF_KERNEL_S,
    }
