"""The measurement arithmetic and the shape of ``BENCHMARK.json``."""

import json
import math
import os
import re

import harness
import layers
import run
from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_speed_correction_is_identity_at_reference_speed():
    assert harness.at_ref_speed(3.21, harness.REF_KERNEL_S) == 3.21
    # A box running the kernel twice as slowly halves every raw second.
    assert harness.at_ref_speed(3.0, 2 * harness.REF_KERNEL_S) == 1.5


def test_reference_kernel_is_deterministic_work():
    assert harness.ref_kernel() > 0.0


def test_tail_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 20_001)]
    assert harness.tail(values) == (99.9, 19_980.0)
    assert harness.tail(values[:9_999])[0] == 99.0
    assert harness.tail(values[:999])[0] == 95.0
    assert harness.tail(values[:150])[0] == 90.0
    assert harness.tail(values[:12]) == (90.0, 11.0)


def test_nearest_rank_returns_a_sample():
    values = [1.0, 2.0, 3.0, 4.0]
    assert harness.nearest_rank(values, 50.0) == 2.0
    assert harness.nearest_rank(values, 100.0) == 4.0
    assert harness.nearest_rank(values, 0.0) == 1.0


def test_summarize_reports_median_quartiles_min_and_n():
    row = harness.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert row == {"value": 3.0, "q1": 2.0, "q3": 4.0, "min": 1.0, "n": 5}
    assert harness.summarize([7.0])["q1"] == 7.0


def test_latency_md5_sees_the_last_digit():
    assert harness.latency_md5([0.1]) != harness.latency_md5([math.nextafter(0.1, 1.0)])


def test_benchmark_json_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        raw = json.load(handle)
    assert list(raw) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    ]
    assert raw["paths"] == ["bench"]
    assert raw["command"] == ["python3", "bench/run.py"]
    assert isinstance(raw["run_seconds"], int) and 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16
    assert 1 <= len(raw["per_layer"]) <= 128
    names = []
    for row in raw["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
        names.append(row["name"])
    for row in raw["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 <= row["bound"] <= 0.25
        names.append(row["name"])
    for row in raw["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
        names.append(row["name"])
    for row in raw["end_to_end"] + raw["per_layer"]:
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(r for r in raw["end_to_end"] if r["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in raw["end_to_end"])
    # 4 + 22 x workloads runs must fit in 3420 s with their set-up.
    runs = 4 + 22 * len(raw["workloads"])
    assert runs * (raw["run_seconds"] + 6) < 3420


def test_every_layer_has_its_three_metrics():
    spec = run.load_spec()
    for layer in layers.LAYERS:
        for suffix in ("self_s", "share", "calls_per_req"):
            assert f"{layer}.{suffix}" in spec["per_layer"]
