"""``compare.py``: verdicts on two result documents."""

import compare
import run

SPEC = run.load_spec()


def timing(value, q1, q3):
    return {"value": value, "q1": q1, "q3": q3, "min": q1, "n": 5, "unit": "s"}


def test_timing_verdicts_use_the_bound():
    base = timing(2.0, 1.98, 2.02)
    assert compare.verdict(base, timing(2.1, 2.08, 2.12), "lower", 0.10, False) == "same"
    assert compare.verdict(base, timing(2.3, 2.28, 2.32), "lower", 0.10, False) == "worse"
    assert compare.verdict(base, timing(1.7, 1.68, 1.72), "lower", 0.10, False) == "better"
    # "higher is better" flips the direction.
    assert compare.verdict(base, timing(2.3, 2.28, 2.32), "higher", 0.10, False) == "better"


def test_wide_quartiles_are_unresolved_not_same():
    base = timing(2.0, 1.98, 2.02)
    noisy = timing(2.0, 1.7, 2.3)
    assert compare.verdict(base, noisy, "lower", 0.10, False) == "unresolved"
    assert compare.verdict(noisy, base, "lower", 0.10, False) == "unresolved"


def test_exact_metrics_compare_by_equality():
    a = {"value": 30.119847775175643, "n": 17080}
    assert compare.verdict(a, dict(a), "lower", 0.05, True) == "same"
    more = {"value": 30.12, "n": 17080}
    assert compare.verdict(a, more, "lower", 0.05, True) == "worse"
    assert compare.verdict(more, a, "lower", 0.05, True) == "better"


def _document(wall, md5="abc", seed=42):
    metrics = {
        name: {"value": 1.0, "n": 1, "unit": row["unit"]}
        for name, row in SPEC["end_to_end"].items()
    }
    metrics["wall_s"] = timing(wall, wall * 0.99, wall * 1.01)
    return {
        "commit": None,
        "trace": 0,
        "workloads": {
            "c3_replay": {
                "seed": seed, "metrics": metrics, "fingerprints": {"latency_md5": md5},
            }
        },
    }


def test_compare_counts_bad_rows_and_fingerprints():
    lines, bad = compare.compare(_document(2.0), _document(2.0), SPEC)
    assert bad == 0 and len(lines) == 1 + len(SPEC["end_to_end"])
    _lines, bad = compare.compare(_document(2.0), _document(3.0), SPEC)
    assert bad == 1
    lines, bad = compare.compare(_document(2.0), _document(2.0, md5="xyz"), SPEC)
    assert bad == 1 and "fingerprint" in lines[-1]
    # Different seeds: fingerprints and exact values are not comparable.
    _lines, bad = compare.compare(_document(2.0), _document(2.0, "xyz", seed=7), SPEC)
    assert bad == 0
