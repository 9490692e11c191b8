"""The benchmark recorder's summary of canned run outputs."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(HERE, "..", "scripts", "bench_record.py")
)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def canned_output(seed: int, ops: float, failed: int = 0) -> str:
    report = {"workload": "w", "seed": seed, "digests": {"events.csv": f"d{seed}"}}
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "peak_rss_mb": {"value": 50.0, "unit": "MB"},
        },
    }
    return "warming up\n" + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def test_summary_takes_quartiles_over_seeds_and_sums_counts():
    runs = {seed: canned_output(seed, ops, failed=int(seed == 3))
            for seed, ops in ((5, 50.0), (1, 10.0), (3, 30.0), (4, 40.0), (2, 20.0))}
    entry = bench_record.summarise(runs)
    assert entry["seeds"] == [1, 2, 3, 4, 5]
    assert entry["attempted"] == 500 and entry["failed"] == 1
    assert entry["digests"]["3"] == {"events.csv": "d3"}
    ops = entry["metrics"]["ops_per_s"]
    assert ops["values"] == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert (ops["q1"], ops["median"], ops["q3"], ops["iqr"]) == (20.0, 30.0, 40.0, 20.0)
    assert ops["unit"] == "1/s"
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["median"] == 50.0 and rss["iqr"] == 0.0


def test_summary_of_one_seed_has_no_spread():
    ops = bench_record.summarise({7: canned_output(7, 12.5)})["metrics"]["ops_per_s"]
    assert (ops["q1"], ops["median"], ops["q3"], ops["iqr"]) == (12.5, 12.5, 12.5, 0.0)


def test_output_without_result_lines_is_refused():
    with pytest.raises(ValueError):
        bench_record.parse_run('{"only": "one line"}\n')


def side_entry(values: dict[int, tuple[float, float]], digests: dict[int, str] | None = None) -> dict:
    """``summarise`` of canned runs: per seed (ops_per_s, op_p50_ms), with
    the default digest unless ``digests`` names another."""
    runs = {}
    for seed, (ops, p50) in values.items():
        report = {"digests": {"events.csv": (digests or {}).get(seed, f"d{seed}")}}
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
        }}
        runs[seed] = json.dumps(report) + "\n" + json.dumps(result) + "\n"
    return bench_record.summarise(runs)


def test_comparison_counts_wins_by_each_metrics_direction():
    parent = side_entry({1: (100.0, 2.0), 2: (110.0, 2.0), 3: (120.0, 1.0), 4: (130.0, 3.0)})
    change = side_entry({1: (150.0, 1.0), 2: (110.0, 2.5), 3: (90.0, 0.5), 4: (160.0, 3.0)},
                        digests={3: "other"})
    spec = {"ops_per_s": ("higher", 0.25), "op_p50_ms": ("lower", 0.25),
            "peak_rss_mb": ("lower", 0.1)}
    cmp = bench_record.compare(parent, change, spec)
    ops, p50 = cmp["metrics"]["ops_per_s"], cmp["metrics"]["op_p50_ms"]
    # seed 2 ties on ops_per_s and seed 4 on op_p50_ms: neither side wins those
    assert (ops["last_wins"], ops["first_wins"], ops["pairs"]) == (2, 1, 4)
    assert (p50["last_wins"], p50["first_wins"], p50["pairs"]) == (2, 1, 4)
    assert (ops["first_median"], ops["last_median"], ops["first_iqr"]) == (115.0, 130.0, 15.0)
    assert "peak_rss_mb" not in cmp["metrics"]
    assert cmp["digests_differ"] == [3]
    lines = bench_record.render_comparison("w", "parent", "change", cmp)
    assert lines[0] == "w: change against parent"
    assert lines[1] == ("  ops_per_s (higher is better): change wins 2/4 pairs, parent wins 1;"
                        " median 115 -> 130, parent IQR 15; within bound 0.25")
    assert lines[-1] == "  digests DIFFER at seeds 3"
    same = bench_record.compare(parent, parent, spec)
    assert same["digests_differ"] == [] and same["metrics"]["ops_per_s"]["last_wins"] == 0
    assert bench_record.render_comparison("w", "a", "b", same)[-1] == "  digests equal at every seed"


def test_comparison_refuses_sides_with_different_seeds():
    with pytest.raises(ValueError):
        bench_record.compare(side_entry({1: (1.0, 1.0)}), side_entry({2: (1.0, 1.0)}),
                             {"ops_per_s": ("higher", 0.25)})


def test_directions_are_read_from_the_benchmark_file():
    spec = bench_record.end_to_end_metrics(bench_record.BENCHMARK)
    assert spec["ops_per_s"] == ("higher", 0.25)
    assert spec["op_p50_ms"][0] == spec["setup_s"][0] == spec["peak_rss_mb"][0] == "lower"
    assert spec["peak_rss_mb"][1] == 0.1


def verdict_of(parent_ops: list[float], change_ops: list[float]) -> str:
    """The ops_per_s verdict, bound 0.25, between canned sides."""
    parent = side_entry({k: (ops, 1.0) for k, ops in enumerate(parent_ops)})
    change = side_entry({k: (ops, 1.0) for k, ops in enumerate(change_ops)})
    return bench_record.compare(parent, change, {"ops_per_s": ("higher", 0.25)})[
        "metrics"]["ops_per_s"]["verdict"]


def test_verdict_against_the_bound():
    tight = [96.0, 98.0, 100.0, 102.0, 104.0]  # IQR 4 on a median of 100
    assert verdict_of(tight, [90.0, 92.0, 94.0, 96.0, 98.0]) == "within bound"
    assert verdict_of(tight, [70.0, 72.0, 74.0, 76.0, 78.0]) == "WORSE than bound"
    # a median 25% lower is at the bound, not past it
    assert verdict_of(tight, [70.0, 72.0, 75.0, 76.0, 78.0]) == "within bound"
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]  # IQR 40 on a median of 100
    assert verdict_of(wide, [60.0, 80.0, 100.0, 120.0, 140.0]) == "unresolved"
    assert verdict_of(wide, [10.0, 20.0, 30.0, 40.0, 50.0]) == "unresolved"
    # every run of the change beats every run of the parent
    assert verdict_of(wide, [141.0, 150.0, 160.0, 170.0, 180.0]) == "within bound"
    assert verdict_of([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == "within bound"
    assert verdict_of([0.0, 0.0, 0.0], [-1.0, -1.0, 0.0]) == "WORSE than bound"


def test_src_lines_line_names_every_side():
    points = [{"label": "parent", "src_lines": 2882}, {"label": "change", "src_lines": 2850}]
    assert bench_record.render_src_lines(points) == "src_lines: parent 2882, change 2850"
