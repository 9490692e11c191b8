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
