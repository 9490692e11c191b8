"""Smoke tests of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str):
    if name == "online_scaled":
        return workloads.OnlineScaled(gen.InstanceSpec(
            nodes=12, chords=6, demands=40, capacity_tiers=(10.0, 20.0, 40.0),
            capacity_scale=4.0))
    if name == "weight_search":
        return workloads.WeightSearch(
            gen.InstanceSpec(nodes=4, chords=0, demands=3, capacity_tiers=(10.0, 20.0, 40.0),
                             capacity_scale=0.25, max_chain=2),
            dataset="internet2",
            schedule=dict(initial_temperature=1.0, cooling=0.5, iterations_per_level=4,
                          stop_temperature=0.2, seed=0))
    return workloads.SweepExport(datasets=(("internet2", 10),), export="internet2",
                                 demand_limit=12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_emits_every_metric(tmp_path, name, trace):
    out = run.run_workload(tiny(name), seed=3, seconds=0, trace=trace, work_dir=str(tmp_path))
    result = out["result"]
    expected = spans.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert result["correct"], out["report"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert out["report"]["error_rate"] == 0.0
    assert out["report"]["digests"]
    units = {k: v[0] for k, v in spans.PER_LAYER.items()} if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        assert out["report"]["spans"]["count"] > 0


def test_time_scale_multiplies_every_gated_time():
    r = workloads.RoundResult(seconds=2.0, ops=10, latencies=[0.1, 0.2, 0.3, 0.4])
    base = run.end_to_end([r], [0.5], 1.0)
    slow = run.end_to_end([r], [0.5], 2.0)
    assert slow["ops_per_s"] == base["ops_per_s"] / 2
    for name in ("setup_s", "op_p50_ms", "op_p90_ms", "op_p99_ms"):
        assert slow[name] == 2 * base[name]


def test_same_seed_gives_same_outputs(tmp_path):
    w = tiny("online_scaled")
    a = run.run_workload(w, seed=5, seconds=0, trace=False, work_dir=str(tmp_path / "a"))
    b = run.run_workload(w, seed=5, seconds=0, trace=False, work_dir=str(tmp_path / "b"))
    assert a["report"]["digests"] == b["report"]["digests"]
    assert a["report"]["instance"] == b["report"]["instance"]


def test_corrupted_sweep_output_raises_error_rate(tmp_path):
    w = tiny("sweep_export")
    real_round = w.run_round

    def corrupting_round(inputs):
        result = real_round(inputs)
        path = os.path.join(inputs[2], "out", "internet2", "sweep.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        k, e, _util, acc = lines[1].split(",")
        lines[1] = ",".join([k, e, "1.5", acc])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return result

    w.run_round = corrupting_round
    out = run.run_workload(w, seed=3, seconds=0, trace=False, work_dir=str(tmp_path))
    assert out["result"]["failed"] > 0
    assert not out["result"]["correct"]
    assert out["report"]["error_rate"] > 0.0


def test_corrupted_online_state_raises_error_rate(tmp_path):
    w = tiny("online_scaled")
    real_round = w.run_round

    def overloading_round(inputs):
        result = real_round(inputs)
        _inst, state = inputs
        link = state.g.links[0]
        state.chi[link.id] = 2.0 * link.capacity
        return result

    w.run_round = overloading_round
    out = run.run_workload(w, seed=3, seconds=0, trace=False, work_dir=str(tmp_path))
    assert out["result"]["failed"] > 0
    assert out["report"]["error_rate"] > 0.0


def test_closed_forms_match_the_model_builder():
    from orbitlb.milp import build_model

    spec = gen.InstanceSpec(nodes=6, chords=2, demands=5, capacity_tiers=(10.0,),
                            capacity_scale=1.0)
    inst = gen.draw(spec, 2, "closed")
    model = build_model(inst.graph, list(inst.demands), 2)
    assert model.family_counts() == workloads.family_closed_forms(inst, 2)


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "online_scaled", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
