"""Release gate: nine checks covering invariants, oracles, and structure.

Each check prints one "criterion N: PASS" line on success; a failing check
shows up as the test's own failure report. Criteria 1-3 share one pool of
randomized streams.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from orbitlb import dataset_path
from orbitlb.annealing import AnnealingSchedule, simulated_annealing
from orbitlb.cli import main
from orbitlb.errors import PartitionError
from orbitlb.fileio import load_demands, load_topology
from orbitlb.milp import build_model, candidate_from_routing, check_solution
from orbitlb.model import Link, NfviGraph, ServiceDemand
from orbitlb.oracle import exact_oracle
from orbitlb.orbit import run_stream, verify_guarantees
from orbitlb.partition import partition
from orbitlb.routing import route_all, route_demand_sfc, shortest_path_field
from tests.conftest import random_connected_graph, random_stream

TOL = 1e-9


@pytest.fixture(scope="session")
def stream_runs():
    """At least 1000 online runs on random graphs (<= 10 nodes, <= 50 demands,
    kappa and epsilon in {1,2,3}), shared by criteria 1-3."""
    rng = random.Random(42)
    runs = []
    start = time.perf_counter()
    while len(runs) < 1000:
        g = random_connected_graph(rng)
        demands = random_stream(rng, g)
        n = len(g.node_capacity)
        eps = rng.choice([1, 2, 3])
        feasible = [k for k in (1, 2, 3) if math.floor(eps * n / k) * k >= n]
        kappa = rng.choice(feasible)
        try:
            part = partition(g, kappa, float(eps), seed=len(runs))
        except PartitionError:
            continue
        runs.append(run_stream(g, demands, part))
    return runs, time.perf_counter() - start


def test_criterion_1_fraction_coverage(stream_runs):
    runs, elapsed = stream_runs
    checked = 0
    for state in runs:
        final_sum = {ev.demand_id: ev.sum_z for ev in state.events}
        for d_id, q_ids in state.demand_q.items():
            if not q_ids:
                continue
            assert final_sum[d_id] >= 1.0 - TOL
            checked += 1
    assert len(runs) >= 1000
    assert elapsed < 60.0
    print(
        f"criterion 1: PASS fraction coverage held for {checked} demands "
        f"across {len(runs)} streams in {elapsed:.1f}s"
    )


def test_criterion_2_cost_ledger(stream_runs):
    runs, _ = stream_runs
    sweeps = 0
    for state in runs:
        p_sum = 0.0
        for _d_id, d_p, d_d in state.trace:
            assert d_d == 1
            assert d_p <= 2.0 + TOL
            p_sum += d_p
            sweeps += 1
        assert state.d_o == len(state.trace)
        assert abs(state.p_o - p_sum) <= TOL
        # the primal stays within twice the dual at every checkpoint
        for ev in state.events:
            assert ev.p_o <= 2.0 * ev.d_o + TOL
        assert state.p_o <= 2.0 * state.d_o + TOL
    print(
        f"criterion 2: PASS cost ledger held over {sweeps} raising sweeps "
        f"in {len(runs)} streams"
    )


def test_criterion_3_dual_load_bound(stream_runs):
    runs, _ = stream_runs
    groups = 0
    for state in runs:
        kappa = state.part.kappa
        eps = state.part.epsilon
        cap = math.log(3 * kappa + 1)
        for i, part_i in enumerate(state.part.parts):
            load = sum(state.zeta[d_id] for d_id, q in state.demand_q.items() if i in q)
            assert load <= cap * (1.0 + part_i.pi * eps) + TOL
            groups += 1
        for z_i in state.z:
            assert z_i <= 3.0 + TOL
    print(f"criterion 3: PASS dual load and fraction caps held for {groups} groups")


def _reference_split(
    g: NfviGraph, w: dict[str, int], src: str, dst: str, amount: float
) -> dict[str, float] | None:
    """Independent equal-split model: exact distance labels by relaxation,
    then recursive division over distance-tight out-links in rationals."""
    inf = float("inf")
    dist = {v: inf for v in g.node_capacity}
    dist[dst] = 0
    for _ in range(len(dist)):
        for e in g.links:
            via = w[e.id] + dist[e.dst]
            if via < dist[e.src]:
                dist[e.src] = via
    if dist[src] == inf:
        return None
    flow: dict[str, Fraction] = {}

    def push(v: str, amt: Fraction) -> None:
        if v == dst:
            return
        outs = [
            e
            for e in g.out_links.get(v, ())
            if dist[e.dst] != inf and dist[v] == w[e.id] + dist[e.dst]
        ]
        share = amt / len(outs)
        for e in outs:
            flow[e.id] = flow.get(e.id, Fraction(0)) + share
            push(e.dst, share)

    push(src, Fraction(amount))
    return {eid: float(val) for eid, val in flow.items()}


def test_criterion_4_equal_split_reference():
    rng = random.Random(7)
    start = time.perf_counter()
    count = 0
    while count < 100:
        n = rng.randint(2, 5)
        names = [f"n{i}" for i in range(n)]
        links = []
        eid = 0
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.6:
                    links.append(Link(f"e{eid}", names[i], names[j], 100.0))
                    eid += 1
        for i in range(n):
            links.append(Link(f"r{i}", names[i], names[(i + 1) % n], 100.0))
        g = NfviGraph({v: 10.0 for v in names}, tuple(links), frozenset(), {}, {})
        w = {e.id: rng.choice([1, 2, 3]) for e in g.links}
        src, dst = rng.sample(names, 2)
        amount = float(rng.randint(1, 9))
        ref = _reference_split(g, w, src, dst, amount)
        assert ref is not None
        alloc = route_demand_sfc(g, shortest_path_field(g, w), ServiceDemand(0, src, dst, amount))
        mine = {k: v for k, v in alloc.link_flow.items() if v != 0.0}
        theirs = {k: v for k, v in ref.items() if v != 0.0}
        for key in set(mine) | set(theirs):
            assert abs(mine.get(key, 0.0) - theirs.get(key, 0.0)) <= TOL
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4: PASS {count} instances matched the reference in {elapsed:.2f}s")


def test_criterion_5_routing_satisfies_model():
    rng = random.Random(11)
    start = time.perf_counter()
    for trial in range(100):
        n = rng.randint(3, 6)
        names = [f"v{i}" for i in range(n)]
        links = []
        for i in range(n):
            links.append(
                Link(f"r{i}", names[i], names[(i + 1) % n], float(n * 3 * rng.randint(4, 8)))
            )
        eid = 0
        for i in range(n):
            for j in range(n):
                if i != j and j != (i + 1) % n and rng.random() < 0.3:
                    links.append(
                        Link(f"c{eid}", names[i], names[j], float(n * 3 * rng.randint(4, 8)))
                    )
                    eid += 1
        g = NfviGraph({v: 50.0 for v in names}, tuple(links), frozenset(), {}, {})
        w = {e.id: rng.choice([1, 2, 3]) for e in g.links}
        demands = [
            ServiceDemand(i, *rng.sample(names, 2), float(rng.randint(1, 5)), ())
            for i in range(rng.randint(1, 4))
        ]
        result = route_all(g, w, demands)
        assert result is not None
        model = build_model(g, demands, 2)
        cand = candidate_from_routing(model, g, w, demands, result.allocations)
        report = check_solution(model, cand)
        bad = report.count_in(("1", "2", "3", "4", "5", "6", "7", "8"))
        assert bad == 0, f"trial {trial}: {report.by_family()}"
    elapsed = time.perf_counter() - start
    print(f"criterion 5: PASS 100 routed candidates satisfied rows 1-8 in {elapsed:.2f}s")


def test_criterion_6_optimality_ordering(diamond, diamond_demand):
    oracle = exact_oracle(diamond, [diamond_demand], 2)
    assert oracle.best_r == 0.8
    assert oracle.best_w == {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}
    state = run_stream(diamond, [diamond_demand], partition(diamond, 1, 1.0), w=oracle.best_w)
    assert state.acceptance_ratio() == 1.0
    assert state.max_utilization() >= 0.8 - TOL
    assert verify_guarantees(state).ok
    schedule = AnnealingSchedule(iterations_per_level=40, stop_temperature=0.05, seed=2)
    annealed = simulated_annealing(diamond, [diamond_demand], schedule)
    assert annealed.acceptance_ratio == 1.0
    assert annealed.energy >= 0.8 - TOL
    print(
        "criterion 6: PASS oracle found 0.8 exactly; online run and annealing "
        f"reported {state.max_utilization():g} and {annealed.energy:g}"
    )


def test_criterion_7_constraint_count_audit():
    g = load_topology(dataset_path("internet2.topo"))
    stream = load_demands(dataset_path("internet2.demands"), g)
    demands = list(stream.demands[:10])
    model = build_model(g, demands, 2)
    counts = model.family_counts()
    n = len(g.node_capacity)
    m = len(g.links)
    targets = {d.dst for d in demands}
    flow_balance = counts["1"] + counts["2"] + counts["3"]
    assert flow_balance == 120 == 10 * (12 - 2) + 2 * 10
    assert counts["1"] == len(demands) * (n - 2)
    assert counts["2"] == len(demands)
    assert counts["3"] == len(demands)
    assert counts["4"] == m
    assert counts["5"] == m * len(targets)
    assert counts["6"] == len(demands) * m
    assert counts["7"] == len(demands) * m
    assert counts["8"] == m
    positive = [d for d in demands if d.volume > 0]
    assert counts["9"] == 2 * sum(len(d.chain) for d in positive)
    assert counts["10"] == 2 * len(positive)
    assert counts["11"] == counts["12"] == counts["13"] == 2 * len(demands) * m
    assert counts["14"] == n
    print(f"criterion 7: PASS flow balance rows = {flow_balance}, all families audited")


def test_criterion_8_sweep_determinism(tmp_path):
    args = [
        "sweep",
        "--topology", dataset_path("internet2.topo"),
        "--demands", dataset_path("internet2.demands"),
        "--kappa", "2",
        "--epsilon", "1,3",
        "--seed", "7",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "sweep.csv" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    print(f"criterion 8: PASS repeated sweeps byte-identical across {len(names)} files")


def test_criterion_9_parameter_sweep_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    rows_total = 0
    for name, expected_rows in (("internet2", 10), ("geant", 9)):
        out = tmp_path / name
        code = main(
            [
                "sweep",
                "--topology", dataset_path(f"{name}.topo"),
                "--demands", dataset_path(f"{name}.demands"),
                "--kappa", "2,3",
                "--epsilon", "1,2,3,4,5",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "kappa,epsilon,max_link_utilization,acceptance_ratio"
        assert len(lines) - 1 == expected_rows
        for line in lines[1:]:
            kappa, eps, util, acc = line.split(",")
            assert int(kappa) in (2, 3)
            assert float(eps) in (1.0, 2.0, 3.0, 4.0, 5.0)
            assert 0.0 <= float(util) <= 1.0 + TOL
            assert 0.0 <= float(acc) <= 1.0
        rows_total += len(lines) - 1
    elapsed = time.perf_counter() - start
    assert rows_total == 19
    assert elapsed < 300.0
    print(
        f"criterion 9: PASS full grid on both datasets gave {rows_total} rows "
        f"in {elapsed:.1f}s"
    )
