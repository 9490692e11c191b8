"""Exhaustive weight search: optimality, determinism, and the guard."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from orbitlb.errors import OracleGuardError
from orbitlb.model import Link, NfviGraph, ServiceDemand
from orbitlb.oracle import OracleEntry, OracleResult, exact_oracle
from orbitlb.routing import route_all
from tests.conftest import chain_graph, random_connected_graph


def test_diamond_optimum_is_exact(diamond, diamond_demand):
    result = exact_oracle(diamond, [diamond_demand], w_max=2)
    assert result.combinations == 16
    assert result.feasible
    assert result.best_r == 0.8  # all 8 units on the wide path
    assert result.best_w == {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}


def test_diamond_log_contains_infeasible_equal_split(diamond, diamond_demand):
    result = exact_oracle(diamond, [diamond_demand], w_max=2)
    first = result.log[0]
    assert first.w == (1, 1, 1, 1)
    assert not first.feasible
    assert first.r == 2.0  # half of 8 through capacity 2


def test_single_path_r_is_volume_over_capacity():
    g = chain_graph([10.0])
    d = ServiceDemand(0, "v0", "v1", 4.0, ())
    result = exact_oracle(g, [d], w_max=3)
    assert result.best_r == 0.4
    assert all(e.r == 0.4 and e.feasible for e in result.log)


def test_best_r_never_worsens_with_larger_w_max(diamond, diamond_demand):
    r1 = exact_oracle(diamond, [diamond_demand], w_max=1).best_r
    r2 = exact_oracle(diamond, [diamond_demand], w_max=2).best_r
    r3 = exact_oracle(diamond, [diamond_demand], w_max=3).best_r
    assert r1 is None  # unit weights overload the thin path
    assert r2 == 0.8
    assert r3 <= r2


def test_guard_refuses_large_enumerations():
    caps = [10.0] * 24
    g = chain_graph(caps)
    d = ServiceDemand(0, "v0", "v24", 1.0, ())
    with pytest.raises(OracleGuardError) as exc:
        exact_oracle(g, [d], w_max=2)  # 2^24 > 10^7
    assert (exc.value.combinations, exc.value.limit) == (2**24, 10**7)
    assert str(exc.value) == (
        "enumeration of 16777216 weight vectors exceeds the guard limit of 10000000"
    )


def test_raised_guard_runs_and_log_limit_truncates(monkeypatch):
    import orbitlb.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "GUARD_LIMIT", 8)
    g = chain_graph([10.0, 10.0])
    d = ServiceDemand(0, "v0", "v2", 1.0, ())
    with pytest.raises(OracleGuardError):
        exact_oracle(g, [d], w_max=3)  # 9 combos > tightened guard
    monkeypatch.setattr(oracle_mod, "GUARD_LIMIT", 9)
    result = exact_oracle(g, [d], w_max=3, log_limit=4)
    assert result.best_r == 0.1
    assert result.combinations == 9
    assert [e.w for e in result.log] == [(1, 1), (1, 2), (1, 3), (2, 1)]


def test_unroutable_demand_logs_nan():
    g = chain_graph([10.0])
    d = ServiceDemand(0, "v1", "v0", 1.0, ())  # against the arrow
    result = exact_oracle(g, [d], w_max=2)
    assert not result.feasible
    assert result.best_w is None
    assert all(math.isnan(e.r) for e in result.log)


def test_node_budget_blocks_feasibility():
    # routing works but the single host cannot afford the compute
    nodes = {"a": 10.0, "b": 1.0, "c": 10.0}
    links = (Link("ab", "a", "b", 100.0), Link("bc", "b", "c", 100.0))
    g = NfviGraph(nodes, links, frozenset({"fw"}), {("b", "fw")}, {("b", "fw"): 1.0})
    d = ServiceDemand(0, "a", "c", 5.0, ("fw",))  # usage 5 > budget 1
    result = exact_oracle(g, [d], w_max=2)
    assert not result.feasible
    assert all(not e.feasible and e.r == 0.05 for e in result.log)


def test_weights_can_steer_around_congestion():
    # two demands share s->t; a middle host forces one through the detour
    nodes = {"s": 10.0, "m": 10.0, "t": 10.0}
    links = (
        Link("sm", "s", "m", 4.0),
        Link("mt", "m", "t", 4.0),
        Link("st", "s", "t", 4.0),
    )
    g = NfviGraph(nodes, links, frozenset({"fw"}), {("m", "fw")}, {})
    demands = [
        ServiceDemand(0, "s", "t", 4.0, ("fw",)),  # must visit m
        ServiceDemand(1, "s", "t", 4.0, ()),
    ]
    result = exact_oracle(g, demands, w_max=3)
    # chained demand fills sm/mt; plain demand must keep to the direct link
    assert result.feasible
    assert result.best_r == 1.0
    w = result.best_w
    assert w["st"] < w["sm"] + w["mt"]


def test_log_csv_shape(diamond, diamond_demand):
    result = exact_oracle(diamond, [diamond_demand], w_max=2)
    lines = result.log_csv().splitlines()
    assert lines[0] == "w_vector,feasible,r"
    assert lines[1] == "1 1 1 1,0,2"
    assert len(lines) == 17


def reference_oracle(g: NfviGraph, demands: list[ServiceDemand], w_max: int) -> OracleResult:
    """exact_oracle's enumeration with every vector routed from scratch."""
    link_ids = list(g.link_ids)
    log = []
    best = None
    for combo in itertools.product(range(1, w_max + 1), repeat=len(link_ids)):
        result = route_all(g, dict(zip(link_ids, combo)), demands)
        if result is None:
            feasible, r = False, math.nan
        else:
            r = result.report.r
            feasible = result.report.within_capacity()
        log.append(OracleEntry(combo, feasible, r))
        if feasible and (best is None or r < best[1]):
            best = (combo, r)
    return OracleResult(
        best_w=dict(zip(link_ids, best[0])) if best else None,
        best_r=best[1] if best else None,
        combinations=len(log),
        log=tuple(log),
    )


def hosted_instance(seed: int) -> tuple[NfviGraph, list[ServiceDemand]]:
    """A 3-node random graph hosting fw, with chained and plain demands;
    some seeds add a demand for a function no node hosts."""
    rng = random.Random(seed)
    base = random_connected_graph(rng, max_nodes=3)
    names = sorted(base.nodes)
    caps = [(v, "fw") for v in names if rng.random() < 0.6] or [(names[0], "fw")]
    g = NfviGraph(base.node_capacity, base.links, ("fw", "lb"), caps, {c: 0.5 for c in caps})
    demands = []
    for i in range(rng.randint(1, 4)):
        src, dst = rng.sample(names, 2)
        chain = ("fw",) if rng.random() < 0.5 else ()
        demands.append(ServiceDemand(i, src, dst, float(rng.randint(1, 6)), chain))
    if rng.random() < 0.2:
        demands.append(ServiceDemand(len(demands), names[0], names[1], 1.0, ("lb",)))
    return g, demands


def test_reuse_across_vectors_matches_routing_each_from_scratch(diamond, diamond_demand):
    instances = [(diamond, [diamond_demand], 3)]
    instances += [(*hosted_instance(seed), 2) for seed in range(20)]
    for g, demands, w_max in instances:
        got = exact_oracle(g, demands, w_max)
        want = reference_oracle(g, demands, w_max)
        assert got.log_csv() == want.log_csv()
        assert got.best_w == want.best_w
