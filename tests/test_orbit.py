"""Online admission: fraction updates, duals, rejections, and guarantees."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitlb
from orbitlb import dataset_path, orbit
from orbitlb.errors import PartitionError, ValidationError
from orbitlb.fileio import load_demands, load_topology
from orbitlb.model import DemandStream, Link, NfviGraph, ServiceDemand
from orbitlb.oracle import exact_oracle
from orbitlb.orbit import (
    EVENT_HEADER,
    OrbitState,
    eligible_partitions,
    process_demand,
    run_stream,
    verify_guarantees,
)
from orbitlb.partition import Partition, Partitioning, partition
from orbitlb.routing import (
    FlowAllocation,
    ShortestPathField,
    _alloc_node_usage,
    route_demand_sfc,
    shortest_path_field,
    unit_weights,
)
from tests.conftest import random_chained_instance, random_connected_graph, random_stream


def two_pair_graph() -> NfviGraph:
    """Ring a1-a2-b1-b2 with capacity-1 intra-pair links and wide cross links."""
    nodes = {"a1": 100.0, "a2": 100.0, "b1": 100.0, "b2": 100.0}
    pairs = [("a1", "a2", 1.0), ("a2", "b1", 5.0), ("b1", "b2", 1.0), ("b2", "a1", 5.0)]
    links = []
    for u, v, cap in pairs:
        links.append(Link(f"{u}_{v}", u, v, cap))
        links.append(Link(f"{v}_{u}", v, u, cap))
    return NfviGraph(nodes, tuple(links), frozenset(), (), {})


def two_pair_partitioning(epsilon: float) -> Partitioning:
    parts = (
        Partition(0, frozenset({"a1", "a2"}), ("a1_a2", "a2_a1"), 2.0),
        Partition(1, frozenset({"b1", "b2"}), ("b1_b2", "b2_b1"), 2.0),
    )
    return Partitioning(parts, kappa=2, epsilon=epsilon, seed=0, size_bound=4.0)


def test_first_demand_single_group_raises_fraction_to_one():
    # pi = 1, eps = 1, one group: a single sweep lands exactly on 1
    g = NfviGraph(
        {"a": 10.0, "b": 10.0},
        (Link("ab", "a", "b", 0.5), Link("ba", "b", "a", 0.5)),
        frozenset(),
        (),
        {},
    )
    part = partition(g, 1, 1.0)
    assert part.parts[0].pi == 1.0
    state = OrbitState(g, part)
    decision = process_demand(state, ServiceDemand(0, "a", "b", 0.25, ()))
    assert decision.accepted
    assert state.z == [1.0]
    assert state.zeta[0] == 1
    assert state.p_o == 1.0
    assert state.d_o == 1


def test_fraction_update_formula_two_groups():
    # pi = 2, eps = 3, |Q| = 2: two sweeps, z_i = 13/24 each
    g = two_pair_graph()
    state = OrbitState(g, two_pair_partitioning(epsilon=3.0))
    decision = process_demand(state, ServiceDemand(0, "a1", "a2", 0.5, ()))
    assert decision.accepted
    assert state.z[0] == pytest.approx(13 / 24, abs=1e-12)
    assert state.z[1] == pytest.approx(13 / 24, abs=1e-12)
    assert state.zeta[0] == 2
    assert state.d_o == 2
    assert state.p_o == pytest.approx(13 / 6, abs=1e-12)
    # shares split proportionally to equal fractions
    assert decision.shares[0] == pytest.approx(0.25, abs=1e-12)
    assert decision.shares[1] == pytest.approx(0.25, abs=1e-12)


def test_share_placement_conserves_volume():
    g = two_pair_graph()
    state = OrbitState(g, two_pair_partitioning(epsilon=1.0))
    d = ServiceDemand(0, "a1", "a2", 0.5, ())
    decision = process_demand(state, d)
    assert decision.accepted
    inflow = sum(
        decision.link_delta.get(e.id, 0.0) for e in g.in_links["a2"]
    )
    outflow = sum(
        decision.link_delta.get(e.id, 0.0) for e in g.out_links["a2"]
    )
    assert inflow - outflow == pytest.approx(0.5, abs=1e-12)
    for eid, val in decision.link_delta.items():
        assert state.chi[eid] == val


def test_no_eligible_group_rejects_but_keeps_bookkeeping():
    g = two_pair_graph()
    g2 = NfviGraph(
        dict.fromkeys(g.nodes, 100.0),
        g.links,
        frozenset({"fw"}),
        (),
        {},
    )
    state = OrbitState(g2, two_pair_partitioning(epsilon=1.0))
    decision = process_demand(state, ServiceDemand(0, "a1", "b1", 1.0, ("fw",)))
    assert not decision.accepted
    assert decision.reason == "no_eligible_partition"
    assert state.demand_q[0] == ()
    assert state.zeta[0] == 0
    assert state.z == [0.0, 0.0]
    assert state.events[-1].decision == "rejected"
    assert state.events[-1].sum_z == 0.0


def test_capacity_rejection_keeps_fractions_and_residuals():
    g = two_pair_graph()
    state = OrbitState(g, two_pair_partitioning(epsilon=1.0))
    decision = process_demand(state, ServiceDemand(0, "a1", "a2", 100.0, ()))
    assert not decision.accepted
    assert decision.reason == "capacity"
    assert set(state.chi.values()) == {0.0}
    assert state.residual_node == g.node_capacity
    assert state.zeta[0] >= 1  # sweeps persist
    assert sum(state.z) >= 1.0
    # a small follow-up needs no further sweeps and is admitted
    d_o_before = state.d_o
    decision2 = process_demand(state, ServiceDemand(1, "a1", "a2", 0.5, ()))
    assert decision2.accepted
    assert state.d_o == d_o_before


def test_duplicate_demand_id_rejected():
    g = two_pair_graph()
    state = OrbitState(g, two_pair_partitioning(epsilon=1.0))
    process_demand(state, ServiceDemand(0, "a1", "a2", 0.1, ()))
    with pytest.raises(ValidationError):
        process_demand(state, ServiceDemand(0, "a2", "a1", 0.1, ()))


def test_eligibility_rules():
    nodes = {"a": 10.0, "b": 0.0, "c": 10.0, "d": 10.0}
    links = tuple(
        Link(f"{u}_{v}", u, v, 10.0)
        for u, v in itertools.permutations("abcd", 2)
    )
    g = NfviGraph(
        nodes,
        links,
        frozenset({"fw", "dpi"}),
        {("a", "fw"), ("b", "dpi"), ("c", "dpi")},
        {},
    )
    parts = (
        Partition(0, frozenset({"a", "b"}), (), 1.0),
        Partition(1, frozenset({"c", "d"}), (), 1.0),
    )
    partng = Partitioning(parts, kappa=2, epsilon=2.0, seed=0, size_bound=4.0)
    # each eligible group maps to its members with compute left, so b,
    # which has no compute budget, is never a host
    chainless = ServiceDemand(0, "a", "c", 1.0, ())
    got = eligible_partitions(chainless, partng, g, g.node_capacity)
    assert got == {0: {"a"}, 1: {"c", "d"}} and list(got) == [0, 1]
    fw = ServiceDemand(1, "a", "c", 1.0, ("fw",))
    assert eligible_partitions(fw, partng, g, g.node_capacity) == {0: {"a"}}
    # b hosts dpi but has no compute budget left
    dpi = ServiceDemand(2, "a", "d", 1.0, ("dpi",))
    assert eligible_partitions(dpi, partng, g, g.node_capacity) == {1: {"c", "d"}}
    both = ServiceDemand(3, "a", "d", 1.0, ("fw", "dpi"))
    assert eligible_partitions(both, partng, g, g.node_capacity) == {}


def test_event_log_header_and_shape():
    g = two_pair_graph()
    state = OrbitState(g, two_pair_partitioning(epsilon=1.0))
    process_demand(state, ServiceDemand(0, "a1", "a2", 0.5, ()))
    lines = state.events_csv().splitlines()
    assert lines[0] == EVENT_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert fields[0] == "0" and fields[1] == "accepted" and fields[2] == ""


def test_fresh_state_reports_vacuous_success():
    g = two_pair_graph()
    state = OrbitState(g, two_pair_partitioning(epsilon=1.0))
    assert state.max_utilization() == 0.0
    assert state.acceptance_ratio() == 1.0
    report = verify_guarantees(state)
    assert report.ok
    assert "empirical_dual_scale" in report.render()


def test_injected_fault_is_flagged():
    g = two_pair_graph()
    state = run_stream(
        g,
        DemandStream((ServiceDemand(0, "a1", "a2", 0.5, ()),)),
        two_pair_partitioning(epsilon=1.0),
    )
    assert verify_guarantees(state).ok
    state.z[0] = 4.0  # beyond the provable fraction cap
    report = verify_guarantees(state)
    assert not report.ok
    assert any(c.name == "share_cap" and not c.ok for c in report.checks)
    assert "VIOLATED" in report.render()


def test_overflowing_growth_floor_is_reported_as_violated():
    """A dual load whose growth floor leaves the float range is reported as
    a violation, not raised."""
    g = load_topology(dataset_path("geant.topo"))
    state = run_stream(g, load_demands(dataset_path("geant.demands"), g), partition(g, 2, 2.0))
    assert verify_guarantees(state).ok
    assert state.part.parts[0].pi == 1.0
    d_id = next(k for k, q in state.demand_q.items() if 0 in q)
    state.zeta[d_id] += 2000  # 1.5 ** 2000 overflows a float
    report = verify_guarantees(state)
    failed = {c.name for c in report.checks if not c.ok}
    assert failed == {"dual_load", "growth_floor"}
    assert "dual_load: VIOLATED" in report.render()
    assert "growth_floor: VIOLATED" in report.render()


def test_single_group_dual_scale_is_undefined():
    g = two_pair_graph()
    part = partition(g, 1, 1.0)
    state = run_stream(
        g, DemandStream((ServiceDemand(0, "a1", "b1", 0.5, ()),)), part
    )
    report = verify_guarantees(state)
    assert report.empirical_dual_scale is None
    assert "undefined" in report.render()


def test_guarantees_hold_on_random_streams():
    rng = random.Random(202)
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=10)
        kappa = rng.randint(1, min(3, len(g.nodes)))
        eps = float(rng.choice([1, 2, 3]))
        try:
            part = partition(g, kappa, eps, seed=rng.randint(0, 9))
        except Exception:
            continue
        state = run_stream(g, random_stream(rng, g), part)
        report = verify_guarantees(state)
        assert report.ok, report.render()


def test_running_r_current_equals_a_fresh_maximum():
    rng = random.Random(77)
    accepted = 0
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=10, capacity_choices=(2.0, 5.0, 10.0))
        try:
            part = partition(g, rng.randint(1, min(3, len(g.nodes))), 2.0, seed=0)
        except Exception:
            continue
        state = OrbitState(g, part)
        for d in random_stream(rng, g):
            accepted += process_demand(state, d).accepted
            fresh = max(state.chi[e.id] / e.capacity for e in g.links)
            assert state.events[-1].r_current == fresh == state.max_utilization()
    assert accepted > 100


def cover_lp_opt(costs: list[Fraction], cover_sets: list[frozenset[int]]) -> Fraction:
    """Exact optimum of min c.z st sum_{i in S} z_i >= 1 per set, z >= 0,
    by vertex enumeration over tight-constraint subsets."""
    k = len(costs)
    rows: list[tuple[list[Fraction], Fraction]] = []
    for s in cover_sets:
        rows.append(([Fraction(1 if i in s else 0) for i in range(k)], Fraction(1)))
    for i in range(k):
        rows.append(([Fraction(1 if j == i else 0) for j in range(k)], Fraction(0)))
    best: Fraction | None = None
    for combo in itertools.combinations(range(len(rows)), k):
        a = [rows[i][0][:] for i in combo]
        b = [rows[i][1] for i in combo]
        # gaussian elimination; skip singular choices
        sol = _solve(a, b)
        if sol is None:
            continue
        if any(x < 0 for x in sol):
            continue
        if any(sum(row[i] * sol[i] for i in range(k)) < rhs for row, rhs in rows):
            continue
        value = sum(costs[i] * sol[i] for i in range(k))
        if best is None or value < best:
            best = value
    assert best is not None
    return best


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def subset_host_instance() -> tuple[NfviGraph, Partitioning]:
    """Triangle of singleton groups; function f_S is hosted exactly on the
    nodes named by subset S, so a chain (f_S,) makes Q equal S."""
    names = ["n0", "n1", "n2"]
    links = tuple(
        Link(f"{u}_{v}", u, v, 1000.0)
        for u, v in itertools.permutations(names, 2)
    )
    fns = []
    caps = set()
    for bits in range(1, 8):
        fn = f"f{bits}"
        fns.append(fn)
        for i in range(3):
            if bits & (1 << i):
                caps.add((names[i], fn))
    g = NfviGraph({v: 1000.0 for v in names}, links, frozenset(fns), caps, {})
    part = partition(g, 3, 1.0)
    return g, part


def test_online_cost_within_twice_scaled_offline_optimum():
    g, part = subset_host_instance()
    names = sorted(g.nodes)
    rng = random.Random(33)
    for trial in range(20):
        demands = []
        for i in range(rng.randint(1, 25)):
            src, dst = rng.sample(names, 2)
            bits = rng.randint(1, 7)
            demands.append(ServiceDemand(i, src, dst, 0.001, (f"f{bits}",)))
        state = run_stream(g, DemandStream(tuple(demands)), part)
        assert verify_guarantees(state).ok
        if state.d_o == 0:
            continue
        loads = {
            p.index: sum(state.zeta[d_id] for d_id, q in state.demand_q.items() if p.index in q)
            for p in state.part.parts
        }
        sigma = max(loads[p.index] / p.pi for p in state.part.parts)
        cover_sets = [
            frozenset(q) for q in state.demand_q.values() if q
        ]
        opt = cover_lp_opt([Fraction(1)] * 3, cover_sets)
        # scaled duals are feasible for the covering LP, so D/sigma <= OPT
        assert state.d_o / sigma <= float(opt) + 1e-9
        assert state.p_o <= 2.0 * sigma * float(opt) + 1e-9


def test_single_group_with_oracle_weights_matches_offline_utilization():
    rng = random.Random(55)
    trials = 0
    while trials < 10:
        g = random_connected_graph(rng, max_nodes=4, capacity_choices=(50.0, 100.0))
        demands = DemandStream(
            tuple(
                ServiceDemand(i, *rng.sample(sorted(g.nodes), 2), float(rng.randint(1, 4)), ())
                for i in range(rng.randint(1, 6))
            )
        )
        if 2 ** len(g.links) > 10**6:
            continue
        oracle = exact_oracle(g, list(demands), w_max=2)
        if not oracle.feasible:
            continue
        part = partition(g, 1, 1.0)
        state = run_stream(g, demands, part, oracle.best_w)
        assert state.acceptance_ratio() == 1.0
        assert state.max_utilization() == pytest.approx(oracle.best_r, abs=1e-9)
        trials += 1


# sha256 of every events_csv() of saturating_corpus(), taken before the
# link check read chi and the capacity rule's slack moved into routing
SATURATING_CORPUS_SHA256 = "68b8a4fe03ccdbee0a573359f4d29a5dfee2872ad3c8b02bf2ef8efca03cedd7"


def saturating_corpus(count: int = 200):
    """Seeded instances whose node budgets fill up: rings plus chords of
    4-14 nodes, fractional link and node capacities, costs and volumes, few
    hosts, chains of 0-2 functions and 30-80 demands each."""
    rng = random.Random(2024)
    fns = ("fw", "nat", "dpi")
    for _ in range(count):
        n = rng.randint(4, 14)
        names = [f"n{i}" for i in range(n)]
        links = []
        for i in range(n):
            cap = rng.choice((0.7, 1.0, 1.3, 2.0, 3.0, 10.0))
            links.append(Link(f"e{i}a", names[i], names[(i + 1) % n], cap))
            links.append(Link(f"e{i}b", names[(i + 1) % n], names[i], cap))
        for k in range(rng.randint(0, n)):
            u, v = rng.sample(names, 2)
            links.append(Link(f"c{k}", u, v, rng.choice((0.7, 1.0, 1.3, 2.0, 3.0, 10.0))))
        nodes = {v: rng.choice((0.5, 1.0, 2.5, 3.0)) for v in names}
        hosts = [(v, f) for v in names for f in fns if rng.random() < 0.25]
        costs = {key: rng.choice((0.1, 1 / 3, 0.5, 1.0)) for key in hosts}
        g = NfviGraph(nodes, links, fns, hosts, costs)
        demands = DemandStream(tuple(
            ServiceDemand(
                i, *rng.sample(names, 2), rng.choice((0.1, 0.2, 1 / 3, 0.7, 1.0)),
                tuple(rng.sample(fns, rng.randint(0, 2))),
            )
            for i in range(rng.randint(30, 80))
        ))
        w = {e.id: rng.randint(1, 3) for e in g.links}
        kappa, eps = rng.choice((1, 2, 3)), rng.choice((1.0, 2.0))
        try:
            part = partition(g, kappa, eps)
        except PartitionError:
            continue
        yield g, run_stream(g, demands, part, w)


def test_event_logs_where_node_budgets_saturate_are_pinned():
    digest = hashlib.sha256()
    runs = saturated = rejected = 0
    for g, state in saturating_corpus():
        runs += 1
        saturated += sum(
            left <= 1e-9 * max(1.0, g.node_capacity[v]) for v, left in state.residual_node.items()
        )
        rejected += sum(ev.reason == "capacity" for ev in state.events)
        digest.update(state.events_csv().encode())
    assert runs > 120 and saturated > 15 and rejected > 1000
    assert digest.hexdigest() == SATURATING_CORPUS_SHA256


def test_member_endpoints_share_one_share_field(monkeypatch):
    """A member endpoint adds no ramp, so demands that differ only in which
    member they start or end at reuse one cached share field, and the run
    matches one whose fields are all built fresh.  Shares are looked up
    through the router, process_demand's entry to the share fields."""
    rng = random.Random(10)
    fns = ("fw", "nat")
    g = random_connected_graph(rng, max_nodes=12, min_nodes=12, capacity_choices=(100.0, 200.0))
    hosts = [(v, f) for v in sorted(g.nodes) for f in fns if rng.random() < 0.4]
    g = NfviGraph({v: 60.0 for v in g.nodes}, g.links, fns, hosts, {h: 0.5 for h in hosts})
    demands = [
        ServiceDemand(
            i, *rng.sample(sorted(g.nodes), 2), float(rng.randint(1, 4)),
            tuple(rng.sample(fns, rng.randint(0, 2))),
        )
        for i in range(300)
    ]
    w = {e.id: rng.randint(1, 3) for e in g.links}
    part = partition(g, 3, 1.5)
    lookups = set()
    share_router = orbit._share_router

    def recording(state, i, d):
        if state is cached:
            lookups.add((i, d.src, d.dst))
        return share_router(state, i, d)

    monkeypatch.setattr(orbit, "_share_router", recording)
    cached, fresh = OrbitState(g, part, w), OrbitState(g, part, w)
    for d in demands:
        fresh._subgraphs.clear()
        assert process_demand(cached, d) == process_demand(fresh, d)
    assert cached.events_csv() == fresh.events_csv()
    assert cached.chi == fresh.chi and cached.residual_node == fresh.residual_node
    assert 0 < cached.accepted_count < len(demands)
    assert len(cached._subgraphs) < len(lookups)


def chain_base(key):
    """The key of the share field that key's field extends, None for a
    group's own links."""
    i, src, dst = key
    if src is not None:
        return (i, None, dst)
    return None if dst is None else (i, None, None)


def chained_streams():
    """Seeded streams whose share fields the tests below inspect: bundled
    geant at (3, 1.5), which has a group in two pieces, and random chained
    instances at (2, 1.5) plus a node x without links, so that demands to
    and from x find no ramp into or out of the groups x is not in."""
    g = load_topology(dataset_path("geant.topo"))
    yield g, load_demands(dataset_path("geant.demands"), g), partition(g, 3, 1.5)
    for seed in range(6):
        g, demands = random_chained_instance(random.Random(seed))
        g = NfviGraph({**g.node_capacity, "x": 1.0}, g.links, g.vnf_catalog,
                      g.capability_pairs(), g.vnf_cost)
        ends = [pair for v in sorted(g.nodes)[:3] for pair in (("x", v), (v, "x"))]
        demands += [ServiceDemand(len(demands) + k, a, b, 1.0) for k, (a, b) in enumerate(ends)]
        yield g, demands, partition(g, 2, 1.5)


def test_share_fields_chain_and_answer_as_fresh_masked_fields():
    """After a stream, every cached share field holds the field of its
    chain's previous key as its base and answers every fill and tight list
    as a fresh field masked to the same links; a field is None exactly when
    the field it extends is, or its own ramp does not exist."""
    split, unjoined = False, 0
    for g, demands, part in chained_streams():
        split |= bool(part.verify(g))
        state = run_stream(g, demands, part)
        unjoined += list(state._subgraphs.values()).count(None)
        for key, field in state._subgraphs.items():
            base_key = chain_base(key)
            if base_key is None:
                assert field is not None and field._base is None
                assert set(field._w) == set(part.parts[key[0]].link_ids)
                continue
            base = state._subgraphs[base_key]
            i, src, dst = key
            members = part.parts[i].nodes
            ramp = ramp_from_scratch(
                g, state.w, dst if src is None else src, members, src is not None
            )
            if base is None or ramp is None:
                assert field is None
                continue
            assert field._base is base and set(field._w) == set(base._w) | ramp
            fresh = ShortestPathField(g, state.w, set(field._w))
            for r in g.nodes:
                assert field.to_target(r) == fresh.to_target(r)
                assert field.from_source(r) == fresh.from_source(r)
                assert all(field.out_links(v, r) == fresh.out_links(v, r) for v in g.nodes)
    assert split and unjoined


def test_share_fields_hold_no_unreached_node():
    """After a chained stream, no fill of a cached share field, or of the
    state's unmasked field, holds math.inf: fills keep only what they reach."""
    for g, demands, part in chained_streams():
        state = run_stream(g, demands, part)
        fields = [field for field in state._subgraphs.values() if field is not None]
        assert len(fields) > 1
        for field in (state.field, *fields):
            for fill in (*field._dist.values(), *field._from.values()):
                assert math.inf not in fill.values()


def test_share_fields_fill_from_scratch_only_for_group_links(monkeypatch):
    """Over a whole stream, only a group's own-links field (i, None, None)
    fills from scratch, so such fills number at most 2·κ·|V|; every other
    share field fill starts from its base's.  Chained shares route on their
    cached fields, so the based fills are pinned at what that leaves."""
    scratch, based = [], 0
    dijkstra = ShortestPathField._dijkstra

    def recording(field, root, forward):
        nonlocal based
        if field._base is None:
            scratch.append(field)
        else:
            based += 1
        return dijkstra(field, root, forward)

    monkeypatch.setattr(ShortestPathField, "_dijkstra", recording)
    for g, demands, part in chained_streams():
        scratch.clear()
        state = run_stream(g, demands, part)
        keys = {id(field): key for key, field in state._subgraphs.items()}
        share = [field for field in scratch if field is not state.field]
        assert all(keys[id(field)][1:] == (None, None) for field in share)
        assert len(share) <= 2 * part.kappa * len(g.node_capacity)
    assert based == 586


def assert_share_cache_bounded(state):
    """The share-field cache keeps no field with both ramps, so it holds at
    most κ·(1 + 2·|V|) fields however long the stream."""
    assert not [key for key in state._subgraphs if None not in key[1:]]
    assert len(state._subgraphs) <= state.part.kappa * (1 + 2 * len(state.g.node_capacity))


def long_chained_stream(seed):
    """A seeded graph of 48 nodes with roomy compute and links, and 1,000
    chained demands between random endpoints."""
    rng = random.Random(seed)
    base = random_connected_graph(
        rng, max_nodes=48, min_nodes=48, capacity_choices=(1e3, 2e3, 4e3)
    )
    fns = ("fw", "nat", "dpi")
    hosts = [(v, f) for v in sorted(base.nodes) for f in fns if rng.random() < 0.4]
    g = NfviGraph({v: 1e4 for v in base.nodes}, base.links, fns, hosts, {h: 0.1 for h in hosts})
    names = sorted(g.nodes)
    demands = [
        ServiceDemand(k, *rng.sample(names, 2), float(rng.randint(1, 4)),
                      tuple(rng.sample(fns, rng.randint(0, 2))))
        for k in range(1000)
    ]
    return g, demands


# sha256 of events_csv() of long_chained_stream(seed) at kappa 4, epsilon
# 1.5, taken before two-ramp share fields were built from their ramps alone
LONG_CHAINED_SHA256 = {
    51: "71dca11642adfb5f1beb9e31631d502cb831dc913f7348e8266f468eabbcf1a9",
    53: "7044571f88a457340d0a97126341a0c89b3bcff17b1e8611d97c7b93f017b191",
}


@pytest.mark.parametrize("seed", sorted(LONG_CHAINED_SHA256))
def test_long_chained_event_logs_are_pinned(seed):
    """Two 1,000-demand streams on 48 nodes, most of whose share fields
    have both ramps, keep their event logs byte for byte."""
    g, demands = long_chained_stream(seed)
    state = run_stream(g, demands, partition(g, 4, 1.5))
    digest = hashlib.sha256(state.events_csv().encode()).hexdigest()
    assert digest == LONG_CHAINED_SHA256[seed]


def test_verify_reports_groups_that_one_way_links_leave_unreachable():
    # the ring is bidirected, so every group is one piece over its links
    # taken both ways; one-way chords inside groups 0 and 3 leave 59 and 14
    # ordered member pairs with no internal path
    g, _ = long_chained_stream(53)
    part = partition(g, 4, 1.5)
    assert part.verify(g) == [
        "group 0 internal links leave its 18 nodes in 3 pieces",
        "group 3 internal links leave its 7 nodes in 3 pieces",
    ]
    unreachable = []
    for p in part.parts:
        field = ShortestPathField(g, unit_weights(g), set(p.link_ids))
        unreachable.append(
            sum(field.dist(a, b) == math.inf for a in p.nodes for b in p.nodes if a != b)
        )
    assert unreachable == [59, 0, 0, 14]


def test_share_field_cache_is_bounded_by_the_instance(monkeypatch):
    """After every chained stream, and after a 1,000-demand stream on 48
    nodes whose shares ask the router for more two-ramp keys than the bound
    allows, the share-field cache keeps only fields with at most one ramp."""
    for g, demands, part in chained_streams():
        assert_share_cache_bounded(run_stream(g, demands, part))
    asked = set()
    share_router = orbit._share_router

    def recording(state, i, d):
        members = state.part.parts[i].nodes
        if d.src not in members and d.dst not in members:
            asked.add((i, d.src, d.dst))
        return share_router(state, i, d)

    monkeypatch.setattr(orbit, "_share_router", recording)
    g, demands = long_chained_stream(51)
    state = run_stream(g, demands, partition(g, 4, 1.5))
    assert_share_cache_bounded(state)
    assert len(asked) > 4 * (1 + 2 * len(g.node_capacity))
    assert state.accepted_count > 500


def test_two_ramp_share_fields_are_built_on_their_cached_base():
    """After a chained stream, a share field whose demand has both endpoints
    outside the group is built anew on each call and not cached: its base is
    the cached (i, None, dst) field, its forward base the cached entry field
    (i, src, None), its links are those two fields' links, each direction
    relaxes exactly the links its base lacks, and it answers every fill and
    tight list as a fresh field masked to those links.  A None field is
    None too when a state with empty caches builds it."""
    built = unjoined = 0
    for g, demands, part in chained_streams():
        state = run_stream(g, demands, part)
        seen = set()
        for d, p in itertools.product(demands, part.parts):
            i = p.index
            if d.src in p.nodes or d.dst in p.nodes or (i, d.src, d.dst) in seen:
                continue
            seen.add((i, d.src, d.dst))
            field = orbit._share_field(state, i, d)
            assert (i, d.src, d.dst) not in state._subgraphs
            if field is None:
                assert orbit._share_field(OrbitState(g, part, state.w), i, d) is None
                unjoined += 1
                continue
            assert orbit._share_field(state, i, d) is not field
            base = state._subgraphs[(i, None, d.dst)]
            entry = state._subgraphs[(i, d.src, None)]
            assert field._base is base and field._forward_base is entry
            assert set(field._w) == set(base._w) | set(entry._w)
            # a fill relaxes exactly the links its base lacks, each once
            added = [e.id for e in field._added]
            forward_added = [e.id for e in field._forward_added]
            assert len(set(added)) == len(added) and len(set(forward_added)) == len(forward_added)
            assert set(added) == set(field._w) - set(base._w)
            assert set(forward_added) == set(field._w) - set(entry._w)
            assert base._w.items() <= field._w.items()
            assert entry._w.items() <= field._w.items()
            fresh = ShortestPathField(g, state.w, set(field._w))
            for r in g.nodes:
                assert field.to_target(r) == fresh.to_target(r)
                assert field.from_source(r) == fresh.from_source(r)
                assert all(field.out_links(v, r) == fresh.out_links(v, r) for v in g.nodes)
            built += 1
    assert built > 100 and unjoined


def test_two_ramp_fields_need_one_ramp_fields_over_one_base():
    """Two fields over one base with ramps that share a link join into a
    field over both that relaxes, in each direction, only the links its
    base lacks, and answers as a fresh field.  A field joins only a field
    that extends the same base field and weighs the links they share
    alike."""
    g = long_chained_stream(51)[0]
    w = unit_weights(g)
    ids = g.link_ids
    common = ShortestPathField(g, w, set(ids[:4]))
    exit = ShortestPathField(g, w, set(ids[:6]), common)
    entry = ShortestPathField(g, w, set(ids[:4]) | set(ids[5:8]), common)
    joined = exit.joined(entry)
    assert joined._base is exit and joined._forward_base is entry
    assert set(joined._w) == set(ids[:8])
    assert sorted(e.id for e in joined._added) == sorted(ids[6:8])
    assert [e.id for e in joined._forward_added] == [ids[4]]
    fresh = ShortestPathField(g, w, set(ids[:8]))
    for r in g.nodes:
        assert joined.to_target(r) == fresh.to_target(r)
        assert joined.from_source(r) == fresh.from_source(r)
    # an equal base that is another field, no base, a link weighed otherwise
    elsewhere = ShortestPathField(g, w, set(entry._w), ShortestPathField(g, w, set(ids[:4])))
    reweighed = ShortestPathField(g, {**w, ids[4]: 2}, set(ids[:5]), common)
    for field, other in ((exit, elsewhere), (common, entry), (exit, reweighed)):
        with pytest.raises(ValueError):
            field.joined(other)


def ramp_nodes(field, members):
    """The nodes outside the group that the ramp links of a one-ramp share
    field touch."""
    links = field._g.link_by_id
    return {v for x in field._w.keys() - field._base._w.keys()
            for v in (links[x].src, links[x].dst)} - members


def test_shares_route_as_on_their_two_ramp_field(monkeypatch):
    """Over every chained stream and two 1,000-demand streams on 48 nodes,
    each share the router answers gets the join verdict, waypoints, link
    flows (in insertion order) and segments of route_demand_sfc on a
    freshly joined share field.  A chained share with both endpoints
    outside its group routes on its cached fields exactly when its ramps
    share no node outside the group; both kinds occur."""
    share_router = orbit._share_router
    kinds = {"cached": 0, "met": 0}

    def checking(state, i, d):
        routed = share_router(state, i, d)
        fresh = orbit._share_field(state, i, d)
        joins = fresh is not None and fresh.dist(d.src, d.dst) != math.inf
        assert (routed is not None) == joins
        members = state.part.parts[i].nodes
        if d.chain and fresh is not None and d.src not in members and d.dst not in members:
            entry = state._subgraphs[(i, d.src, None)]
            exit = state._subgraphs[(i, None, d.dst)]
            met = bool(ramp_nodes(entry, members) & ramp_nodes(exit, members))
            assert isinstance(routed, orbit._ChainedShare) == (joins and not met)
            kinds["met" if met else "cached"] += 1
        else:
            assert not isinstance(routed, orbit._ChainedShare)
        if joins:
            hosts = eligible_partitions(d, state.part, state.g, state.residual_node)[i]
            got = route_demand_sfc(state.g, routed, d, allowed_hosts=hosts)
            want = route_demand_sfc(state.g, fresh, d, allowed_hosts=hosts)
            assert got == want
            if got is not None:
                assert got.segments == want.segments
                assert list(got.link_flow.items()) == list(want.link_flow.items())
        return routed

    monkeypatch.setattr(orbit, "_share_router", checking)
    for g, demands, part in chained_streams():
        run_stream(g, demands, part)
    for seed in sorted(LONG_CHAINED_SHA256):
        g, demands = long_chained_stream(seed)
        run_stream(g, demands, partition(g, 4, 1.5))
    assert kinds["cached"] > 1000 and kinds["met"] > 10


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ramps_hold_no_member_but_their_end(data):
    """Over possibly disconnected graphs, the entry ramp from a node outside
    a group leaves no member and enters only the group's closest member
    from it; the exit ramp to it enters no member and leaves only the
    closest member to it."""
    n = data.draw(st.integers(2, 8))
    names = [f"v{i}" for i in range(n)]
    arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    links = tuple(Link(f"e{k}", names[i], names[j], 1.0) for k, (i, j) in enumerate(arcs) if i != j)
    g = NfviGraph({v: 1.0 for v in names}, links)
    w = {e.id: data.draw(st.integers(1, 3)) for e in links}
    members = frozenset(data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True)))
    inner = tuple(e.id for e in links if e.src in members and e.dst in members)
    state = OrbitState(g, Partitioning((Partition(0, members, inner, 1.0),), 1, 1.0, 0, n), w)
    field = shortest_path_field(g, w)
    for v in sorted(set(names) - members):
        for entry in (True, False):
            ramp = orbit._ramp(state, 0, v, entry)
            dist = {u: field.dist(v, u) if entry else field.dist(u, v) for u in members}
            if ramp is None:
                assert set(dist.values()) == {math.inf}
                continue
            closest = min((du, u) for u, du in dist.items())[1]
            ends = [(e.src, e.dst) if entry else (e.dst, e.src) for e in map(g.link_by_id.get, ramp)]
            assert ends and not members & {near for near, _ in ends}
            assert members & {far for _, far in ends} == {closest}


def test_raising_sweeps_follow_the_docstring_rule():
    """After every chained stream, fractions, duals, per-demand sweep counts
    and the sweep trace equal, bit for bit, those of the module docstring's
    rule applied one sweep at a time over the eligible groups the run
    recorded."""
    sweeps = 0
    for g, demands, part in chained_streams():
        state = run_stream(g, demands, part)
        eps = part.epsilon
        z = [0.0] * part.kappa
        p_o, d_o, zeta, trace = 0.0, 0, {}, []
        for d in demands:
            q = state.demand_q[d.id]
            zeta[d.id] = 0
            while q and sum(z[i] for i in q) < 1.0:
                d_p = 0.0
                for i in q:
                    pi = part.parts[i].pi
                    old = z[i]
                    z[i] = z[i] * (1.0 + 1.0 / (pi * eps)) + 1.0 / (pi * len(q))
                    d_p += pi * (z[i] - old)
                zeta[d.id] += 1
                p_o += d_p
                d_o += 1
                trace.append((d.id, d_p, 1))
        assert state.z == z and state.p_o == p_o and state.d_o == d_o
        assert state.zeta == zeta and state.trace == trace
        sweeps += d_o
    assert sweeps > 100


def ramp_from_scratch(g, w, v, members, entry):
    """Links on some shortest path from v to its closest member (entry) or
    from the closest member to v, ties by id, read off distance sums of a
    fresh field; empty for a member, None when no member is reachable."""
    if v in members:
        return set()
    field = shortest_path_field(g, w)
    dist = {u: field.dist(v, u) if entry else field.dist(u, v) for u in members}
    reach = [(du, u) for u, du in dist.items() if du != math.inf]
    if not reach:
        return None
    a, b = (v, min(reach)[1]) if entry else (min(reach)[1], v)
    total = field.dist(a, b)
    return {e.id for e in g.links if field.dist(a, e.src) + w[e.id] + field.dist(e.dst, b) == total}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_share_field_masks_the_group_links_and_both_ramps(data):
    """Over possibly disconnected graphs with groups of two or more members,
    each share field allows exactly the group's links and both ramps as
    computed from scratch, or is None when a ramp does not exist; the
    share-field cache stays within its bound."""
    n = data.draw(st.integers(2, 8))
    names = [f"v{i}" for i in range(n)]
    arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    links = tuple(Link(f"e{k}", names[i], names[j], 1.0) for k, (i, j) in enumerate(arcs) if i != j)
    g = NfviGraph({v: 1.0 for v in names}, links)
    w = {e.id: data.draw(st.integers(1, 3)) for e in links}
    kappa = data.draw(st.integers(1, n // 2))
    groups = [{names[2 * i], names[2 * i + 1]} for i in range(kappa)]
    for v in names[2 * kappa:]:
        groups[data.draw(st.integers(0, kappa - 1))].add(v)
    parts = tuple(
        Partition(i, frozenset(m), tuple(e.id for e in links if e.src in m and e.dst in m), 1.0)
        for i, m in enumerate(groups)
    )
    state = OrbitState(g, Partitioning(parts, kappa, 1.0, 0, float(n)), w)
    for k in range(data.draw(st.integers(1, 12))):
        src, dst = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        i = data.draw(st.integers(0, kappa - 1))
        field = orbit._share_field(state, i, ServiceDemand(k, src, dst, 1.0))
        ramps = [ramp_from_scratch(g, w, src, groups[i], True),
                 ramp_from_scratch(g, w, dst, groups[i], False)]
        if None in ramps:
            assert field is None
        else:
            assert set(field._w) == set(parts[i].link_ids).union(*ramps)
    assert_share_cache_bounded(state)


HASH_SEED_PROBE = """
import hashlib
from orbitlb import dataset_path
from orbitlb.fileio import load_demands, load_topology
from orbitlb.orbit import run_stream
from orbitlb.partition import partition

g = load_topology(dataset_path("geant.topo"))
demands = list(load_demands(dataset_path("geant.demands"), g))
for kappa, epsilon in ((2, 1.0), (3, 1.5)):
    print(run_stream(g, demands, partition(g, kappa, epsilon)).events_csv())
"""


def test_events_do_not_depend_on_hash_seed():
    # share fields are masked to hash-ordered link sets; set iteration
    # order changes with PYTHONHASHSEED
    src = os.path.dirname(os.path.dirname(os.path.abspath(orbitlb.__file__)))
    outputs = set()
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
    assert ",accepted," in run.stdout and ",rejected,capacity," in run.stdout


def split_group_instance() -> tuple[NfviGraph, Partitioning]:
    """Group 1's internal links form two components, {b1, b2} and {b3, b4},
    joined only through group 0's nodes a1 and a2.  Only group 1 hosts dpi
    and no node hosts ids."""
    pairs = [("a1", "a2"), ("b1", "b2"), ("b3", "b4"),
             ("a1", "b1"), ("a1", "b2"), ("a2", "b3"), ("a2", "b4")]
    links = tuple(Link(f"{u}_{v}", u, v, 4.0) for a, b in pairs for u, v in ((a, b), (b, a)))
    hosts = [("a2", "fw"), ("b2", "fw"), ("b4", "fw"), ("a1", "nat"), ("b3", "nat"), ("b1", "dpi")]
    g = NfviGraph({v: 3.0 for v in ("a1", "a2", "b1", "b2", "b3", "b4")}, links,
                  frozenset({"fw", "nat", "dpi", "ids"}), hosts, {h: 0.5 for h in hosts})
    parts = (
        Partition(0, frozenset({"a1", "a2"}), ("a1_a2", "a2_a1"), 1.0),
        Partition(1, frozenset({"b1", "b2", "b3", "b4"}),
                  ("b1_b2", "b2_b1", "b3_b4", "b4_b3"), 3.0),
    )
    return g, Partitioning(parts, kappa=2, epsilon=1.0, seed=0, size_bound=4.0)


def test_verify_reports_the_split_group():
    g, part = split_group_instance()
    assert part.verify(g) == ["group 1 internal links leave its 4 nodes in 2 pieces"]


def parent_process_demand(state, d, cut):
    """``process_demand`` as it was before the reachability pre-check: every
    share is routed in group order until one has no route.  ``cut`` maps the
    demand to the eligible groups whose share field cannot join its
    endpoints."""
    hosts = eligible_partitions(d, state.part, state.g, state.residual_node)
    q_ids = state.demand_q[d.id] = tuple(hosts)
    state.zeta[d.id] = 0
    eps = state.part.epsilon
    while q_ids and sum(state.z[i] for i in q_ids) < 1.0:
        d_p = 0.0
        for i in q_ids:
            pi = state.part.parts[i].pi
            old = state.z[i]
            new = old * (1.0 + 1.0 / (pi * eps)) + 1.0 / (pi * len(q_ids))
            state.z[i] = new
            d_p += pi * (new - old)
        state.zeta[d.id] += 1
        state.p_o += d_p
        state.d_o += 1
        state.trace.append((d.id, d_p, 1))
    total_z = sum((state.z[i] for i in q_ids), 0.0)
    shares = {i: d.volume * state.z[i] / total_z for i in q_ids}
    cut[d.id] = set()
    for i in q_ids:
        field = orbit._share_field(state, i, d)
        if field is None or field.dist(d.src, d.dst) == math.inf:
            cut[d.id].add(i)
    link_delta: dict[str, float] = {}
    node_delta: dict[str, float] = {}
    reason = "" if q_ids else "no_eligible_partition"
    for i in q_ids:
        if shares[i] == 0:
            alloc = FlowAllocation(d.id, (d.src, d.dst), d.chain, {})
        else:
            field = orbit._share_field(state, i, d)
            alloc = None if field is None else route_demand_sfc(
                state.g, field, d, amount=shares[i], allowed_hosts=hosts[i])
        if alloc is None:
            reason = "capacity"
            break
        for eid, val in alloc.link_flow.items():
            link_delta[eid] = link_delta.get(eid, 0.0) + val
        for v, val in _alloc_node_usage(alloc, state.g).items():
            node_delta[v] = node_delta.get(v, 0.0) + val
    if not reason and not state.loads.fits(link_delta, node_delta):
        reason = "capacity"
    accepted = not reason
    if accepted:
        state.loads.add(link_delta, node_delta)
        state.accepted_count += 1
    else:
        link_delta = {}
    state.events.append(orbit.EventRecord(
        d.id, "accepted" if accepted else "rejected", reason, total_z, state.p_o,
        state.d_o, state.loads.r, state.acceptance_ratio(),
    ))
    return orbit.AdmissionDecision(d.id, accepted, reason, shares, link_delta)


def test_unjoinable_share_field_rejects_before_any_share_is_routed(monkeypatch):
    """A share whose field cannot join the demand's endpoints rejects the
    demand before any share is routed, with the decisions, event log and
    loads of routing every share in group order."""
    g, part = split_group_instance()
    rng = random.Random(5)
    names = sorted(g.nodes)
    chains = ((), ("fw",), ("nat",), ("fw", "nat"), ("dpi",), ("ids",))
    demands = [
        ServiceDemand(k, *rng.sample(names, 2), rng.choice((0.0, 0.25, 0.5, 1.0)),
                      rng.choice(chains))
        for k in range(200)
    ]
    routed, decisions = [], {}

    def recording(g, field, d, **kwargs):
        routed.append(d.id)
        return route_demand_sfc(g, field, d, **kwargs)

    monkeypatch.setattr(orbit, "route_demand_sfc", recording)
    state, reference = OrbitState(g, part), OrbitState(g, part)
    cut: dict[int, set[int]] = {}
    for d in demands:
        decisions[d.id] = process_demand(state, d)
        assert decisions[d.id] == parent_process_demand(reference, d, cut)
    assert state.events_csv() == reference.events_csv()
    assert state.chi == reference.chi and state.residual_node == reference.residual_node

    blocked = {k for k, groups in cut.items() if any(decisions[k].shares[i] for i in groups)}
    assert blocked and not blocked & set(routed)
    zero_cut = [d.id for d in demands if d.volume == 0 and cut[d.id]]
    assert zero_cut and all(decisions[k].accepted for k in zero_cut)
    reasons = [ev.reason for ev in state.events]
    assert reasons.count("") > 20 and reasons.count("capacity") > len(blocked)
    assert "no_eligible_partition" in reasons
    assert any(d.chain and decisions[d.id].accepted for d in demands)
