"""Shortest-path fields, equal-split routing, and utilization accounting."""

from __future__ import annotations

import gc
import math
import random
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitlb import dataset_path, orbit, routing
from orbitlb.errors import ValidationError
from orbitlb.fileio import format_number, load_demands, load_topology
from orbitlb.model import DemandStream, Link, NfviGraph, ServiceDemand
from orbitlb.oracle import exact_oracle
from orbitlb.orbit import OrbitState, run_stream
from orbitlb.partition import Partition, Partitioning
from orbitlb.routing import (
    RATE_TOL,
    FlowAllocation,
    ShortestPathField,
    UtilizationReport,
    _alloc_node_usage,
    _reached,
    _split_segment,
    capacity_slack,
    ecmp_dag,
    max_link_utilization,
    route_all,
    route_demand_sfc,
    route_stream,
    select_waypoints,
    shortest_path_field,
    unit_weights,
    validate_weights,
)
from tests.conftest import chain_graph, random_chained_instance, random_connected_graph

INF = float("inf")


def fan_graph(width: int) -> NfviGraph:
    """s -> m_i -> t over `width` parallel two-hop paths of equal length."""
    nodes = {"s": 0.0, "t": 0.0}
    links = []
    for i in range(width):
        m = f"m{i}"
        nodes[m] = 0.0
        links.append(Link(f"in{i}", "s", m, 100.0))
        links.append(Link(f"out{i}", m, "t", 100.0))
    return NfviGraph(nodes, tuple(links), frozenset(), {}, {})


def test_unit_weights_cover_all_links(diamond):
    w = unit_weights(diamond)
    assert set(w) == {"e_sa", "e_at", "e_sb", "e_bt"}
    assert set(w.values()) == {1}


def test_validate_weights_rejects_fractional_and_missing(diamond):
    w = unit_weights(diamond)
    with pytest.raises(ValidationError):
        validate_weights(diamond, {**w, "e_sa": 0})
    with pytest.raises(ValidationError):
        validate_weights(diamond, {k: v for k, v in w.items() if k != "e_bt"})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "x"])
def test_validate_weights_reports_values_that_are_not_integers(diamond, bad):
    w = unit_weights(diamond)
    with pytest.raises(ValidationError) as exc:
        validate_weights(diamond, {**w, "e_sa": bad})
    assert exc.value.violations == [f"weight of link e_sa must be an integer >= 1, got {bad!r}"]
    # every bad link is named in the one error
    with pytest.raises(ValidationError) as exc:
        validate_weights(diamond, {**w, "e_sa": bad, "e_bt": bad})
    assert [p.split()[3] for p in exc.value.violations] == ["e_sa", "e_bt"]


def test_weights_above_the_exact_bound_rejected():
    # with weights of 1e308 the sums along v0 -> v3 overflowed to inf, and
    # route_demand_sfc rejected a demand whose path exists
    g = chain_graph([5.0, 5.0, 5.0])
    limit = 2**53 // 3
    with pytest.raises(ValidationError) as exc:
        shortest_path_field(g, {e.id: 1e308 for e in g.links})
    assert exc.value.violations == [
        f"weight of link {e.id} must be at most {limit} so path lengths stay exact, got 1e+308"
        for e in g.links
    ]
    with pytest.raises(ValidationError, match="at most"):
        validate_weights(g, {"p0": 1, "p1": limit + 1, "p2": 1})
    # at the bound every sum is exact, and the demand is routed
    field = shortest_path_field(g, {e.id: float(limit) for e in g.links})
    assert field.to_target("v3") == {"v3": 0, "v2": limit, "v1": 2 * limit, "v0": 3 * limit}
    alloc = route_demand_sfc(g, field, ServiceDemand(0, "v0", "v3", 1.0, ()))
    assert alloc is not None and alloc.link_flow == {"p0": 1.0, "p1": 1.0, "p2": 1.0}


def test_shortest_distances_on_diamond(diamond):
    w = {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}
    field = shortest_path_field(diamond, w)
    assert field.dist("s", "t") == 2.0
    assert field.dist("b", "t") == 2.0
    assert field.dist("t", "t") == 0.0
    assert field.dist("t", "s") == INF


def test_dag_keeps_only_tight_links(diamond):
    w = {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}
    dag = ecmp_dag(diamond, w)
    by_id = {e.id: e for e in diamond.links}
    assert dag.on_shortest(by_id["e_sa"], "t")
    assert dag.on_shortest(by_id["e_at"], "t")
    assert not dag.on_shortest(by_id["e_sb"], "t")  # 1 + 2 > 2
    assert dag.on_shortest(by_id["e_bt"], "t")


def test_field_answers_unknown_target_with_key_error(diamond):
    field = shortest_path_field(diamond, unit_weights(diamond))
    with pytest.raises(KeyError):
        field.dist("s", "nowhere")
    with pytest.raises(KeyError):
        field.out_links("s", "nowhere")


def test_from_source_answers_unknown_source_with_key_error(diamond):
    field = shortest_path_field(diamond, unit_weights(diamond))
    with pytest.raises(KeyError):
        field.from_source("nowhere")


@st.composite
def weighted_digraphs(draw) -> tuple[NfviGraph, dict[str, int]]:
    """Random directed graphs, possibly disconnected, weights 1..5."""
    n = draw(st.integers(1, 7))
    names = [f"v{i}" for i in range(n)]
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    links = tuple(
        Link(f"e{k}", names[i], names[j], 1.0) for k, (i, j) in enumerate(arcs) if i != j
    )
    w = {e.id: draw(st.integers(1, 5)) for e in links}
    return NfviGraph({v: 0.0 for v in names}, links, frozenset(), {}, {}), w


@settings(max_examples=150, deadline=None)
@given(weighted_digraphs())
def test_forward_distances_equal_reverse_distances(gw):
    g, w = gw
    field = shortest_path_field(g, w)
    for s in g.nodes:
        from_s = field.from_source(s)
        assert set(from_s) == {v for v in g.nodes if field.dist(s, v) != INF}
        for v in g.nodes:
            assert from_s.get(v, INF) == field.dist(s, v)
    for t in g.nodes:
        dist = field.to_target(t)
        for a in g.nodes:
            if field.dist(a, t) == INF:
                continue
            # v is reachable from a over tight links toward t exactly when
            # it lies on a shortest a-t path
            from_a = field.from_source(a)
            on_path = {
                v for v in g.nodes if from_a.get(v, INF) + dist.get(v, INF) == dist[a]
            } - {t}
            nodes = _reached(field, a, t)
            assert set(nodes) == on_path and len(nodes) == len(on_path)
            assert list(nodes) == sorted(nodes, key=lambda v: (-dist[v], v))


@settings(max_examples=150, deadline=None)
@given(weighted_digraphs(), st.data())
def test_masked_field_matches_the_restricted_subgraph(gw, data):
    g, w = gw
    links = data.draw(st.sets(st.sampled_from(g.link_ids))) if g.links else set()
    sub = g.restricted(links)
    masked = ShortestPathField(g, w, links)
    ref = ShortestPathField(sub, w)
    outside = [v for v in g.nodes if v not in sub.node_capacity]
    for t in sub.nodes:
        to_t = masked.to_target(t)
        assert {v: masked.dist(v, t) for v in sub.nodes} == {v: ref.dist(v, t) for v in sub.nodes}
        assert all(v not in to_t for v in outside)
        assert all(masked.dist(v, t) == INF for v in outside)
        for a in sub.nodes:
            if masked.dist(a, t) != INF:
                assert _reached(masked, a, t) == _reached(ref, a, t)
        for v in sub.nodes:
            assert masked.out_links(v, t) == ref.out_links(v, t)
    for s in sub.nodes:
        from_s, ref_s = masked.from_source(s), ref.from_source(s)
        assert {v: from_s.get(v, INF) for v in sub.nodes} == {
            v: ref_s.get(v, INF) for v in sub.nodes
        }
        assert all(v not in from_s for v in outside)
        assert all(masked.dist(s, v) == INF for v in outside)
    for v in outside:
        # a node no allowed link touches reaches only itself
        assert masked.to_target(v) == masked.from_source(v) == {v: 0}


def test_unknown_node_raises_while_an_unreached_node_reads_inf(diamond):
    """A fill is a plain dict of the nodes it reached, also when copied
    from a base's fill.  A graph node it did not reach is no key, and
    ``dist`` reads it as math.inf; a key that is no node raises KeyError,
    from the fill and from ``dist``."""
    w = unit_weights(diamond)
    masked = ShortestPathField(diamond, w, {"e_sa", "e_at"})
    # e_sb shortens s -> b, so extended's fill from s is a copy of masked's
    extended = masked.extended(w, ["e_sb"])
    fills = (masked.to_target("t"), masked.from_source("s"), extended.from_source("s"))
    assert [sorted(fill) for fill in fills] == [["a", "s", "t"], ["a", "s", "t"], ["a", "b", "s", "t"]]
    assert all(type(fill) is dict for fill in fills)
    for fill in fills:
        with pytest.raises(KeyError):
            fill["nowhere"]
    assert "b" not in fills[0] and "b" not in fills[1]
    assert masked.dist("b", "t") == masked.dist("s", "b") == INF
    for field in (masked, extended):
        with pytest.raises(KeyError):
            field.dist("nowhere", "t")


def reached_by_search(g, links, root, forward):
    """The nodes root reaches (``forward``) or that reach root over the
    allowed links, by a plain graph search that reads no weight."""
    adjacent = g.out_links if forward else g.in_links
    seen, stack = {root}, [root]
    while stack:
        for e in adjacent[stack.pop()]:
            u = e.dst if forward else e.src
            if (links is None or e.id in links) and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


@settings(max_examples=200, deadline=None)
@given(weighted_digraphs(), st.data())
def test_fills_hold_exactly_the_nodes_they_reach(gw, data):
    """Every fill of a masked field, and of a field extended from it,
    whether the base filled its roots before or after, has as keys exactly
    the nodes at finite distance, so no fill holds math.inf, and every fill
    is a plain dict."""
    g, w = gw
    b = data.draw(st.none() | st.sets(st.sampled_from(g.link_ids))) if g.links else None
    in_b = sorted(g.link_ids if b is None else b)
    a = data.draw(st.sets(st.sampled_from(in_b))) if in_b else set()
    base = ShortestPathField(g, w, a)
    for r in data.draw(st.sets(st.sampled_from(g.nodes))):
        base.to_target(r), base.from_source(r)
    field = base.extended(w, in_b)
    for r in data.draw(st.permutations(g.nodes)):
        for f, links in ((field, b), (base, a)):
            to_r, from_r = f.to_target(r), f.from_source(r)
            assert set(to_r) == reached_by_search(g, links, r, False)
            assert set(from_r) == reached_by_search(g, links, r, True)
            assert INF not in to_r.values() and INF not in from_r.values()
            for fill in (to_r, from_r):
                assert type(fill) is dict


def test_base_must_be_a_weighted_subset_of_the_same_graph(diamond):
    """An extended field keeps its base's weights on the links they share."""
    w = unit_weights(diamond)
    base = ShortestPathField(diamond, w, {"e_sa", "e_at"})
    field = base.extended({**w, "e_at": 2, "e_bt": 3}, ["e_at", "e_sb", "e_bt"])
    assert field._w == {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 3}


@settings(max_examples=200, deadline=None)
@given(weighted_digraphs(), st.data())
def test_field_over_a_base_answers_as_a_fresh_field(gw, data):
    """A field over links A extended by links B, A a subset of B, answers
    every target, source and tight list as a fresh field over B, whether
    the base filled its roots before or after; the base's answers do not
    change, and with A = B every fill is the base's own dict."""
    g, w = gw
    b = data.draw(st.none() | st.sets(st.sampled_from(g.link_ids))) if g.links else None
    in_b = sorted(g.link_ids if b is None else b)
    subset = data.draw(st.sets(st.sampled_from(in_b))) if in_b else set()
    a = data.draw(st.sampled_from([b, subset]))
    base = ShortestPathField(g, w, a)
    filled_first = data.draw(st.sets(st.sampled_from(g.nodes)))
    for r in filled_first:
        base.to_target(r), base.from_source(r)
    field = base.extended(w, in_b)
    fresh, fresh_base = ShortestPathField(g, w, b), ShortestPathField(g, w, a)
    for r in data.draw(st.permutations(g.nodes)):
        assert field.to_target(r) == fresh.to_target(r)
        assert field.from_source(r) == fresh.from_source(r)
        for v in g.nodes:
            assert field.out_links(v, r) == fresh.out_links(v, r)
    for r in g.nodes:
        assert base.to_target(r) == fresh_base.to_target(r)
        assert base.from_source(r) == fresh_base.from_source(r)
        for v in g.nodes:
            assert base.out_links(v, r) == fresh_base.out_links(v, r)
        if a == b:
            assert field.to_target(r) is base.to_target(r)
            assert field.from_source(r) is base.from_source(r)


def eager_tight_lists(g, w, links, t):
    """Every node's tight out-links toward t from one declaration-order
    scan of the allowed links, as the lists were built before they were
    built on first ask."""
    dist = ShortestPathField(g, w, links).to_target(t)
    out = {v: [] for v in g.nodes}
    for e in g.links:
        if (links is None or e.id in links) and dist.get(e.src, INF) != INF:
            if dist[e.src] == w[e.id] + dist.get(e.dst, INF):
                out[e.src].append(e)
    return out


@settings(max_examples=150, deadline=None)
@given(weighted_digraphs(), st.data())
def test_lists_built_on_first_ask_equal_an_eager_scan(gw, data):
    """Asked in any order, each node's tight list toward each target is the
    declaration-order scan of the allowed, tight links at finite distance,
    and asking again gives the same list."""
    g, w = gw
    links = data.draw(st.none() | st.sets(st.sampled_from(g.link_ids))) if g.links else None
    field = ShortestPathField(g, w, links)
    pairs = data.draw(st.permutations([(v, t) for t in g.nodes for v in g.nodes]))
    want = {t: eager_tight_lists(g, w, links, t) for t in g.nodes}
    for v, t in pairs:
        assert field.out_links(v, t) == want[t][v]
    for v, t in pairs:
        assert field.out_links(v, t) == want[t][v]


@settings(max_examples=200, deadline=None)
@given(weighted_digraphs(), st.data())
def test_carry_reports_what_a_full_scan_finds(gw, data):
    """After a random weight change, the moved and relisted nodes _carry
    reports for each carried target equal a scan of every node between two
    fresh fields, and the carried field answers as a fresh one does."""
    g, w = gw
    assume(g.links)
    prev = shortest_path_field(g, w)
    targets = data.draw(st.sets(st.sampled_from(g.nodes)))
    for t in targets:
        # some lists are asked before the carry, some never
        for v in data.draw(st.sets(st.sampled_from(g.nodes))):
            prev.out_links(v, t)
        prev.to_target(t)
    sources = data.draw(st.sets(st.sampled_from(g.nodes)))
    for s in sources:
        prev.from_source(s)
    changes = data.draw(st.dictionaries(st.sampled_from(g.link_ids), st.integers(1, 5), min_size=1))
    w2 = {**w, **changes}
    field = shortest_path_field(g, w2)
    moves = field._carry(prev)
    old, new = shortest_path_field(g, w), shortest_path_field(g, w2)
    assert set(moves.dist) == set(moves.relisted) == targets
    assert set(moves.from_source) == sources
    for t in targets:
        assert moves.dist[t] == {v for v in g.nodes if new.dist(v, t) != old.dist(v, t)}
        assert moves.relisted[t] == {
            v for v in g.nodes if new.out_links(v, t) != old.out_links(v, t)
        }
        assert field.to_target(t) == new.to_target(t)
        for v in g.nodes:
            assert field.out_links(v, t) == new.out_links(v, t)
            assert prev.out_links(v, t) == old.out_links(v, t)
    for s in sources:
        assert moves.from_source[s] == {
            v for v in g.nodes if new.from_source(s).get(v, INF) != old.from_source(s).get(v, INF)
        }
        assert field.from_source(s) == new.from_source(s)


def test_field_keeps_its_own_weights(diamond):
    w = unit_weights(diamond)
    field = shortest_path_field(diamond, w)
    w["e_at"] = 5  # after construction, before any target is filled
    assert field.dist("s", "t") == 2.0
    assert [e.id for e in field.out_links("s", "t")] == ["e_sa", "e_sb"]


def test_ecmp_dag_returns_the_given_field(diamond):
    w = unit_weights(diamond)
    assert isinstance(ecmp_dag(diamond, w), ShortestPathField)


def test_equal_split_on_diamond(diamond):
    dag = ecmp_dag(diamond, unit_weights(diamond))
    alloc = route_demand_sfc(diamond, dag, ServiceDemand(0, "s", "t", 4.0))
    assert alloc.link_flow == {"e_sa": 2.0, "e_at": 2.0, "e_sb": 2.0, "e_bt": 2.0}


def test_single_path_carries_everything():
    g = chain_graph([5.0, 5.0])
    dag = ecmp_dag(g, unit_weights(g))
    alloc = route_demand_sfc(g, dag, ServiceDemand(0, "v0", "v2", 7.0))
    assert alloc.link_flow == {"p0": 7.0, "p1": 7.0}


def test_three_way_fan_splits_equally():
    g = fan_graph(3)
    dag = ecmp_dag(g, unit_weights(g))
    alloc = route_demand_sfc(g, dag, ServiceDemand(0, "s", "t", 9.0))
    assert alloc.link_flow["in0"] == 3.0
    assert alloc.link_flow["out2"] == 3.0
    assert sum(alloc.link_flow.values()) == 18.0


def test_split_rejects_negative_amount(diamond):
    dag = ecmp_dag(diamond, unit_weights(diamond))
    with pytest.raises(ValidationError):
        route_demand_sfc(diamond, dag, ServiceDemand(0, "s", "t", 1.0), amount=-1.0)


def test_split_zero_amount_is_empty(diamond):
    dag = ecmp_dag(diamond, unit_weights(diamond))
    alloc = route_demand_sfc(diamond, dag, ServiceDemand(0, "s", "t", 0.0))
    assert alloc.link_flow == {}


def test_split_unreachable_is_rejected(diamond):
    dag = ecmp_dag(diamond, unit_weights(diamond))
    assert route_demand_sfc(diamond, dag, ServiceDemand(0, "t", "s", 1.0)) is None


def test_flow_conservation_randomized():
    rng = random.Random(101)
    for _ in range(60):
        g = random_connected_graph(rng, max_nodes=8)
        w = {e.id: rng.choice([1, 2, 3]) for e in g.links}
        src, dst = rng.sample(sorted(g.nodes), 2)
        amount = float(rng.randint(1, 9))
        alloc = route_demand_sfc(g, ecmp_dag(g, w), ServiceDemand(0, src, dst, amount))
        for v in g.nodes:
            inflow = sum(alloc.link_flow.get(e.id, 0.0) for e in g.in_links[v])
            outflow = sum(alloc.link_flow.get(e.id, 0.0) for e in g.out_links[v])
            if v == src:
                assert abs(outflow - inflow - amount) <= 1e-9
            elif v == dst:
                assert abs(inflow - outflow - amount) <= 1e-9
            else:
                assert abs(inflow - outflow) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(weighted_digraphs(), st.data())
def test_split_segment_conserves_flow(gw, data):
    g, w = gw
    field = shortest_path_field(g, w)
    entry = data.draw(st.sampled_from(g.nodes))
    reach = field.from_source(entry)
    exits = [v for v in g.nodes if v != entry and reach.get(v, INF) != INF]
    assume(exits)
    exit = data.draw(st.sampled_from(exits))
    amount = data.draw(st.floats(min_value=1e-3, max_value=1e3))
    flow = _split_segment(field, _reached(field, entry, exit), exit, amount, {})
    inflow = {v: 0.0 for v in g.nodes}
    outflow = {v: 0.0 for v in g.nodes}
    for eid, val in flow.items():
        e = g.link_by_id[eid]
        outflow[e.src] += val
        inflow[e.dst] += val
    assert abs(outflow[entry] - amount) <= RATE_TOL
    assert abs(inflow[exit] - amount) <= RATE_TOL
    for v in g.nodes:
        if v not in (entry, exit):
            assert abs(inflow[v] - outflow[v]) <= RATE_TOL


def split_by_order(field, entry, exit, amount):
    """The split as it was when every node at finite distance to exit was
    visited, farthest first, ties by id, whether it held flow or not."""
    dist = field.to_target(exit)
    order = sorted((v for v, dv in dist.items() if dv != INF), key=lambda v: (-dist[v], v))
    inflow = {entry: amount}
    link_flow = {}
    for v in order:
        flow_in = inflow.get(v, 0.0)
        if v == exit or flow_in <= 0.0:
            continue
        outs = field.out_links(v, exit)
        share = flow_in / len(outs)
        for e in outs:
            link_flow[e.id] = link_flow.get(e.id, 0.0) + share
            inflow[e.dst] = inflow.get(e.dst, 0.0) + share
    return link_flow


@settings(max_examples=150, deadline=None)
@given(weighted_digraphs(), st.data())
def test_split_repeats_the_order_based_split(gw, data):
    """Walking only the reached nodes gives the same flows, keys in the same
    insertion order and floats bit for bit, on plain and masked fields.  A
    routed demand keeps each segment's walk on its allocation, which
    compares equal to one built without them."""
    g, w = gw
    links = data.draw(st.sets(st.sampled_from(g.link_ids))) if g.links else set()
    hosts = data.draw(st.sets(st.sampled_from(g.nodes)))
    g = NfviGraph(g.node_capacity, g.links, ("fw",), [(v, "fw") for v in hosts])
    amount = data.draw(st.floats(min_value=1e-300, max_value=1e300))
    for field in (shortest_path_field(g, w), ShortestPathField(g, w, links)):
        for entry in g.nodes:
            for exit in g.nodes:
                if field.dist(entry, exit) != INF:
                    flow = _split_segment(field, _reached(field, entry, exit), exit, amount, {})
                    assert list(flow.items()) == list(split_by_order(field, entry, exit, amount).items())
                if entry == exit:
                    continue
                for chain in ((), ("fw",)):
                    zero = route_demand_sfc(g, field, ServiceDemand(0, entry, exit, 0.0, chain))
                    assert zero.segments == ()
                    alloc = route_demand_sfc(g, field, ServiceDemand(0, entry, exit, amount, chain))
                    if alloc is None:
                        continue
                    wp = alloc.waypoints
                    assert alloc.segments == tuple(
                        (b, _reached(field, a, b)) for a, b in zip(wp, wp[1:]) if a != b
                    )
                    assert FlowAllocation(0, wp, chain, dict(alloc.link_flow)) == alloc


@settings(max_examples=150, deadline=None)
@given(weighted_digraphs(), st.data())
def test_share_field_ramps_are_the_unit_split_links(gw, data):
    """A one-member group's share field for a demand src -> dst holds the
    links a unit of flow uses from src to the member and on to dst."""
    g, w = gw
    field = shortest_path_field(g, w)
    src = data.draw(st.sampled_from(g.nodes))
    from_src = field.from_source(src)
    member = data.draw(st.sampled_from([v for v in g.nodes if from_src.get(v, INF) != INF]))
    from_member = field.from_source(member)
    dsts = [v for v in g.nodes if v != src and from_member.get(v, INF) != INF]
    assume(dsts)
    dst = data.draw(st.sampled_from(dsts))
    part = Partitioning((Partition(0, frozenset({member}), (), 1.0),), 1, 1.0, 0, 1.0)
    masked = orbit._share_field(OrbitState(g, part, w), 0, ServiceDemand(0, src, dst, 1.0))
    ramps = set()
    for a, b in ((src, member), (member, dst)):
        if a != b:
            ramps.update(split_by_order(field, a, b, 1.0))
    assert set(masked._w) == ramps


def test_split_scales_linearly():
    rng = random.Random(7)
    g = random_connected_graph(rng, max_nodes=7)
    w = {e.id: rng.choice([1, 2, 3]) for e in g.links}
    dag = ecmp_dag(g, w)
    src, dst = sorted(g.nodes)[:2]
    one = route_demand_sfc(g, dag, ServiceDemand(0, src, dst, 3.0))
    two = route_demand_sfc(g, dag, ServiceDemand(0, src, dst, 6.0))
    assert set(one.link_flow) == set(two.link_flow)
    for eid, val in one.link_flow.items():
        assert abs(two.link_flow[eid] - 2.0 * val) <= 1e-9


def test_dag_invariant_under_weight_scaling():
    rng = random.Random(13)
    g = random_connected_graph(rng, max_nodes=8)
    w = {e.id: rng.choice([1, 2, 3]) for e in g.links}
    doubled = {eid: 2 * val for eid, val in w.items()}
    d1 = ecmp_dag(g, w)
    d2 = ecmp_dag(g, doubled)
    for t in g.nodes:
        for e in g.links:
            assert d1.on_shortest(e, t) == d2.on_shortest(e, t)


def test_off_dag_links_carry_no_flow(diamond):
    w = {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}
    alloc = route_demand_sfc(diamond, ecmp_dag(diamond, w), ServiceDemand(0, "s", "t", 8.0))
    assert alloc.link_flow.get("e_sb", 0.0) == 0.0
    assert alloc.link_flow["e_sa"] == 8.0


def host_graph() -> NfviGraph:
    """Line a -> b -> c -> d with fw hosted at b and c."""
    nodes = {"a": 10.0, "b": 10.0, "c": 10.0, "d": 10.0}
    links = (
        Link("ab", "a", "b", 50.0),
        Link("bc", "b", "c", 50.0),
        Link("cd", "c", "d", 50.0),
    )
    return NfviGraph(
        nodes, links, frozenset({"fw"}), {("b", "fw"), ("c", "fw")}, {("b", "fw"): 2.0}
    )


def test_waypoints_pick_smallest_detour_then_id():
    g = host_graph()
    field = shortest_path_field(g, unit_weights(g))
    d = ServiceDemand(0, "a", "d", 1.0, ("fw",))
    # both hosts lie on the path (equal detour); tie broken by node id
    assert select_waypoints(g, field, d) == ("a", "b", "d")


def test_waypoints_respect_allowed_hosts():
    g = host_graph()
    field = shortest_path_field(g, unit_weights(g))
    d = ServiceDemand(0, "a", "d", 1.0, ("fw",))
    assert select_waypoints(g, field, d, allowed_hosts={"c"}) == ("a", "c", "d")
    assert select_waypoints(g, field, d, allowed_hosts=set()) is None


def test_waypoints_use_distances_in_travel_direction():
    """Asymmetric weights: scoring a host by dist(host, prev) or by
    dist(dst, host) would pick y; the travel direction picks x."""
    nodes = {v: 10.0 for v in ("s", "x", "y", "t")}
    arcs = [("s", "x", 1), ("x", "t", 1), ("s", "y", 2), ("y", "t", 2),
            ("x", "s", 4), ("y", "s", 1), ("t", "x", 4), ("t", "y", 1)]
    links = tuple(Link(f"{a}{b}", a, b, 50.0) for a, b, _ in arcs)
    w = {f"{a}{b}": c for a, b, c in arcs}
    g = NfviGraph(nodes, links, frozenset({"fw"}), {("x", "fw"), ("y", "fw")}, {})
    field = shortest_path_field(g, w)
    assert field.dist("s", "x") != field.dist("x", "s")
    assert field.dist("x", "t") != field.dist("t", "x")

    def wrong_pick(score):
        return min(("x", "y"), key=lambda v: (score(v), v))

    assert wrong_pick(lambda v: field.dist(v, "s") + field.dist(v, "t")) == "y"
    assert wrong_pick(lambda v: field.dist("s", v) + field.dist("t", v)) == "y"
    d = ServiceDemand(0, "s", "t", 1.0, ("fw",))
    assert select_waypoints(g, field, d) == ("s", "x", "t")


def record_fills(monkeypatch) -> list[str]:
    """Targets filled from now on, in order, by any field."""
    filled: list[str] = []
    real_fill = ShortestPathField._fill
    monkeypatch.setattr(
        ShortestPathField, "_fill", lambda self, t: filled.append(t) or real_fill(self, t)
    )
    return filled


def test_waypoints_without_allowed_host_touch_no_target(monkeypatch):
    g = host_graph()
    field = shortest_path_field(g, unit_weights(g))
    filled = record_fills(monkeypatch)
    # the destination is not even a node: with no host to score, it is never read
    d = ServiceDemand(0, "a", "nowhere", 1.0, ("fw",))
    assert select_waypoints(g, field, d, allowed_hosts=set()) is None
    assert select_waypoints(g, field, d, allowed_hosts={"a", "d"}) is None
    assert filled == []
    with pytest.raises(KeyError):
        select_waypoints(g, field, d)


def test_chained_route_fills_only_waypoint_targets(monkeypatch):
    """Every node hosts both functions, yet routing one demand makes only its
    destination and its chosen waypoints reverse-Dijkstra targets."""
    base = random_connected_graph(random.Random(5), min_nodes=9, max_nodes=9)
    fns = ("fw", "nat")
    g = NfviGraph(
        dict(base.node_capacity), base.links, fns,
        {(v, f) for v in base.nodes for f in fns}, {},
    )
    rng = random.Random(8)
    w = {e.id: rng.randint(1, 4) for e in g.links}
    filled = record_fills(monkeypatch)
    d = ServiceDemand(0, "n0", "n5", 2.0, fns)
    alloc = route_demand_sfc(g, shortest_path_field(g, w), d)
    assert alloc is not None
    wp = alloc.waypoints
    expected = {b for a, b in zip(wp, wp[1:]) if a != b} | {d.dst}
    assert sorted(filled) == sorted(expected)
    assert len(filled) <= 3 < len(g._hosts["fw"])


def test_route_demand_through_chain_counts_revisited_links():
    g = host_graph()
    d = ServiceDemand(0, "a", "d", 2.0, ("fw",))
    alloc = route_demand_sfc(g, shortest_path_field(g, unit_weights(g)), d)
    assert alloc is not None
    assert alloc.waypoints == ("a", "b", "d")
    assert alloc.link_flow == {"ab": 2.0, "bc": 2.0, "cd": 2.0}


def test_route_demand_zero_volume_trivially_accepts():
    g = host_graph()
    d = ServiceDemand(0, "a", "d", 0.0, ("fw",))
    alloc = route_demand_sfc(g, shortest_path_field(g, unit_weights(g)), d)
    assert alloc is not None
    assert alloc.link_flow == {}


def test_route_demand_without_host_rejects():
    g = host_graph()
    d = ServiceDemand(0, "a", "d", 1.0, ("nat",))
    assert route_demand_sfc(g, shortest_path_field(g, unit_weights(g)), d) is None


def test_utilization_report_on_diamond(diamond):
    w = {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}
    alloc = route_demand_sfc(diamond, ecmp_dag(diamond, w), ServiceDemand(0, "s", "t", 8.0))
    report = max_link_utilization([alloc], diamond)
    assert report.r == 0.8
    per_link = {e.id: report.chi[e.id] / e.capacity for e in diamond.links}
    assert per_link["e_sa"] == 0.8
    assert all(u <= 1.0 + RATE_TOL for u in per_link.values())


def test_node_usage_counts_capable_nodes_by_inflow():
    g = host_graph()
    d = ServiceDemand(0, "a", "d", 2.0, ("fw",))
    alloc = route_demand_sfc(g, shortest_path_field(g, unit_weights(g)), d)
    report = max_link_utilization([alloc], g)
    # both hosts see inflow 2; only b prices fw (cost 2), c is free
    assert report.node_usage["b"] == 4.0
    assert report.node_usage["c"] == 0.0
    assert report.over_capacity_nodes(g) == []


def full_scan_node_usage(alloc, g: NfviGraph) -> dict[str, float]:
    """Node usage summed at every capable node, inflow or not."""
    usage: dict[str, float] = {}
    for fn in alloc.chain:
        for v in g._hosts.get(fn, ()):
            inflow = sum(alloc.link_flow.get(e.id, 0.0) for e in g.in_links.get(v, ()))
            usage[v] = usage.get(v, 0.0) + g.cost(v, fn) * inflow
    return usage


def test_node_usage_at_link_heads_equals_a_full_scan():
    rng = random.Random(41)
    compared = 0
    for _ in range(60):
        g, demands = random_chained_instance(rng)
        w = {e.id: rng.choice([1, 2, 3]) for e in g.links}
        field = shortest_path_field(g, w)
        allocs = []
        for d in demands:
            # repeated functions too: a node may host several positions
            chain = tuple(rng.choice(g.vnf_catalog) for _ in range(rng.randint(0, 3)))
            d = ServiceDemand(d.id, d.src, d.dst, rng.choice([1.0, 2.7, 0.3]), chain)
            allocs.append(route_demand_sfc(g, field, d))
            # and arbitrary fractional flows, where inflow sums are inexact
            flows = {e.id: rng.choice([0.1, 0.2, 0.3, 0.7]) for e in g.links if rng.random() < 0.6}
            allocs.append(FlowAllocation(d.id, (d.src, d.dst), chain, flows))
        for alloc in allocs:
            if alloc is None:
                continue
            got = _alloc_node_usage(alloc, g)
            ref = full_scan_node_usage(alloc, g)
            assert set(got) <= set(ref)
            assert {v: x for v, x in got.items() if x} == {v: x for v, x in ref.items() if x}
            compared += bool(got)
    assert compared > 300


def test_stream_reports_equal_a_fresh_summation():
    rng = random.Random(29)
    checked = 0
    for _ in range(80):
        g, demands = random_chained_instance(rng)
        w = {e.id: rng.choice([1, 2, 3]) for e in g.links}
        for result in (route_stream(g, w, demands), route_all(g, w, demands)):
            if result is None:
                continue
            fresh = max_link_utilization(list(result.allocations), g)
            assert result.report.r == fresh.r
            assert result.report.chi == fresh.chi
            assert result.report.node_usage == fresh.node_usage
            checked += 1
    assert checked > 80


def test_route_stream_rejects_over_capacity(diamond):
    demands = [
        ServiceDemand(0, "s", "t", 8.0, ()),
        ServiceDemand(1, "s", "t", 8.0, ()),
    ]
    w = {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}
    result = route_stream(diamond, w, demands)
    assert result.accepted_ids == (0,)
    assert result.rejected_ids == (1,)
    assert result.acceptance_ratio == 0.5


def test_stream_gate_admits_an_exact_fill_of_a_large_link():
    """Three demands fill a capacity-1e8 link: their float sum overshoots by
    1.49e-8, one ulp at that size and more than an absolute 1e-9.  The
    capacity rule's slack is relative, so route_stream admits all three, as
    ORBIT does; a real overload is still rejected."""
    g = NfviGraph({"s": 1.0, "t": 1.0}, (Link("st", "s", "t", 1e8),))
    volumes = [25234342.79086951, 14091892.21998519, 60673764.98914531, 1.0]
    demands = [ServiceDemand(i, "s", "t", vol, ()) for i, vol in enumerate(volumes)]
    assert sum(volumes[:3]) - 1e8 == pytest.approx(1.49e-8, rel=0.01)
    result = route_stream(g, unit_weights(g), demands)
    assert result.accepted_ids == (0, 1, 2)
    assert result.rejected_ids == (3,)
    one_group = Partitioning(
        (Partition(0, frozenset(g.nodes), ("st",), 1.0),),
        kappa=1, epsilon=1.0, seed=0, size_bound=2.0,
    )
    events = run_stream(g, DemandStream(tuple(demands)), one_group).events
    assert [ev.decision for ev in events] == ["accepted"] * 3 + ["rejected"]


@pytest.mark.parametrize("c", [0.5, 1.0, 1e3, 1e8])
def test_stream_orbit_and_oracle_agree_at_the_slack_boundary(c):
    """route_stream, ORBIT and exact_oracle judge one demand on one link of
    capacity c alike: it fits up to c + capacity_slack(c) and no further,
    checked a few ulps either side of that limit."""
    g = NfviGraph({"s": 1.0, "t": 1.0}, (Link("st", "s", "t", c),))
    one_group = Partitioning(
        (Partition(0, frozenset(g.nodes), ("st",), 1.0),),
        kappa=1, epsilon=1.0, seed=0, size_bound=2.0,
    )
    limit = c + capacity_slack(c)
    for steps in range(-3, 4):
        vol = limit
        for _ in range(abs(steps)):
            vol = math.nextafter(vol, INF if steps > 0 else -INF)
        demands = [ServiceDemand(0, "s", "t", vol, ())]
        fits = steps <= 0
        assert (route_stream(g, unit_weights(g), demands).accepted_ids == (0,)) == fits
        events = run_stream(g, DemandStream(tuple(demands)), one_group).events
        assert (events[0].decision == "accepted") == fits
        assert exact_oracle(g, demands, w_max=1).log[0].feasible == fits


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_whole_load_checks_match_fits_on_an_empty_ledger(data):
    """within_capacity and over_capacity_nodes judge a ledger's whole load
    as fits does on an empty ledger of the same graph, on random loads that
    include each limit c + capacity_slack(c) and a few ulps either side."""
    n = data.draw(st.integers(1, 5))
    names = [f"v{k}" for k in range(n)]
    arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    caps = (0.5, 1.0, 3.0, 1e3, 1e8)
    links = tuple(
        Link(f"e{k}", names[a], names[b], data.draw(st.sampled_from(caps)))
        for k, (a, b) in enumerate(arcs) if a != b
    )
    g = NfviGraph({v: data.draw(st.sampled_from((0.0, *caps))) for v in names}, links)

    def load(c):
        limit = c + capacity_slack(c)
        if data.draw(st.booleans()):
            return data.draw(st.floats(0.0, 2.0 * limit))
        steps = data.draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            limit = math.nextafter(limit, INF if steps > 0 else -INF)
        return limit

    report = UtilizationReport(g)
    report.add({e.id: load(e.capacity) for e in links},
               {v: load(c) for v, c in g.node_capacity.items()})
    empty = UtilizationReport(g)
    assert report.within_capacity() == empty.fits(report.chi, report.node_usage)
    assert report.over_capacity_nodes(g) == [
        v for v, used in report.node_usage.items() if not empty.fits({}, {v: used})
    ]
    with pytest.raises(ValueError):
        report.over_capacity_nodes(NfviGraph(dict(g.node_capacity), links))


def test_route_all_ignores_capacity(diamond):
    demands = [ServiceDemand(0, "s", "t", 8.0, ())]
    result = route_all(diamond, unit_weights(diamond), demands)
    assert result is not None
    assert result.report.r == 2.0  # equal split overloads the thin side


def test_route_all_none_when_unroutable():
    g = chain_graph([5.0])
    demands = [ServiceDemand(0, "v1", "v0", 1.0, ())]
    assert route_all(g, unit_weights(g), demands) is None


def test_format_number_canonical_forms():
    assert format_number(2.0) == "2"
    assert format_number(0.5) == "0.5"
    assert format_number(float("nan")) == "nan"
    assert format_number(float("inf")) == "inf"
    assert format_number(-3.0) == "-3"


def assert_same_stream(got, want):
    """Equal outcomes, allocations and reports, floats bit for bit."""
    if want is None:
        assert got is None
        return
    assert got.accepted_ids == want.accepted_ids
    assert got.rejected_ids == want.rejected_ids
    assert [(a.waypoints, list(a.link_flow.items())) for a in got.allocations] == [
        (a.waypoints, list(a.link_flow.items())) for a in want.allocations
    ]
    assert list(got.report.chi.items()) == list(want.report.chi.items())
    assert list(got.report.node_usage.items()) == list(want.report.node_usage.items())
    assert got.report.r == want.report.r


@st.composite
def weight_walks(draw, link_ids: tuple[str, ...]):
    """A starting weight vector and steps of (link, weight change): single
    +-1 moves and jumps that change several links at once."""
    start = {eid: draw(st.integers(1, 4)) for eid in link_ids}
    single = st.tuples(st.sampled_from(link_ids), st.sampled_from((-1, 1))).map(lambda m: [m])
    jump = st.lists(st.tuples(st.sampled_from(link_ids), st.integers(-3, 3)), min_size=2, max_size=5)
    return start, draw(st.lists(st.one_of(single, jump), min_size=1, max_size=8))


def walk_against_fresh_routing(g, demands, walk):
    """Route each step's weights with the previous step's result as prev
    and from scratch, and require the same results."""
    w, steps = walk
    stream = route_stream(g, w, demands)
    everything = route_all(g, w, demands)
    for step in steps:
        w = dict(w)
        for eid, delta in step:
            w[eid] = max(1, w[eid] + delta)
        stream = route_stream(g, w, demands, stream)
        assert_same_stream(stream, route_stream(g, w, demands))
        # None after an unroutable stream, so the next step starts afresh
        everything = route_all(g, w, demands, everything)
        assert_same_stream(everything, route_all(g, w, demands))


@st.composite
def chained_walks(draw):
    """A random chained instance, sometimes with a demand whose function
    has no host, and a weight walk on it."""
    g, demands = random_chained_instance(random.Random(draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        g = NfviGraph(
            g.node_capacity, g.links, g.vnf_catalog + ("lb",), g.capability_pairs(), g.vnf_cost
        )
        src, dst = sorted(g.nodes)[:2]
        at = draw(st.integers(0, len(demands)))
        demands = [
            ServiceDemand(i, d.src, d.dst, d.volume, d.chain)
            for i, d in enumerate(demands[:at] + [ServiceDemand(0, src, dst, 1.0, ("lb",))] + demands[at:])
        ]
    return g, demands, draw(weight_walks(g.link_ids))


@settings(max_examples=80, deadline=None)
@given(chained_walks())
def test_routing_with_prev_equals_fresh_routing(instance):
    g, demands, walk = instance
    walk_against_fresh_routing(g, demands, walk)


@pytest.fixture(scope="module")
def internet2():
    g = load_topology(dataset_path("internet2.topo"))
    return g, list(load_demands(dataset_path("internet2.demands"), g))


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_routing_with_prev_equals_fresh_routing_on_internet2(internet2, data):
    g, demands = internet2
    walk_against_fresh_routing(g, demands, data.draw(weight_walks(g.link_ids)))


def test_routing_with_prev_shares_its_ledger_limits(internet2):
    """A ledger routed with a prev of the same graph shares prev's limit
    dicts, which equal a fresh ledger's and no routing changes; a prev of
    another graph shares nothing."""
    g, demands = internet2
    w = unit_weights(g)
    first = route_stream(g, w, demands)
    fresh = UtilizationReport(g)
    limits = [dict(x) for x in (fresh._capacity, fresh._link_limit, fresh._node_slack)]
    w[g.links[0].id] = 2
    for route in (route_stream, route_all):
        routed = route(g, w, demands, first)
        assert_same_stream(routed, route(g, w, demands))
        assert routed.report._capacity is first.report._capacity
        assert routed.report._link_limit is first.report._link_limit
        assert routed.report._node_slack is first.report._node_slack
    assert [first.report._capacity, first.report._link_limit, first.report._node_slack] == limits
    other = NfviGraph(g.node_capacity, g.links, g.vnf_catalog, g.capability_pairs(), g.vnf_cost)
    assert route_stream(other, w, demands, first).report._link_limit is not first.report._link_limit


@pytest.fixture
def routed_afresh(monkeypatch):
    """The ids of the demands route_demand_sfc routes, in call order."""
    calls = []
    route = routing.route_demand_sfc

    def counted(g, field, d, *args, **kwargs):
        calls.append(d.id)
        return route(g, field, d, *args, **kwargs)

    monkeypatch.setattr(routing, "route_demand_sfc", counted)
    return calls


@pytest.mark.parametrize("name", ["geant", "internet2"])
def test_equal_weights_reuse_every_routing(name, routed_afresh):
    g = load_topology(dataset_path(f"{name}.topo"))
    demands = list(load_demands(dataset_path(f"{name}.demands"), g))
    w = unit_weights(g)
    stream, everything = route_stream(g, w, demands), route_all(g, w, demands)
    assert everything is not None
    routed_afresh.clear()
    assert_same_stream(route_stream(g, dict(w), demands, stream), stream)
    assert_same_stream(route_all(g, dict(w), demands, everything), everything)
    assert routed_afresh == []


def test_one_link_raise_reroutes_few_demands_on_internet2(internet2, routed_afresh):
    """Raising one link's unit weight by 1 re-routes at most 20 of the 130
    demands: 20 at most and 7.5 in the median over the 30 links."""
    g, demands = internet2
    w = unit_weights(g)
    base = route_stream(g, w, demands)
    for eid in g.link_ids:
        w2 = {**w, eid: 2}
        routed_afresh.clear()
        result = route_stream(g, w2, demands, base)
        assert len(routed_afresh) <= 20, eid
        assert_same_stream(result, route_stream(g, w2, demands))


def test_chained_results_do_not_keep_their_predecessors():
    g, demands = random_chained_instance(random.Random(3))
    rng = random.Random(5)
    w = unit_weights(g)
    result = route_stream(g, w, demands)
    first = weakref.ref(result)
    for _ in range(50):
        eid = rng.choice(g.link_ids)
        w = {**w, eid: max(1, w[eid] + rng.choice((-1, 1)))}
        result = route_stream(g, w, demands, result)
    gc.collect()
    assert first() is None


def test_prev_is_not_reused_when_the_visit_order_flips():
    """a splits over u and v toward b.  Moving one unit of weight from a->u
    to u->b keeps every tight list but lifts u to v's distance, where the
    id tie-break puts u first, so the split adds u's and v's links to the
    allocation in the other order."""
    nodes = {v: 0.0 for v in "abuv"}
    links = (
        Link("au", "a", "u", 10.0),
        Link("av", "a", "v", 10.0),
        Link("ub", "u", "b", 10.0),
        Link("vb", "v", "b", 10.0),
    )
    g = NfviGraph(nodes, links)
    demands = [ServiceDemand(0, "a", "b", 2.0)]
    before = route_stream(g, {"au": 2, "av": 1, "ub": 1, "vb": 2}, demands)
    assert list(before.allocations[0].link_flow) == ["au", "av", "vb", "ub"]
    w = {"au": 1, "av": 1, "ub": 2, "vb": 2}
    after = route_stream(g, w, demands, before)
    assert list(after.allocations[0].link_flow) == ["au", "av", "ub", "vb"]
    assert_same_stream(after, route_stream(g, w, demands))
