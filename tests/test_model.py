"""Graph and demand model invariants."""

from __future__ import annotations

import random

import pytest

from orbitlb.errors import ValidationError
from orbitlb.model import (
    DemandStream,
    Link,
    NfviGraph,
    ServiceDemand,
    validate,
    validate_demands,
)


def make_graph(**overrides):
    kwargs = dict(
        nodes={"a": 10.0, "b": 20.0},
        links=(Link("ab", "a", "b", 5.0), Link("ba", "b", "a", 5.0)),
        vnf_catalog=frozenset({"fw"}),
        capability={("a", "fw")},
        vnf_cost={("a", "fw"): 2.0},
    )
    kwargs.update(overrides)
    return NfviGraph(
        kwargs["nodes"],
        kwargs["links"],
        kwargs["vnf_catalog"],
        kwargs["capability"],
        kwargs["vnf_cost"],
    )


def test_valid_graph_has_no_violations():
    assert validate(make_graph()) == []


def test_out_and_in_links_index_by_endpoint():
    g = make_graph()
    assert [e.id for e in g.out_links["a"]] == ["ab"]
    assert [e.id for e in g.in_links["a"]] == ["ba"]


def test_duplicate_link_ids_flagged():
    g = make_graph(links=(Link("x", "a", "b", 1.0), Link("x", "b", "a", 1.0)))
    assert any("more than once" in v for v in validate(g))


def test_bad_identifier_flagged():
    g = make_graph(nodes={"a": 1.0, "b c": 1.0}, links=(), capability=(), vnf_cost={})
    assert any("unsupported characters" in v for v in validate(g))


def test_ids_ending_in_a_newline_flagged():
    g = make_graph(
        nodes={"a": 1.0, "b\n": 1.0},
        links=(Link("ab\n", "a", "b\n", 1.0),),
        vnf_catalog=("fw\n",),
        capability=(),
        vnf_cost={},
    )
    assert validate(g) == [
        "node id 'b\\n' contains unsupported characters",
        "link id 'ab\\n' contains unsupported characters",
        "function id 'fw\\n' contains unsupported characters",
    ]


def test_dangling_endpoint_flagged():
    g = make_graph(links=(Link("az", "a", "z", 1.0),))
    assert any("not declared" in v for v in validate(g))


def test_self_loop_flagged():
    g = make_graph(links=(Link("aa", "a", "a", 1.0),))
    assert any("self-loop" in v for v in validate(g))


def test_nonpositive_capacity_flagged():
    g = make_graph(links=(Link("ab", "a", "b", 0.0),))
    assert any("capacity must be positive" in v for v in validate(g))


def test_negative_compute_flagged():
    g = make_graph(nodes={"a": -1.0, "b": 1.0})
    assert any("negative compute" in v for v in validate(g))


def test_unknown_function_flagged():
    g = make_graph(capability={("a", "dpi")}, vnf_cost={})
    assert any("not in the catalog" in v for v in validate(g))


def test_negative_cost_flagged():
    g = make_graph(vnf_cost={("a", "fw"): -0.5})
    assert any("negative cost" in v for v in validate(g))


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("x", NON_FINITE)
@pytest.mark.parametrize(
    "overrides, expected",
    [
        (lambda x: {"nodes": {"a": x, "b": 20.0}}, "node a: compute capacity {} is not finite"),
        (
            lambda x: {"links": (Link("ab", "a", "b", x), Link("ba", "b", "a", 5.0))},
            "link ab: capacity {} is not finite",
        ),
        (lambda x: {"vnf_cost": {("a", "fw"): x}}, "cost entry (a, fw): cost {} is not finite"),
    ],
    ids=["node", "link", "cost"],
)
def test_non_finite_number_flagged(x, overrides, expected):
    assert validate(make_graph(**overrides(x))) == [expected.format(x)]


def test_cost_defaults_to_zero_when_unpriced():
    g = make_graph(vnf_cost={})
    assert g.cost("a", "fw") == 0.0


def test_hosting_helpers():
    g = make_graph()
    assert g.can_host("a", "fw")
    assert not g.can_host("b", "fw")
    assert g.hosts_of("fw") == ["a"]
    assert g.capability_pairs() == [("a", "fw")]


def test_hosts_follow_declaration_order_and_are_copies():
    g = make_graph(
        nodes={"c": 1.0, "a": 1.0, "b": 1.0},
        links=(),
        capability={("b", "fw"), ("c", "fw"), ("a", "fw"), ("a", "off_catalog")},
    )
    assert g.hosts_of("fw") == ["c", "a", "b"]
    assert g.hosts_of("off_catalog") == ["a"]
    assert g.hosts_of("nat") == []
    g.hosts_of("fw").append("z")
    assert g.hosts_of("fw") == ["c", "a", "b"]


def test_max_link_capacity():
    g = make_graph(links=(Link("ab", "a", "b", 5.0), Link("ba", "b", "a", 9.0)))
    assert g.max_link_capacity() == 9.0


def test_restricted_keeps_chosen_links_and_capabilities():
    g = make_graph()
    sub = g.restricted({"ab"})
    assert [e.id for e in sub.links] == ["ab"]
    assert set(sub.nodes) == {"a", "b"}
    assert sub.capability_pairs() == [("a", "fw")]
    assert sub.cost("a", "fw") == 2.0


def test_restricted_matches_a_full_filter_of_the_parent():
    rng = random.Random(11)
    names = [f"n{i}" for i in range(8)]
    fns = ["fw", "nat", "dpi"]
    for _ in range(40):
        links = tuple(
            Link(f"e{k}", *rng.sample(names, 2), 5.0) for k in range(rng.randint(0, 14))
        )
        caps = {(v, f) for v in names for f in fns if rng.random() < 0.4}
        # costs also for pairs a node cannot host, and for an undeclared node
        costs = {(v, f): rng.choice([0.5, 1.0, 3.0]) for v in names + ["ghost"] for f in fns
                 if rng.random() < 0.5}
        g = NfviGraph({v: 10.0 for v in names}, links, fns, caps, costs)
        kept = [e.id for e in links if rng.random() < 0.5]
        extra = rng.sample(names + ["ghost"], rng.randint(0, 3))
        sub = g.restricted(kept, extra_nodes=extra)
        inside = set(sub.nodes)
        assert sub.capability_pairs() == [p for p in g.capability_pairs() if p[0] in inside]
        assert sub.vnf_cost == {k: c for k, c in g.vnf_cost.items() if k[0] in inside}
        for fn in fns:
            assert sub.hosts_of(fn) == [v for v in sub.nodes if sub.can_host(v, fn)]
            assert set(sub.hosts_of(fn)) == set(g.hosts_of(fn)) & inside


def test_restricted_adds_extra_nodes():
    g = make_graph()
    sub = g.restricted(set(), extra_nodes=("a",))
    assert set(sub.nodes) == {"a"}
    assert sub.links == ()


def test_demand_rejects_equal_endpoints():
    with pytest.raises(ValidationError):
        ServiceDemand(0, "a", "a", 1.0, ())


def test_demand_rejects_negative_volume():
    with pytest.raises(ValidationError):
        ServiceDemand(0, "a", "b", -1.0, ())


@pytest.mark.parametrize("volume", [float("nan"), float("inf"), float("-inf")])
def test_demand_rejects_non_finite_volume(volume):
    with pytest.raises(ValidationError) as exc:
        ServiceDemand(7, "a", "b", volume, ())
    assert exc.value.violations == [f"demand 7: volume {volume} is not finite"]


def test_zero_volume_demand_is_legal():
    d = ServiceDemand(0, "a", "b", 0.0, ("fw",))
    assert d.volume == 0.0


def test_stream_requires_strictly_increasing_ids():
    a = ServiceDemand(3, "a", "b", 1.0, ())
    b = ServiceDemand(3, "b", "a", 1.0, ())
    with pytest.raises(ValidationError):
        DemandStream((a, b))


def test_stream_iterates_in_order():
    demands = tuple(ServiceDemand(i, "a", "b", 1.0, ()) for i in range(3))
    stream = DemandStream(demands)
    assert len(stream) == 3
    assert [d.id for d in stream] == [0, 1, 2]
    assert stream[1].id == 1


def test_validate_demands_checks_endpoints_and_chain():
    g = make_graph()
    demands = (
        ServiceDemand(0, "a", "z", 1.0, ()),
        ServiceDemand(1, "a", "b", 1.0, ("dpi",)),
    )
    violations = validate_demands(demands, g)
    assert any("unknown destination" in v for v in violations)
    assert any("unknown function" in v for v in violations)
