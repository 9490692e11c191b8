"""Balanced node partitioning and per-group connection cost."""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys

import pytest

import orbitlb
from orbitlb import dataset_path
from orbitlb.errors import PartitionError
from orbitlb.fileio import load_topology
from orbitlb.model import Link, NfviGraph
from orbitlb.partition import _pair_capacity, _spanning_forest, partition
from tests.conftest import random_connected_graph


def test_single_group_cost_is_spanning_tree_bandwidth(diamond):
    part = partition(diamond, 1, 1.0)
    assert len(part.parts) == 1
    assert part.parts[0].nodes == frozenset({"s", "a", "b", "t"})
    # spanning tree of the undirected diamond: 10 + 10 + 2 (or 10+10+2 via b)
    assert part.parts[0].pi == 14.0


def test_pair_capacity_sums_both_directions():
    g = NfviGraph(
        {"a": 0.0, "b": 0.0},
        (Link("ab", "a", "b", 3.0), Link("ba", "b", "a", 5.0)),
        frozenset(),
        (),
        {},
    )
    assert _pair_capacity(g) == {("a", "b"): 8.0}


def test_mst_bandwidth_of_disconnected_set_spans_components():
    pc = {("a", "b"): 2.0}
    assert _spanning_forest(frozenset({"a", "b", "c"}), pc) == (2.0, 2)


def test_verify_reports_groups_split_by_their_internal_links():
    geant = load_topology(dataset_path("geant.topo"))
    assert partition(geant, 2, 1.0).verify(geant) == [
        "group 1 internal links leave its 11 nodes in 2 pieces"
    ]
    part = partition(geant, 3, 1.5)
    assert part.verify(geant) == ["group 0 internal links leave its 4 nodes in 2 pieces"]
    pc = _pair_capacity(geant)
    assert part.parts[0].nodes == {"AMS", "ATH", "DUB", "FRA"}
    assert _spanning_forest(frozenset({"AMS", "ATH"}), pc)[1] == 1
    assert _spanning_forest(frozenset({"DUB", "FRA"}), pc)[1] == 1
    internet2 = load_topology(dataset_path("internet2.topo"))
    for kappa in range(1, 6):
        for eps in range(1, 6):
            try:
                part = partition(internet2, kappa, float(eps))
            except PartitionError:
                continue
            assert part.verify(internet2) == []


def test_group_cost_clamped_to_one():
    # three isolated nodes: spanning bandwidth 0, clamped
    g = NfviGraph({"a": 0.0, "b": 0.0, "c": 0.0}, (), frozenset(), (), {})
    part = partition(g, 3, 1.0)
    assert all(p.pi == 1.0 for p in part.parts)


def test_balance_bound_holds_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=10)
        n = len(g.nodes)
        kappa = rng.randint(1, min(3, n))
        eps = float(rng.choice([1, 2, 3]))
        try:
            part = partition(g, kappa, eps, seed=rng.randint(0, 99))
        except PartitionError:
            assert int(eps * n / kappa) * kappa < n
            continue
        assert part.verify(g) == []
        assert len(part.parts) == kappa
        for p in part.parts:
            assert len(p.nodes) <= eps * n / kappa + 1e-9


def test_same_seed_reproduces_partitioning():
    rng = random.Random(17)
    g = random_connected_graph(rng, max_nodes=10, min_nodes=8)
    a = partition(g, 3, 2.0, seed=4)
    b = partition(g, 3, 2.0, seed=4)
    assert [p.nodes for p in a.parts] == [p.nodes for p in b.parts]
    assert [p.pi for p in a.parts] == [p.pi for p in b.parts]


def test_different_seeds_may_differ_but_stay_valid():
    rng = random.Random(18)
    g = random_connected_graph(rng, max_nodes=10, min_nodes=10)
    for seed in range(5):
        assert partition(g, 2, 1.0, seed=seed).verify(g) == []


def test_every_node_is_in_exactly_one_group(diamond):
    part = partition(diamond, 2, 1.0)
    for v in diamond.nodes:
        assert sum(v in p.nodes for p in part.parts) == 1


def test_rejects_bad_group_counts(diamond):
    with pytest.raises(PartitionError):
        partition(diamond, 0, 1.0)
    with pytest.raises(PartitionError):
        partition(diamond, 5, 1.0)  # more groups than nodes


def test_rejects_balance_factor_below_one(diamond):
    with pytest.raises(PartitionError):
        partition(diamond, 2, 0.5)


@pytest.mark.parametrize(
    "kappa, epsilon",
    [(2.0, 1.0), (1.5, 1.0), ("2", 1.0), (2, math.nan), (2, math.inf), (1, 1e308)],
)
def test_rejects_non_integer_groups_and_non_finite_balance(diamond, kappa, epsilon):
    # a float kappa, nan or infinite epsilon, or a bound that overflows
    with pytest.raises(PartitionError):
        partition(diamond, kappa, epsilon)


def test_rejects_unsatisfiable_bound():
    # 22 nodes, 3 groups, factor 1: floor(22/3) * 3 = 21 < 22
    nodes = {f"v{i}": 0.0 for i in range(22)}
    links = tuple(
        Link(f"e{i}", f"v{i}", f"v{(i + 1) % 22}", 10.0) for i in range(22)
    )
    g = NfviGraph(nodes, links, frozenset(), (), {})
    with pytest.raises(PartitionError) as exc:
        partition(g, 3, 1.0)
    assert "cannot cover" in str(exc.value)


def test_empty_graph_rejected():
    g = NfviGraph({}, (), frozenset(), (), {})
    with pytest.raises(PartitionError):
        partition(g, 1, 1.0)


def _pinned_runs_text() -> str:
    rng = random.Random(7)
    lines = []
    for _ in range(20):
        g = random_connected_graph(rng, max_nodes=80, min_nodes=10)
        n = len(g.nodes)
        kappa = rng.randint(2, 4)
        eps = rng.choice((1.0, 1.5, 2.0))
        try:
            part = partition(g, kappa, eps, seed=rng.randint(0, 99))
        except PartitionError:
            lines.append(f"{n} {kappa} {eps} infeasible")
            continue
        for p in part.parts:
            lines.append(
                f"{n} {kappa} {eps} {p.index} {' '.join(sorted(p.nodes))}"
                f" | {' '.join(p.link_ids)} | {p.pi!r}"
            )
    return "\n".join(lines)


def test_groups_link_ids_and_costs_are_pinned():
    # 20 ring-plus-chord graphs of 10-80 nodes with integer capacities, so
    # every sum is exact; the digest was taken before the neighbour-map
    # rewrite of partition() and must not move
    digest = hashlib.sha256(_pinned_runs_text().encode()).hexdigest()
    assert digest == "31fcedcf2023b25731a56d30b52ab399726978b07782b4fca635228bba2883d3"


HASH_SEED_PROBE = """
import random
from orbitlb.model import Link, NfviGraph
from orbitlb.partition import partition

for graph_seed in (46, 103):
    rng = random.Random(graph_seed)
    n = rng.randint(10, 40)
    names = [f"v{i:02d}" for i in range(n)]
    links = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.075:
                cap = rng.choice((0.1, 0.2, 0.3, 0.6))
                links.append(Link(f"e{len(links)}", names[i], names[j], cap))
    part = partition(NfviGraph({v: 0.0 for v in names}, links), 2, 1.0)
    print([sorted(p.nodes) for p in part.parts])
"""


def test_groups_do_not_depend_on_hash_seed():
    # fractional capacities make float sums depend on the order they are
    # added in; set iteration order changes with PYTHONHASHSEED
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
