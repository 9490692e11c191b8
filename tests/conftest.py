"""Shared fixtures: a hand-checked diamond graph and randomized generators."""

from __future__ import annotations

import random

import pytest

from orbitlb.model import DemandStream, Link, NfviGraph, ServiceDemand


@pytest.fixture
def diamond() -> NfviGraph:
    """Two disjoint s->t paths: capacity 10 via a, capacity 2 via b."""
    nodes = {"s": 0.0, "a": 0.0, "b": 0.0, "t": 0.0}
    links = (
        Link("e_sa", "s", "a", 10.0),
        Link("e_at", "a", "t", 10.0),
        Link("e_sb", "s", "b", 2.0),
        Link("e_bt", "b", "t", 2.0),
    )
    return NfviGraph(nodes, links, frozenset(), {}, {})


@pytest.fixture
def diamond_demand() -> ServiceDemand:
    return ServiceDemand(0, "s", "t", 8.0, ())


def random_connected_graph(
    rng: random.Random,
    max_nodes: int = 10,
    capacity_choices: tuple[float, ...] = (5.0, 10.0, 20.0),
    min_nodes: int = 3,
) -> NfviGraph:
    """Bidirected ring plus random chords; always strongly connected."""
    n = rng.randint(min_nodes, max_nodes)
    names = [f"n{i}" for i in range(n)]
    links = []
    for i in range(n):
        cap = rng.choice(capacity_choices)
        links.append(Link(f"e{i}a", names[i], names[(i + 1) % n], cap))
        links.append(Link(f"e{i}b", names[(i + 1) % n], names[i], cap))
    for k in range(rng.randint(0, n)):
        u, v = rng.sample(names, 2)
        links.append(Link(f"c{k}", u, v, rng.choice(capacity_choices)))
    nodes = {v: 100.0 for v in names}
    return NfviGraph(nodes, tuple(links), frozenset(), {}, {})


def random_stream(rng: random.Random, g: NfviGraph, max_demands: int = 50) -> DemandStream:
    """Chainless demands between distinct random endpoints, volumes 0..4."""
    names = sorted(g.nodes)
    demands = []
    for i in range(rng.randint(1, max_demands)):
        u, v = rng.sample(names, 2)
        demands.append(ServiceDemand(i, u, v, float(rng.randint(0, 4)), ()))
    return DemandStream(tuple(demands))


def chain_graph(caps: list[float]) -> NfviGraph:
    """Single directed path v0 -> v1 -> ... with the given link capacities."""
    names = [f"v{i}" for i in range(len(caps) + 1)]
    links = tuple(
        Link(f"p{i}", names[i], names[i + 1], cap) for i, cap in enumerate(caps)
    )
    return NfviGraph({v: 0.0 for v in names}, links, frozenset(), {}, {})


def random_chained_instance(rng: random.Random) -> tuple[NfviGraph, list[ServiceDemand]]:
    """Random strongly connected graph with hosts, fractional costs, tight
    node capacities and chained demands."""
    base = random_connected_graph(rng, max_nodes=9)
    fns = ["fw", "nat", "dpi"]
    nodes = {v: float(rng.choice([1, 5, 40])) for v in base.nodes}
    caps = sorted((v, f) for v in nodes for f in fns if rng.random() < 0.4)
    costs = {(v, f): rng.choice([0.1, 0.3, 0.5, 2.0]) for v, f in caps if rng.random() < 0.8}
    g = NfviGraph(nodes, base.links, fns, caps, costs)
    names = sorted(g.nodes)
    demands = []
    for i in range(rng.randint(1, 15)):
        u, v = rng.sample(names, 2)
        chain = tuple(rng.sample(fns, rng.randint(0, 2)))
        demands.append(ServiceDemand(i, u, v, rng.choice([0.0, 1.0, 1.5, 2.7, 4.0]), chain))
    return g, demands
