"""Balanced node partitioning with low inter-partition link capacity.

A partitioning splits the node set into kappa groups of at most
epsilon*n/kappa nodes each.  Groups are grown greedily from seeded starting
nodes by always pulling in the neighbor with the largest connecting
capacity, then improved by single-node moves and pairwise swaps that reduce
the capacity crossing between groups.  Each group's cost is the bandwidth
sum of a minimum spanning tree of its internal links (a forest when the
group is disconnected), clamped to at least 1 so it can divide update steps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import PartitionError
from .model import NfviGraph

BALANCE_FUZZ = 1e-9
REFINE_PASSES = 8


@dataclass(frozen=True)
class Partition:
    index: int
    nodes: frozenset[str]
    link_ids: tuple[str, ...]
    pi: float


@dataclass(frozen=True)
class Partitioning:
    parts: tuple[Partition, ...]
    kappa: int
    epsilon: float
    seed: int
    size_bound: float

    def verify(self, g: NfviGraph) -> list[str]:
        """Diagnostics for the structural invariants (disjoint cover,
        balance, positive costs) and for groups whose internal directed links
        leave their members in more than one strongly connected piece, so
        some member cannot reach another inside the group."""
        problems: list[str] = []
        seen: set[str] = set()
        for p in self.parts:
            if len(p.nodes) > self.size_bound + BALANCE_FUZZ:
                problems.append(
                    f"group {p.index} has {len(p.nodes)} nodes, bound {self.size_bound}"
                )
            if p.pi < 1.0:
                problems.append(f"group {p.index} cost {p.pi} is below 1")
            pieces = _strong_pieces(p.nodes, g)
            if pieces > 1:
                problems.append(
                    f"group {p.index} internal links leave its {len(p.nodes)} nodes"
                    f" in {pieces} pieces"
                )
            overlap = seen & p.nodes
            if overlap:
                problems.append(f"group {p.index} shares nodes {sorted(overlap)}")
            seen |= p.nodes
        missing = set(g.node_capacity) - seen
        if missing:
            problems.append(f"nodes not covered: {sorted(missing)}")
        return problems


def _pair_capacity(g: NfviGraph) -> dict[tuple[str, str], float]:
    """Undirected support edges: both directions' bandwidth summed."""
    cap: dict[tuple[str, str], float] = {}
    for e in g.links:
        key = (e.src, e.dst) if e.src < e.dst else (e.dst, e.src)
        cap[key] = cap.get(key, 0.0) + e.capacity
    return cap


def _strong_pieces(nodes: frozenset[str], g: NfviGraph) -> int:
    """How many strongly connected pieces the links of g between members
    leave ``nodes`` in: a member's piece is the members it both reaches and
    is reached from."""
    left, pieces = set(nodes), 0
    while left:
        root = min(left)
        left -= _reached_members(nodes, g, root, True) & _reached_members(nodes, g, root, False)
        pieces += 1
    return pieces


def _reached_members(nodes: frozenset[str], g: NfviGraph, root: str, forward: bool) -> set[str]:
    """The members that root reaches (``forward``) or that reach root, over
    links of g between members."""
    adjacent = g.out_links if forward else g.in_links
    seen, todo = {root}, [root]
    while todo:
        for e in adjacent.get(todo.pop(), ()):
            u = e.dst if forward else e.src
            if u in nodes and u not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def _spanning_forest(nodes: frozenset[str], pair_cap: dict[tuple[str, str], float]) -> float:
    """Kruskal over the group's internal support edges: the bandwidth of a
    minimum spanning forest, a tree per piece the support edges leave the
    group in."""
    edges = sorted(
        ((c, u, v) for (u, v), c in pair_cap.items() if u in nodes and v in nodes),
        key=lambda t: (t[0], t[1], t[2]),
    )
    parent = {v: v for v in nodes}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    total = 0.0
    for c, u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += c
    return total


def partition(g: NfviGraph, kappa: int, epsilon: float, seed: int = 0) -> Partitioning:
    """Deterministic (kappa, epsilon)-balanced partitioning of the graph.

    Raises PartitionError when kappa is not a positive int, epsilon is not
    a number >= 1 giving a finite bound, or the balance bound cannot hold:
    fewer nodes than groups, bound below 1, or kappa*floor(bound) below n.
    """
    nodes = sorted(g.node_capacity)
    n = len(nodes)
    if not isinstance(kappa, int) or kappa < 1:
        raise PartitionError(f"group count must be a positive integer, got {kappa!r}")
    if not epsilon >= 1:
        raise PartitionError(f"balance factor must be >= 1, got {epsilon}")
    if n == 0:
        raise PartitionError("cannot partition an empty graph")
    if kappa > n:
        raise PartitionError(f"{kappa} groups for {n} nodes would leave some empty")
    bound = epsilon * n / kappa
    if bound == math.inf:
        raise PartitionError(f"balance factor {epsilon} gives no finite size bound")
    cap = math.floor(bound + BALANCE_FUZZ)
    if cap < 1 or kappa * cap < n:
        raise PartitionError(
            f"balance bound {bound:g} cannot cover {n} nodes with {kappa} groups"
        )
    pair_cap = _pair_capacity(g)
    # nbr[v][u]: capacity between v and u; sorting the pairs lists each
    # node's neighbours in node-id order, so every sum below adds its terms
    # in an order that does not depend on hashing; self-loops and links to
    # undeclared nodes never cross the cut, so they are left out
    nbr: dict[str, dict[str, float]] = {v: {} for v in nodes}
    for (u, v), c in sorted(pair_cap.items()):
        if u != v and u in nbr and v in nbr:
            nbr[u][v] = c
            nbr[v][u] = c
    rng = random.Random(f"{seed}|{kappa}|{epsilon}")

    assign: dict[str, int] = {}
    size = [0] * kappa
    for i, v in enumerate(rng.sample(nodes, kappa)):
        assign[v] = i
        size[i] += 1

    def attach_gains(v: str) -> list[float]:
        """Capacity connecting v to each group."""
        gains = [0.0] * kappa
        for u, c in nbr[v].items():
            if u in assign:
                gains[assign[u]] += c
        return gains

    unassigned = [v for v in nodes if v not in assign]
    while unassigned:
        best: tuple[float, int, str] | None = None
        for v in unassigned:
            for i, gain in enumerate(attach_gains(v)):
                if gain <= 0 or size[i] >= cap:
                    continue
                key = (-gain, i, v)
                if best is None or key < best:
                    best = key
        if best is None:
            # no connected candidate; place the smallest node in the
            # emptiest group that still has room
            _, i = min((size[i], i) for i in range(kappa) if size[i] < cap)
            v = unassigned[0]
        else:
            _, i, v = best
        assign[v] = i
        size[i] += 1
        unassigned.remove(v)

    def delta_move(v: str, j: int) -> float:
        """Change in cut capacity if v moves to group j."""
        i = assign[v]
        d = 0.0
        for u, c in nbr[v].items():
            if assign[u] == i:
                d += c
            elif assign[u] == j:
                d -= c
        return d

    for _ in range(REFINE_PASSES):
        improved = False
        for v in nodes:
            i = assign[v]
            if size[i] <= 1:
                continue
            for j in range(kappa):
                if j == i or size[j] >= cap:
                    continue
                if delta_move(v, j) < -BALANCE_FUZZ:
                    size[i] -= 1
                    size[j] += 1
                    assign[v] = j
                    improved = True
                    break
        for k, v in enumerate(nodes):
            for u in nodes[k + 1:]:
                if assign[u] == assign[v]:
                    continue
                i, j = assign[v], assign[u]
                gain = delta_move(v, j) + delta_move(u, i)
                # a swapped pair keeps its own edge crossing either way, but
                # delta_move counted it as healed on both sides
                gain += 2 * nbr[v].get(u, 0.0)
                if gain < -BALANCE_FUZZ:
                    assign[v], assign[u] = j, i
                    improved = True
        if not improved:
            break

    parts = []
    for i in range(kappa):
        members = frozenset(v for v in nodes if assign[v] == i)
        link_ids = tuple(e.id for e in g.links if e.src in members and e.dst in members)
        pi = max(1.0, _spanning_forest(members, pair_cap))
        parts.append(Partition(index=i, nodes=members, link_ids=link_ids, pi=pi))
    return Partitioning(
        parts=tuple(parts),
        kappa=kappa,
        epsilon=epsilon,
        seed=seed,
        size_bound=bound,
    )
