"""Domain types: capacitated infrastructure graph and service demands."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ValidationError

# Identifiers appear verbatim in solver variable names, so keep them to a
# character set that is safe in LP files (no '-', no leading digit issues
# since generated names are always prefixed).  Test ids with fullmatch,
# which, unlike match with '$', refuses a trailing newline.
ID_PATTERN = re.compile(r"[A-Za-z0-9_]+")


@dataclass(frozen=True)
class Link:
    """Directed link with a bandwidth capacity (traffic-rate units)."""

    id: str
    src: str
    dst: str
    capacity: float


class NfviGraph:
    """Directed capacitated graph hosting virtual network functions.

    Nodes carry a compute capacity, links a bandwidth capacity.  Which
    functions a node may host is stored explicitly (``capability``) and is
    independent of the cost table: a node may price a function it cannot
    host, in which case the cost entry is irrelevant.

    Instances are treated as immutable after construction and are safe to
    share across concurrent readers.  Construction itself does not validate;
    use :func:`validate` (diagnostics) or the file loaders (which raise).
    """

    def __init__(
        self,
        nodes: dict[str, float],
        links: Iterable[Link],
        vnf_catalog: Iterable[str] = (),
        capability: Iterable[tuple[str, str]] = (),
        vnf_cost: dict[tuple[str, str], float] | None = None,
    ) -> None:
        self.node_capacity: dict[str, float] = dict(nodes)
        self.links: tuple[Link, ...] = tuple(links)
        self.link_by_id: dict[str, Link] = {e.id: e for e in self.links}
        self.vnf_catalog: tuple[str, ...] = tuple(dict.fromkeys(vnf_catalog))
        self._capability: frozenset[tuple[str, str]] = frozenset(capability)
        self._hosts: dict[str, tuple[str, ...]] = {
            fn: tuple(v for v in self.node_capacity if (v, fn) in self._capability)
            for fn in {fn for _, fn in self._capability}
        }
        self.vnf_cost: dict[tuple[str, str], float] = dict(vnf_cost or {})

        self.out_links: dict[str, list[Link]] = {v: [] for v in self.node_capacity}
        self.in_links: dict[str, list[Link]] = {v: [] for v in self.node_capacity}
        for e in self.links:
            # tolerate dangling endpoints here; validate() reports them
            self.out_links.setdefault(e.src, []).append(e)
            self.in_links.setdefault(e.dst, []).append(e)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self.node_capacity)

    @property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.links)

    def can_host(self, node: str, fn: str) -> bool:
        return (node, fn) in self._capability

    def cost(self, node: str, fn: str) -> float:
        """Compute units consumed per unit traffic rate (0 if unpriced)."""
        return self.vnf_cost.get((node, fn), 0.0)

    def capability_pairs(self) -> list[tuple[str, str]]:
        return sorted(self._capability)

    def max_link_capacity(self) -> float:
        return max((e.capacity for e in self.links), default=0.0)

    def restricted(self, link_ids: Iterable[str]) -> "NfviGraph":
        """Subgraph induced by a link subset.

        Nodes are the endpoints of the kept links; their hosting
        capabilities and costs are carried over unchanged.
        """
        keep = set(link_ids)
        links = [e for e in self.links if e.id in keep]
        node_ids: dict[str, None] = {}
        for e in links:
            node_ids.setdefault(e.src)
            node_ids.setdefault(e.dst)
        nodes = {v: self.node_capacity.get(v, 0.0) for v in node_ids}
        caps = [(v, fn) for v, fn in self._capability if v in nodes]
        costs = {key: c for key, c in self.vnf_cost.items() if key[0] in nodes}
        return NfviGraph(nodes, links, self.vnf_catalog, caps, costs)


@dataclass(frozen=True)
class ServiceDemand:
    """A traffic request: route ``volume`` from ``src`` to ``dst`` through an
    ordered chain of network functions."""

    id: int
    src: str
    dst: str
    volume: float
    chain: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        problems = []
        if self.src == self.dst:
            problems.append(f"demand {self.id}: source equals destination ({self.src})")
        if not math.isfinite(self.volume):
            problems.append(f"demand {self.id}: volume {self.volume} is not finite")
        elif self.volume < 0:
            problems.append(f"demand {self.id}: negative volume {self.volume}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class DemandStream:
    """Ordered arrival sequence of demands; ids must be strictly increasing."""

    demands: tuple[ServiceDemand, ...] = ()

    def __post_init__(self) -> None:
        ids = [d.id for d in self.demands]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValidationError(["demand ids are not strictly increasing"])

    def __iter__(self) -> Iterator[ServiceDemand]:
        return iter(self.demands)

    def __len__(self) -> int:
        return len(self.demands)

    def __getitem__(self, i: int) -> ServiceDemand:
        return self.demands[i]


def validate(graph: NfviGraph) -> list[str]:
    """Diagnostic check of every structural invariant of ``graph``.

    Returns a list of violation descriptions; an empty list means the graph
    is accepted by every other operation in the package.
    """
    problems: list[str] = []
    seen_links: set[str] = set()
    for v, cap in graph.node_capacity.items():
        if not ID_PATTERN.fullmatch(v):
            problems.append(f"node id {v!r} contains unsupported characters")
        if not math.isfinite(cap):
            problems.append(f"node {v}: compute capacity {cap} is not finite")
        elif cap < 0:
            problems.append(f"node {v}: negative compute capacity {cap}")
    for e in graph.links:
        if e.id in seen_links:
            problems.append(f"link id {e.id} declared more than once")
        seen_links.add(e.id)
        if not ID_PATTERN.fullmatch(e.id):
            problems.append(f"link id {e.id!r} contains unsupported characters")
        if e.src not in graph.node_capacity:
            problems.append(f"link {e.id}: start node {e.src} is not declared")
        if e.dst not in graph.node_capacity:
            problems.append(f"link {e.id}: end node {e.dst} is not declared")
        if e.src == e.dst:
            problems.append(f"link {e.id}: self-loop at {e.src}")
        if not math.isfinite(e.capacity):
            problems.append(f"link {e.id}: capacity {e.capacity} is not finite")
        elif e.capacity <= 0:
            problems.append(f"link {e.id}: capacity must be positive, got {e.capacity}")
    for fn in graph.vnf_catalog:
        if not ID_PATTERN.fullmatch(fn):
            problems.append(f"function id {fn!r} contains unsupported characters")
    catalog = set(graph.vnf_catalog)
    for v, fn in graph.capability_pairs():
        if v not in graph.node_capacity:
            problems.append(f"capability ({v}, {fn}): node {v} is not declared")
        if fn not in catalog:
            problems.append(f"capability ({v}, {fn}): function {fn} is not in the catalog")
    for (v, fn), c in sorted(graph.vnf_cost.items()):
        if v not in graph.node_capacity:
            problems.append(f"cost entry ({v}, {fn}): node {v} is not declared")
        if fn not in catalog:
            problems.append(f"cost entry ({v}, {fn}): function {fn} is not in the catalog")
        if not math.isfinite(c):
            problems.append(f"cost entry ({v}, {fn}): cost {c} is not finite")
        elif c < 0:
            problems.append(f"cost entry ({v}, {fn}): negative cost {c}")
    return problems


def validate_demands(demands: Iterable[ServiceDemand], graph: NfviGraph) -> list[str]:
    """Diagnostics for demands against a graph (unknown nodes/functions)."""
    problems: list[str] = []
    catalog = set(graph.vnf_catalog)
    for d in demands:
        if d.src not in graph.node_capacity:
            problems.append(f"demand {d.id}: unknown source node {d.src}")
        if d.dst not in graph.node_capacity:
            problems.append(f"demand {d.id}: unknown destination node {d.dst}")
        for fn in d.chain:
            if fn not in catalog:
                problems.append(f"demand {d.id}: unknown function {fn}")
    return problems
