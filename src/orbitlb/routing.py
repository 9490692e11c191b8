"""Shortest-path fields, equal-split multipath DAGs, and traffic allocation.

Weights are positive integers per link.  For a destination t, a link e=(i,j)
lies on a shortest path to t exactly when dist(i,t) = w[e] + dist(j,t) with
dist(i,t) finite.  Traffic entering a node headed for t is divided equally
over all such outgoing links.
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import math
from dataclasses import dataclass

from .errors import ValidationError
from .model import Link, NfviGraph, ServiceDemand

INF = math.inf

# slack used when comparing float rates assembled through splits
RATE_TOL = 1e-9


def capacity_slack(c: float) -> float:
    """The capacity rule's slack: a load fits capacity c when it is at most
    c + capacity_slack(c), so the slack grows with c above 1."""
    return RATE_TOL * max(1.0, c)


def unit_weights(g: NfviGraph) -> dict[str, int]:
    return {e.id: 1 for e in g.links}


def validate_weights(g: NfviGraph, w: dict[str, int]) -> None:
    """Raise ValidationError unless every link has an integer weight from 1
    to 2**53 // (|V| - 1): a shortest path has at most |V| - 1 links, so its
    length stays a float that holds it exactly."""
    problems = []
    limit = 2**53 // max(1, len(g.node_capacity) - 1)
    for e in g.links:
        if e.id not in w:
            problems.append(f"no weight for link {e.id}")
        else:
            val = w[e.id]
            try:
                ok = val == int(val) and val >= 1
            except (TypeError, ValueError, OverflowError):
                ok = False  # None, text, nan or an infinity
            if not ok:
                problems.append(f"weight of link {e.id} must be an integer >= 1, got {val!r}")
            elif val > limit:
                problems.append(
                    f"weight of link {e.id} must be at most {limit} so path lengths"
                    f" stay exact, got {val!r}"
                )
    if problems:
        raise ValidationError(problems)


class ShortestPathField:
    """Shortest-path state of one graph under one weight vector.

    Per target t, filled on first use: dist(v, t) for every node v that
    reaches t (one reverse Dijkstra, exact since weights are positive).  A
    fill is a plain dict keyed by exactly the nodes it reached; ``dist``
    reads math.inf for any other node of the graph, and a reader of the
    fill itself tests membership.  A node's tight out-links toward t, those
    on some shortest path to t, are listed on first ask, in declaration
    order, and kept; a target's dict of lists is made with its first list.
    Per source s, also on first use: dist(s, v) for every node v that s
    reaches (one forward Dijkstra).  The weights are copied, so later
    changes to the caller's dict do not alter the answers.

    ``links``, when given, masks the graph to those link ids: answers equal
    those over ``g.restricted(links)`` on its nodes; other nodes are unreachable.

    ``base``, when given, is a field of the same graph whose links and
    weights are a subset of this field's.  A fill of root r then starts from
    ``base``'s fill of r, exact over fewer links and so an upper bound,
    relaxes only the links this field adds and runs Dijkstra on from the
    nodes they improved (an edge-insertion update, Ramalingam & Reps 1996).
    When no added link improves a node the fill is ``base``'s dict itself:
    no fill is ever changed once made.  ``forward_base``, of the same kind,
    stands in for ``base`` in forward fills only.  ``joined`` builds a field
    with both from two fields that extend one base.
    """

    def __init__(
        self,
        g: NfviGraph,
        w: dict[str, int],
        links: set[str] | None = None,
        base: ShortestPathField | None = None,
        forward_base: ShortestPathField | None = None,
    ) -> None:
        self._g = g
        # the weights of the allowed links only
        self._w = {e.id: w[e.id] for e in g.links} if links is None else {i: w[i] for i in links}
        added = self._added_to(base)
        if forward_base is None:
            self._start(base, added, base, added)
        else:
            self._start(base, added, forward_base, self._added_to(forward_base))

    def _start(
        self,
        base: ShortestPathField | None,
        added: list[Link],
        forward_base: ShortestPathField | None,
        forward_added: list[Link],
    ) -> None:
        """Set the bases, the links added to each, and empty fill caches on
        a field whose ``_g`` and ``_w`` are set."""
        self._base, self._forward_base = base, forward_base
        # the links a reverse (forward) fill relaxes on top of its base's fill
        self._added, self._forward_added = added, forward_added
        # _dist[t][v] is the distance from v to t, for the nodes reaching t
        self._dist: dict[str, dict[str, float]] = {}
        # _out[t][v] is v's tight list toward t, for the nodes asked so far
        self._out: dict[str, dict[str, list[Link]]] = {}
        # _from[s][v] is the distance from s to v, for the nodes s reaches
        self._from: dict[str, dict[str, float]] = {}

    def _added_to(self, base: ShortestPathField | None) -> list[Link]:
        """The links this field has beyond ``base``, which must be a field
        of the same graph over a subset of these weighted links."""
        if base is None:
            return []
        if base._g is not self._g or not base._w.items() <= self._w.items():
            raise ValueError("base must be a field of g over a subset of these weighted links")
        return [self._g.link_by_id[i] for i in self._w.keys() - base._w.keys()]

    def joined(self, entry: ShortestPathField) -> ShortestPathField:
        """A field over the weighted links of this field and ``entry``,
        which must extend the same base field as this one: one copy of
        this field's weights plus a pass over the links each of the two
        added to that base.  Its reverse fills start from this field's and
        its forward fills from ``entry``'s.

        Both fields hold the common base's links, so the new field adds to
        this one only the links ``entry`` added that this one lacks, and to
        ``entry`` only the links this one added that ``entry`` lacks."""
        common = self._base
        if common is None or entry._base is not common:
            raise ValueError("entry must extend the same base field as this field")
        w, added = dict(self._w), []
        for e in entry._added:
            if e.id not in w:
                w[e.id] = entry._w[e.id]
                added.append(e)
        if not entry._w.items() <= w.items():
            raise ValueError("entry must weigh the links of both fields alike")
        field = ShortestPathField.__new__(ShortestPathField)
        field._g, field._w = self._g, w
        field._start(self, added, entry, [e for e in self._added if e.id not in entry._w])
        return field

    def _dijkstra(self, root: str, forward: bool) -> dict[str, float]:
        """Distances from root (forward, over out-links) or to root
        (reverse, over in-links), keyed by exactly the nodes reached, from
        scratch or from the direction's base's fill of root."""
        g, w = self._g, self._w
        if forward:
            base, added = self._forward_base, self._forward_added
        else:
            base, added = self._base, self._added
        if root not in g.node_capacity:
            raise KeyError(root)
        adjacent = g.out_links if forward else g.in_links
        if base is None:
            d = {root: 0}
            heap = [(0, root)]
        else:
            fill = base.from_source(root) if forward else base.to_target(root)
            get, heap = fill.get, []
            for e in added:
                n, f = (e.dst, e.src) if forward else (e.src, e.dst)
                alt = get(f, INF) + w[e.id]
                if alt < get(n, INF):
                    if not heap:
                        d = dict(fill)  # base's fill is shared; copy on the first change
                        get = d.get
                    d[n] = alt
                    heapq.heappush(heap, (alt, n))
            if not heap:
                return fill
        while heap:
            dv, v = heapq.heappop(heap)
            if dv > d[v]:
                continue
            for e in adjacent.get(v, ()):
                we = w.get(e.id)
                if we is None:
                    continue
                u = e.dst if forward else e.src
                alt = dv + we
                if u not in d or alt < d[u]:
                    d[u] = alt
                    heapq.heappush(heap, (alt, u))
        return d

    def _fill(self, t: str) -> dict[str, float]:
        d = self._dist[t] = self._dijkstra(t, forward=False)
        return d

    def to_target(self, t: str) -> dict[str, float]:
        """dist(v, t) for every node v that reaches t."""
        d = self._dist.get(t)
        return self._fill(t) if d is None else d

    def from_source(self, s: str) -> dict[str, float]:
        """dist(s, v) for every node v that s reaches."""
        d = self._from.get(s)
        if d is None:
            d = self._from[s] = self._dijkstra(s, forward=True)
        return d

    def dist(self, v: str, t: str) -> float:
        """dist(v, t), math.inf when v does not reach t; KeyError when v or
        t is not a node."""
        d = self.to_target(t)
        if v in d:
            return d[v]
        if v in self._g.node_capacity:
            return INF
        raise KeyError(v)

    def out_links(self, v: str, t: str) -> list[Link]:
        out = self._out.get(t)
        if out is None:
            self.to_target(t)
            out = self._out[t] = {}
        tight = out.get(v)
        if tight is None:
            get, w = self._dist[t].get, self._w
            dv = get(v, INF)
            tight = out[v] = [] if dv == INF else [
                e for e in self._g.out_links[v] if e.id in w and w[e.id] + get(e.dst, INF) == dv
            ]
        return tight

    def on_shortest(self, e: Link, t: str) -> bool:
        return any(x.id == e.id for x in self.out_links(e.src, t))

    def _carry(self, prev: ShortestPathField) -> _Moves:
        """Take over the fills of ``prev``, an unmasked field of the same
        graph under other weights, and report what moved.

        A fill that ``_holds`` is kept, any other is redone.  A node's tight
        list toward t reads its distance, its out-links' weights and their
        heads' distances, so only tails of changed links, moved nodes and
        tails of links into moved nodes can be relisted.  A moved node is
        itself the tail of a changed link or of a link into a moved node, so
        the two kinds of tail are the candidates; every other list ``prev``
        built is kept, and a target with no list built gets none.

        Which nodes a root reaches depends on the links, not on their
        positive weights, so a redone fill has the same keys as the one it
        replaces and the moved set compares them key by key."""
        g, w = self._g, self._w
        changed = [e for e in g.links if w[e.id] != prev._w[e.id]]
        moves = _Moves()
        for forward, old, new, moved in (
            (False, prev._dist, self._dist, moves.dist),
            (True, prev._from, self._from, moves.from_source),
        ):
            for root, d in old.items():
                if self._holds(root, d, changed, forward):
                    new[root], moved[root] = d, set()
                else:
                    fresh = new[root] = self._dijkstra(root, forward)
                    moved[root] = {v for v, dv in fresh.items() if dv != d[v]}
        tails = {e.src for e in changed}
        for t in prev._dist:
            candidates = tails.union(x.src for v in moves.dist[t] for x in g.in_links[v])
            relisted = moves.relisted[t] = self._relisted(prev, t, self._dist[t], candidates)
            cache = prev._out.get(t)
            if cache is not None:
                # every list not relisted is the same in both fields, so with
                # nothing relisted the two fields may share one cache
                self._out[t] = {v: x for v, x in cache.items() if v not in relisted} if relisted else cache
        return moves

    def _holds(self, root: str, d: dict[str, float], changed: list[Link], forward: bool) -> bool:
        """Whether distances d to root (from root when ``forward``) under
        prev's weights still hold under this field's.

        Take each changed link e with its near end n and far end f: (tail,
        head) toward a target, (head, tail) from a source.  When w[e] + d[f]
        >= d[n] on every changed link, d is a lower bound, since unchanged
        links satisfy it already.  When every near end but root at finite d
        keeps a tight link (an out-link toward a target, an in-link from a
        source), d is also an upper bound, since only changed links can lose
        tightness, so following tight links reaches root in exactly d.  A
        node d lacks reads math.inf."""
        g, w, get = self._g, self._w, d.get
        adjacent = g.in_links if forward else g.out_links
        near: set[str] = set()
        for e in changed:
            n, f = (e.dst, e.src) if forward else (e.src, e.dst)
            dn = get(n, INF)
            if w[e.id] + get(f, INF) < dn:
                return False
            if n != root and dn != INF:
                near.add(n)
        return all(
            any(w[x.id] + get(x.src if forward else x.dst, INF) == d[n] for x in adjacent[n])
            for n in near
        )

    def _relisted(
        self, prev: ShortestPathField, t: str, d: dict[str, float], nodes: set[str]
    ) -> set[str]:
        """The nodes among ``nodes`` whose tight lists toward t differ
        between prev and this field, both unmasked, when d are this field's
        distances to t.  Both fills have the same keys (see _carry), and a
        node that does not reach t has no tight link in either."""
        out_links = self._g.out_links
        w, pd, pw = self._w, prev._dist[t], prev._w
        relisted = set()
        for v in nodes:
            if v not in d:
                continue
            dv, pv = d[v], pd[v]
            for x in out_links[v]:
                u = x.dst
                if u in d and (w[x.id] + d[u] == dv) != (pw[x.id] + pd[u] == pv):
                    relisted.add(v)
                    break
        return relisted


@dataclass
class _Moves:
    """What moved from one field to the next, per carried fill: nodes whose
    distance to (``dist``) or from (``from_source``) it changed, and nodes
    whose tight list toward it changed (``relisted``)."""

    dist: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    relisted: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    from_source: dict[str, set[str]] = dataclasses.field(default_factory=dict)


def shortest_path_field(g: NfviGraph, w: dict[str, int]) -> ShortestPathField:
    validate_weights(g, w)
    return ShortestPathField(g, w)


def ecmp_dag(g: NfviGraph, w: dict[str, int]) -> ShortestPathField:
    """A new field for (g, w), which holds its shortest-path DAGs."""
    return shortest_path_field(g, w)


@dataclass
class FlowAllocation:
    """Traffic placed on links for one demand, summed over its waypoint
    segments.  ``segments`` keeps, per segment routed, its exit b and the
    nodes _reached walked toward b, for reuse under the next weights; it
    takes no part in equality or repr."""

    demand_id: int | None
    waypoints: tuple[str, ...]
    chain: tuple[str, ...]
    link_flow: dict[str, float]
    segments: tuple[tuple[str, tuple[str, ...]], ...] = dataclasses.field(
        default=(), repr=False, compare=False
    )


def _split_segment(
    field: ShortestPathField,
    nodes: tuple[str, ...],
    exit: str,
    amount: float,
    link_flow: dict[str, float],
) -> dict[str, float]:
    """Add to ``link_flow``, and return it, the link flows of ``amount``
    sent from nodes[0] to exit, divided equally over the tight out-links of
    each node; an empty walk sends nothing.  ``nodes`` is _reached(field,
    entry, exit), which listed the tight out-links of every node it names,
    so they are read off the field's lists toward exit.  Each node is
    visited once, so a link takes one share of the segment: adding it
    straight into the sum over segments gives the floats a per-segment sum
    would."""
    inflow: dict[str, float] = dict.fromkeys(nodes[:1], amount)
    out = field._out[exit]
    for v in nodes:
        flow_in = inflow.get(v, 0.0)
        if flow_in <= 0.0:
            continue
        outs = out[v]
        # every reached node but the exit has a tight out-link
        share = flow_in / len(outs)
        for e in outs:
            link_flow[e.id] = link_flow.get(e.id, 0.0) + share
            inflow[e.dst] = inflow.get(e.dst, 0.0) + share
    return link_flow


def select_waypoints(
    g: NfviGraph,
    field: ShortestPathField,
    d: ServiceDemand,
    allowed_hosts: set[str] | None = None,
) -> tuple[str, ...] | None:
    """Hosting node per chain position: among capable nodes, pick the one
    minimizing dist(previous waypoint, v) + dist(v, destination), ties by
    smallest node id.  None when some position has no reachable host.

    One forward run from each previous waypoint and one reverse run to the
    destination score every host; both are fetched only once some host
    passes the filter."""
    waypoints = [d.src]
    to_dst: dict[str, float] | None = None
    for fn in d.chain:
        prev = waypoints[-1]
        from_prev: dict[str, float] | None = None
        best: tuple[float, str] | None = None
        for v in g.hosts_of(fn):
            if allowed_hosts is not None and v not in allowed_hosts:
                continue
            if from_prev is None:
                from_prev = field.from_source(prev)
                if to_dst is None:
                    to_dst = field.to_target(d.dst)
            cost = from_prev.get(v, INF) + to_dst.get(v, INF)
            if cost == INF:
                continue
            key = (cost, v)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        waypoints.append(best[1])
    waypoints.append(d.dst)
    return tuple(waypoints)


def route_demand_sfc(
    g: NfviGraph,
    field: ShortestPathField,
    d: ServiceDemand,
    amount: float | None = None,
    allowed_hosts: set[str] | None = None,
) -> FlowAllocation | None:
    """Route a demand through its function chain as concatenated equal-split
    segments over ``field``.  Returns None (a rejection, not an error) when
    no feasible sequence of hosting nodes exists or the destination is
    unreachable."""
    if amount is None:
        amount = d.volume
    if amount < 0:
        raise ValidationError([f"negative traffic amount {amount}"])
    if amount == 0:
        return FlowAllocation(d.id, (d.src, d.dst), d.chain, {})
    waypoints = select_waypoints(g, field, d, allowed_hosts)
    if waypoints is None:
        return None
    link_flow: dict[str, float] = {}
    segments = []
    for a, b in zip(waypoints, waypoints[1:]):
        if a == b:
            continue
        if field.dist(a, b) == INF:
            return None
        nodes = _reached(field, a, b)
        segments.append((b, nodes))
        _split_segment(field, nodes, b, amount, link_flow)
    return FlowAllocation(d.id, waypoints, d.chain, link_flow, tuple(segments))


class UtilizationReport:
    """The load ledger: link loads ``chi``, node compute ``node_usage``, the
    compute left at each node (``residual``) and ``r``, the largest link
    utilization chi/capacity.

    ``fits`` and ``add`` hold the one capacity rule.  A link takes a load
    while its total stays at most c + capacity_slack(c); a node takes a
    usage no greater than its residual compute plus capacity_slack of its
    capacity.  ``within_capacity`` and ``over_capacity_nodes`` apply the
    same comparisons to the whole load as if the ledger were empty.  Loads
    only grow, so ``add`` keeps ``r`` as a running maximum, equal to a
    rescan of every link.  The per-graph limits are never changed, so
    ``_emptied`` shares them with a new ledger."""

    def __init__(self, g: NfviGraph) -> None:
        self._g = g
        self._capacity = {e.id: e.capacity for e in g.links}
        self._link_limit = {e.id: e.capacity + capacity_slack(e.capacity) for e in g.links}
        self._node_slack = {v: capacity_slack(c) for v, c in g.node_capacity.items()}
        self._clear()

    def _clear(self) -> None:
        self.chi: dict[str, float] = dict.fromkeys(self._capacity, 0.0)
        self.node_usage: dict[str, float] = dict.fromkeys(self._node_slack, 0.0)
        self.residual: dict[str, float] = dict(self._g.node_capacity)
        self.r = 0.0

    def _emptied(self) -> UtilizationReport:
        """An empty ledger of this ledger's graph that shares its limits."""
        loads = copy.copy(self)
        loads._clear()
        return loads

    def fits(self, link_flow: dict[str, float], usage: dict[str, float]) -> bool:
        """Whether adding these link flows and node usages keeps every link
        and node within capacity."""
        chi, limit = self.chi, self._link_limit
        for eid, val in link_flow.items():
            if not chi[eid] + val <= limit[eid]:
                return False
        residual, slack = self.residual, self._node_slack
        for v, val in usage.items():
            if not val <= residual[v] + slack[v]:
                return False
        return True

    def add(self, link_flow: dict[str, float], usage: dict[str, float]) -> None:
        """Commit link flows and node usages, whether or not they fit."""
        chi, cap, r = self.chi, self._capacity, self.r
        for eid, val in link_flow.items():
            load = chi[eid] = chi[eid] + val
            util = load / cap[eid]
            if util > r:
                r = util
        self.r = r
        residual, node_usage = self.residual, self.node_usage
        for v, val in usage.items():
            residual[v] -= val
            node_usage[v] += val

    def within_capacity(self) -> bool:
        """Whether the whole load would fit an empty ledger of the graph:
        ``fits``' rule with no load before, read off this ledger's limits."""
        limit = self._link_limit
        return (all(val <= limit[eid] for eid, val in self.chi.items())
                and not self.over_capacity_nodes(self._g))

    def over_capacity_nodes(self, g: NfviGraph) -> list[str]:
        """Nodes whose whole usage would not fit an empty ledger of g, which
        must be this ledger's graph."""
        if g is not self._g:
            raise ValueError("g must be the graph this ledger was built for")
        cap, slack = g.node_capacity, self._node_slack
        return [v for v, used in self.node_usage.items() if not used <= cap[v] + slack[v]]


def _alloc_node_usage(alloc: FlowAllocation, g: NfviGraph) -> dict[str, float]:
    """Compute usage of one allocation: node v spends, for every chain
    position it can host, the demand's total incoming rate at v times the
    per-rate cost of that function."""
    usage: dict[str, float] = {}
    # only heads of loaded links have inflow; other nodes would add zero
    link_flow = alloc.link_flow
    heads = dict.fromkeys(g.link_by_id[eid].dst for eid in link_flow)
    inflow_cache: dict[str, float] = {}
    # g.can_host and g.cost, read without a call per (node, function) pair
    capability, cost = g._capability, g.vnf_cost
    for fn in alloc.chain:
        for v in heads:
            if (v, fn) not in capability:
                continue
            if v not in inflow_cache:
                inflow_cache[v] = sum(link_flow.get(e.id, 0.0) for e in g.in_links[v])
            usage[v] = usage.get(v, 0.0) + cost.get((v, fn), 0.0) * inflow_cache[v]
    return usage


def max_link_utilization(allocs: list[FlowAllocation], g: NfviGraph) -> UtilizationReport:
    """Aggregate link utilizations and per-node compute usage; r is a
    ratio, never a gate."""
    loads = UtilizationReport(g)
    for alloc in allocs:
        loads.add(alloc.link_flow, _alloc_node_usage(alloc, g))
    return loads


@dataclass
class _Routed:
    """One demand's routing under one field, kept for the next weight
    vector: its allocation, whose segments name the nodes each split
    visited, and its node usage."""

    demand: ServiceDemand
    alloc: FlowAllocation
    usage: dict[str, float]


@dataclass
class StreamResult:
    """Outcome of routing a whole demand sequence against fixed weights."""

    accepted_ids: tuple[int, ...]
    rejected_ids: tuple[int, ...]
    report: UtilizationReport
    allocations: tuple[FlowAllocation, ...]
    # what a later call may reuse: the field and each demand's routing in
    # arrival order, None where it was unroutable
    _field: ShortestPathField | None = dataclasses.field(default=None, repr=False, compare=False)
    _routed: tuple[_Routed | None, ...] = dataclasses.field(default=(), repr=False, compare=False)

    @property
    def acceptance_ratio(self) -> float:
        total = len(self.accepted_ids) + len(self.rejected_ids)
        return 1.0 if total == 0 else len(self.accepted_ids) / total


def route_stream(
    g: NfviGraph, w: dict[str, int], demands, prev: StreamResult | None = None
) -> StreamResult:
    """Route demands in order with capacity admission: commit each routable
    demand whose added load keeps every link within bandwidth and every node
    within compute, rejecting the rest.

    ``prev``, the result of routing the same demands on ``g`` under nearby
    weights, lets unchanged demand routings be reused; the result is the
    same as without it."""
    return _route_demands(g, w, demands, True, prev)


def route_all(
    g: NfviGraph, w: dict[str, int], demands, prev: StreamResult | None = None
) -> StreamResult | None:
    """Route every demand with no capacity gate; None when any demand is
    unroutable.  The report may show utilizations above 1, which callers
    judging joint feasibility (exhaustive weight search) inspect.  ``prev``
    is as for route_stream."""
    return _route_demands(g, w, demands, False, prev)


def _route_demands(
    g: NfviGraph, w: dict[str, int], demands, gate: bool, prev: StreamResult | None
) -> StreamResult | None:
    """The loop behind route_stream (``gate``: reject unroutable or
    overloading demands) and route_all (no gate; None on the first
    unroutable demand)."""
    field = shortest_path_field(g, w)
    if prev is not None and prev._field is not None and prev._field._g is g:
        moves, old, loads = field._carry(prev._field), prev._routed, prev.report._emptied()
    else:
        moves, old, loads = _Moves(), (), UtilizationReport(g)
    routed: list[_Routed | None] = []
    committed: list[FlowAllocation] = []
    accepted: list[int] = []
    rejected: list[int] = []
    for k, d in enumerate(demands):
        rec = old[k] if k < len(old) else None
        if rec is None or not (
            (rec.demand is d or rec.demand == d) and _still_holds(g, field, moves, rec)
        ):
            rec = _route(g, field, d)
        routed.append(rec)
        if rec is None:
            if not gate:
                return None
            rejected.append(d.id)
            continue
        alloc = rec.alloc
        if gate and not loads.fits(alloc.link_flow, rec.usage):
            rejected.append(d.id)
            continue
        loads.add(alloc.link_flow, rec.usage)
        committed.append(alloc)
        accepted.append(d.id)
    return StreamResult(
        accepted_ids=tuple(accepted),
        rejected_ids=tuple(rejected),
        report=loads,
        allocations=tuple(committed),
        _field=field,
        _routed=tuple(routed),
    )


def _route(g: NfviGraph, field: ShortestPathField, d: ServiceDemand) -> _Routed | None:
    """Route d from scratch; None when it is unroutable."""
    alloc = route_demand_sfc(g, field, d)
    return None if alloc is None else _Routed(d, alloc, _alloc_node_usage(alloc, g))


def _reached(field: ShortestPathField, a: str, b: str) -> tuple[str, ...]:
    """a, which must reach b, and every node it reaches over tight links
    toward b, except b, sorted by (-dist(v, b), v) so each comes before the
    heads of its tight out-links: the walk _split_segment takes."""
    dist = field.to_target(b)
    seen = {a}
    stack = [a]
    while stack:
        for e in field.out_links(stack.pop(), b):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    seen.discard(b)
    return tuple(sorted(seen, key=lambda v: (-dist[v], v)))


def _still_holds(g: NfviGraph, field: ShortestPathField, moves: _Moves, rec: _Routed) -> bool:
    """Whether routing rec.demand on ``field`` from scratch would give rec
    again, bit for bit, judged from what moved since rec's field; every
    fill rec read was carried over, so ``moves`` covers it.  One test
    decides, and it costs a few set lookups when nothing rec read moved.

    A zero volume is routed without reading the field.  Else, for each
    chain position, a chosen host stays while its score is unchanged and no
    host whose score moved now ranks before it; when its own score moved,
    the waypoints are chosen again and must come out the same.  A segment
    toward b repeats every float operation when each node it visits keeps
    its tight list toward b and the nodes keep their relative (-dist, id)
    order."""
    d = rec.demand
    if d.volume and d.chain:
        to_dst = moves.dist[d.dst]
        wp = rec.alloc.waypoints
        for k, fn in enumerate(d.chain):
            from_s = moves.from_source[wp[k]]
            if not (to_dst or from_s):
                continue
            moved = [v for v in g.hosts_of(fn) if v in to_dst or v in from_s]
            if not moved:
                continue
            host = wp[k + 1]
            if host in moved:
                if select_waypoints(g, field, d) != wp:
                    return False
                break
            # hosts whose scores did not move still rank after the host
            from_prev, to_dst_dist = field.from_source(wp[k]), field.to_target(d.dst)
            key = (from_prev[host] + to_dst_dist[host], host)
            if any(
                (from_prev.get(v, INF) + to_dst_dist.get(v, INF), v) < key for v in moved
            ):
                return False
    for b, nodes in rec.alloc.segments:
        if not moves.relisted[b].isdisjoint(nodes):
            return False
        if not moves.dist[b].isdisjoint(nodes):
            dist = field.to_target(b)
            keys = [(-dist[v], v) for v in nodes]
            if any(x >= y for x, y in zip(keys, keys[1:])):
                return False
    return True

