"""Online admission and multipath placement over balanced partitions.

Demands arrive one at a time.  Each group i keeps a traffic fraction z_i,
raised while the eligible groups' fractions sum below 1 by

    z_i <- z_i * (1 + 1/(pi_i * epsilon)) + 1/(pi_i * |Q(d)|)

where Q(d) is the set of groups able to host the demand's whole chain and
pi_i is the group's spanning-tree bandwidth cost.  One dual unit is charged
per raising sweep.  The demand's volume then splits across eligible groups
proportionally to z_i and each share is routed by equal-cost splitting on
the group's internal links plus shortest-path ramps from the source into
the group and from the group to the destination.  If the combined placement
exceeds any residual link bandwidth or node compute, the demand is rejected;
fraction and dual changes persist either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .fileio import csv_text, format_number
from .model import NfviGraph, ServiceDemand
from .partition import Partitioning
from .routing import (
    INF,
    ShortestPathField,
    UtilizationReport,
    _alloc_node_usage,
    _reached,
    route_demand_sfc,
    shortest_path_field,
    unit_weights,
)

GUARANTEE_TOL = 1e-9

EVENT_HEADER = "demand_id,decision,reason,sum_z,P_o,D_o,r_current,acceptance_ratio"


@dataclass(frozen=True)
class EventRecord:
    demand_id: int
    decision: str  # "accepted" | "rejected"
    reason: str  # "" | "no_eligible_partition" | "capacity"
    sum_z: float
    p_o: float
    d_o: int
    r_current: float
    acceptance_ratio: float


@dataclass(frozen=True)
class AdmissionDecision:
    demand_id: int
    accepted: bool
    reason: str
    shares: dict[int, float]
    link_delta: dict[str, float]


class OrbitState:
    """Mutable run state: fractions, duals, link loads, node budgets, history.

    Single-writer: demands must be processed strictly one at a time.
    """

    def __init__(
        self,
        g: NfviGraph,
        partitioning: Partitioning,
        w: dict[str, int] | None = None,
    ) -> None:
        self.g = g
        self.part = partitioning
        self.w = dict(w) if w is not None else unit_weights(g)
        self.field: ShortestPathField = shortest_path_field(g, self.w)
        k = partitioning.kappa
        self.z: list[float] = [0.0] * k
        self.zeta: dict[int, int] = {}
        self.demand_q: dict[int, tuple[int, ...]] = {}
        # accepted demands' loads; chi and residual_node are the ledger's dicts
        self.loads = UtilizationReport(g)
        self.chi: dict[str, float] = self.loads.chi
        self.residual_node: dict[str, float] = self.loads.residual
        self.p_o: float = 0.0
        self.d_o: int = 0
        self.trace: list[tuple[int, float, int]] = []
        self.events: list[EventRecord] = []
        self.accepted_count: int = 0
        # share fields with at most one ramp (see _chained_field)
        self._subgraphs: dict[tuple[int, str | None, str | None], ShortestPathField | None] = {}

    def max_utilization(self) -> float:
        """max(chi/capacity) rescanned over every link.  It equals loads.r,
        and checkers call it to test that running maximum independently."""
        return max((self.chi[e.id] / e.capacity for e in self.g.links), default=0.0)

    def acceptance_ratio(self) -> float:
        if not self.demand_q:
            return 1.0
        return self.accepted_count / len(self.demand_q)

    def events_csv(self) -> str:
        return csv_text(
            EVENT_HEADER,
            (
                (ev.demand_id, ev.decision, ev.reason, ev.sum_z, ev.p_o, ev.d_o,
                 ev.r_current, ev.acceptance_ratio)
                for ev in self.events
            ),
        )


def eligible_partitions(
    d: ServiceDemand, part: Partitioning, g: NfviGraph, residual_node: dict[str, float]
) -> dict[int, set[str]]:
    """Each eligible group's members with compute left, in group order.  A
    group is eligible when those members can host every function of the
    chain; an empty chain makes every group eligible."""
    out = {}
    for p in part.parts:
        hosts = {v for v in p.nodes if residual_node[v] > 0}
        if all(not hosts.isdisjoint(g._hosts.get(fn, ())) for fn in d.chain):
            out[p.index] = hosts
    return out


def _share_field(state: OrbitState, i: int, d: ServiceDemand) -> ShortestPathField | None:
    """Group i's share field for d (see _chained_field).  A member endpoint
    is keyed as None: weights are >= 1, so a member is its own unique
    closest member and adds no ramp."""
    members = state.part.parts[i].nodes
    return _chained_field(
        state, i, None if d.src in members else d.src, None if d.dst in members else d.dst
    )


def _share_router(
    state: OrbitState, i: int, d: ServiceDemand
) -> ShortestPathField | _ChainedShare | None:
    """What group i's share of d routes on, None when no path of the share
    field joins d's source to its destination.

    A share with a member endpoint routes on its cached field, and so does
    a chainless share, or a chained one whose ramps meet outside the group,
    on its two-ramp field.  Any other chained share with both endpoints
    outside is a _ChainedShare over the cached fields A (i, src, None), G
    (i, None, None) and B (i, None, dst).  That is exact: a ramp holds no
    member but its end, the closest member, since a member on it would be
    closer.  So the entry ramp's nodes outside the group are the tails of
    its links, the exit ramp's the heads of its links, and when the two
    sets are disjoint a path leaves a member only on group and exit-ramp
    links and enters one only over entry-ramp and group links.  Each walk
    and score then reads the two-ramp field's distances and tight lists,
    and the endpoints are joined exactly when A's fill from the source and
    B's fill to the destination share a node, which can only be a member."""
    members = state.part.parts[i].nodes
    if d.chain and d.src not in members and d.dst not in members:
        entry, exit = _chained_field(state, i, d.src, None), _chained_field(state, i, None, d.dst)
        if entry is None or exit is None:
            return None
        if {e.src for e in entry._added}.isdisjoint([e.dst for e in exit._added]):
            if entry.from_source(d.src).keys().isdisjoint(exit.to_target(d.dst)):
                return None
            return _ChainedShare(entry, exit, d.src, d.dst)
    field = _share_field(state, i, d)
    return None if field is None or field.dist(d.src, d.dst) == INF else field


class _ChainedShare:
    """A chained share read off its cached fields (see _share_router): host
    scores and segments from the source on A, from a member on G, and
    toward the destination on B."""

    __slots__ = ("_entry", "_group", "_exit", "_src", "_dst")

    def __init__(self, entry: ShortestPathField, exit: ShortestPathField, src: str, dst: str):
        self._entry, self._group, self._exit = entry, exit._base, exit
        self._src, self._dst = src, dst

    def from_source(self, s: str) -> dict[str, float]:
        return (self._entry if s == self._src else self._group).from_source(s)

    def to_target(self, t: str) -> dict[str, float]:
        return self._exit.to_target(t)

    def along(self, a: str, b: str) -> ShortestPathField:
        if a == self._src:
            return self._entry
        return self._exit if b == self._dst else self._group


def _chained_field(
    state: OrbitState, i: int, src: str | None, dst: str | None
) -> ShortestPathField | None:
    """The share field of key (i, src, dst), extended from the one of one
    ramp fewer: (i, None, None) holds the group's links alone, (i, src,
    None) and (i, None, dst) add one ramp each (see _ramp), and (i, src,
    dst) adds to (i, None, dst) the links (i, src, None) added.  It is None
    when a ramp does not exist.  Fields with at most one ramp are cached,
    at most kappa*(1 + 2|V|) of them, so each ramp is computed once per
    run; a two-ramp field is built on each call and not kept."""
    key = (i, src, dst)
    if key in state._subgraphs:
        return state._subgraphs[key]
    if src is not None and dst is not None:
        exit, entry = _chained_field(state, i, None, dst), _chained_field(state, i, src, None)
        if exit is None or entry is None:
            return None
        return exit.extended(state.w, [e.id for e in entry._added])
    if src is None and dst is None:
        # a mask, not g.restricted(): subgraph copies give equal results, slower and larger
        field = ShortestPathField(state.g, state.w, state.part.parts[i].link_ids)
    else:
        group = _chained_field(state, i, None, None)
        ramp = _ramp(state, i, dst if src is None else src, src is not None)
        field = None if ramp is None else group.extended(state.w, ramp)
    state._subgraphs[key] = field
    return field


def _ramp(state: OrbitState, i: int, v: str, entry: bool) -> set[str] | None:
    """Link ids on every shortest path from node v to group i's closest
    member (``entry``) or from the group's closest member to v, ties by
    id; None when no member is reachable that way."""
    field = state.field
    dist = field.from_source(v) if entry else field.to_target(v)
    nearest = min(((dist[u], u) for u in state.part.parts[i].nodes if u in dist), default=None)
    if nearest is None:
        return None
    a, b = (v, nearest[1]) if entry else (nearest[1], v)
    return {e.id for u in _reached(field, a, b) for e in field.out_links(u, b)}


def process_demand(state: OrbitState, d: ServiceDemand) -> AdmissionDecision:
    """Admit or reject one arriving demand, updating fractions and duals.

    Raising sweeps run while the eligible fractions sum below 1; fraction
    and dual increases persist even when the demand is then rejected for
    capacity, and only accepted demands add load to ``state.loads``, whose
    ``fits`` judges the whole placement against link bandwidth and node
    compute.
    """
    if d.id in state.demand_q:
        raise ValidationError([f"demand {d.id} was already processed"])
    hosts = eligible_partitions(d, state.part, state.g, state.residual_node)
    q_ids = state.demand_q[d.id] = tuple(hosts)

    z, eps = state.z, state.part.epsilon
    # per eligible group: (i, pi_i, 1 + 1/(pi_i*eps), 1/(pi_i*|Q|)), the
    # same for every sweep of the demand
    steps = []
    for i in q_ids:
        pi = state.part.parts[i].pi
        steps.append((i, pi, 1.0 + 1.0 / (pi * eps), 1.0 / (pi * len(q_ids))))
    # each sweep sums the new fractions as it makes them, from int 0 in
    # group order as sum() would; duals are written back once per demand
    sweeps, p_o, d_o, trace = 0, state.p_o, state.d_o, state.trace
    total = sum(z[i] for i in q_ids)
    while q_ids and total < 1.0:
        d_p, total = 0.0, 0
        for i, pi, growth, lift in steps:
            old = z[i]
            new = z[i] = old * growth + lift
            d_p += pi * (new - old)
            total += new
        sweeps += 1
        p_o += d_p
        d_o += 1
        trace.append((d.id, d_p, 1))
    state.zeta[d.id], state.p_o, state.d_o = sweeps, p_o, d_o

    total_z = sum((z[i] for i in q_ids), 0.0)
    shares = {i: d.volume * z[i] / total_z for i in q_ids}
    link_delta: dict[str, float] = {}
    node_delta: dict[str, float] = {}
    reason = "" if q_ids else "no_eligible_partition"
    # Every route through waypoints is a source-to-destination path in its
    # share's field, so a field that cannot join the endpoints rejects the
    # demand before any share is routed.  A zero share places nothing.
    fields: dict[int, ShortestPathField | _ChainedShare] = {}
    for i in q_ids:
        if shares[i] == 0:
            continue
        field = _share_router(state, i, d)
        if field is None:
            reason = "capacity"
            fields = {}
            break
        fields[i] = field
    for i, field in fields.items():
        alloc = route_demand_sfc(state.g, field, d, amount=shares[i], allowed_hosts=hosts[i])
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
    state.events.append(
        EventRecord(
            demand_id=d.id,
            decision="accepted" if accepted else "rejected",
            reason=reason,
            sum_z=total_z,
            p_o=state.p_o,
            d_o=state.d_o,
            r_current=state.loads.r,
            acceptance_ratio=state.acceptance_ratio(),
        )
    )
    return AdmissionDecision(
        demand_id=d.id,
        accepted=accepted,
        reason=reason,
        shares=shares,
        link_delta=link_delta,
    )


@dataclass(frozen=True)
class GuaranteeCheck:
    name: str
    ok: bool
    detail: str


@dataclass
class GuaranteeReport:
    checks: tuple[GuaranteeCheck, ...]
    empirical_dual_scale: float | None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "VIOLATED"
            lines.append(f"{c.name}: {status} ({c.detail})")
        scale = (
            format_number(self.empirical_dual_scale)
            if self.empirical_dual_scale is not None
            else "undefined"
        )
        lines.append(f"empirical_dual_scale: {scale}")
        return "\n".join(lines) + "\n"


def verify_guarantees(state: OrbitState) -> GuaranteeReport:
    """Check the run's analytic properties on the current state.

    coverage   - processed demands with eligible groups have fractions
                 summing to at least 1
    dual_load  - per group i, the duals of its demands stay within
                 log(3*kappa+1) * (1 + pi_i*epsilon)
    share_cap  - every fraction z_i stays at or below 3
    cost_gap   - the primal cost stays within twice the dual cost
    step_gap   - each sweep raised the dual by exactly 1 and the primal by
                 at most 2
    growth_floor - z_i >= ((1+1/(pi_i*eps))^{dual load of i} - 1)/kappa

    The reported empirical scale is max_i dual_load_i/(pi_i*eps*ln kappa),
    the measured counterpart of the competitive-ratio scaling (undefined
    for a single group).
    """
    kappa = state.part.kappa
    eps = state.part.epsilon
    checks: list[GuaranteeCheck] = []

    worst: tuple[float, int] | None = None
    cover_ok = True
    detail = "no demands with eligible groups"
    # each group's dual load: the duals of the demands it was eligible for
    loads = {p.index: 0 for p in state.part.parts}
    for d_id, q_ids in state.demand_q.items():
        if not q_ids:
            continue
        for i in q_ids:
            loads[i] += state.zeta[d_id]
        total = sum(state.z[i] for i in q_ids)
        if worst is None or total < worst[0]:
            worst = (total, d_id)
    if worst is not None:
        cover_ok = worst[0] >= 1.0 - GUARANTEE_TOL
        detail = f"min coverage {worst[0]:.12g} at demand {worst[1]}"
    checks.append(GuaranteeCheck("coverage", cover_ok, detail))

    dual_ok = True
    details = []
    for p in state.part.parts:
        bound = math.log(3 * kappa + 1) * (1.0 + p.pi * eps)
        if loads[p.index] > bound + GUARANTEE_TOL:
            dual_ok = False
            details.append(
                f"group {p.index} load {loads[p.index]} exceeds {bound:.12g}"
            )
    if not details:
        details.append(
            "max load "
            + str(max(loads.values(), default=0))
            + f" within bounds for {kappa} groups"
        )
    checks.append(GuaranteeCheck("dual_load", dual_ok, "; ".join(details)))

    z_max = max(state.z, default=0.0)
    z_arg = state.z.index(z_max) if state.z else 0
    checks.append(
        GuaranteeCheck(
            "share_cap",
            z_max <= 3.0 + GUARANTEE_TOL,
            f"max fraction {z_max:.12g} at group {z_arg}",
        )
    )

    p_now = sum(p.pi * state.z[p.index] for p in state.part.parts)
    checks.append(
        GuaranteeCheck(
            "cost_gap",
            p_now <= 2.0 * state.d_o + GUARANTEE_TOL,
            f"primal {p_now:.12g} vs dual {state.d_o}",
        )
    )

    step_ok = True
    step_detail = f"{len(state.trace)} sweeps"
    for d_id, d_p, d_d in state.trace:
        if d_d != 1 or d_p > 2.0 + GUARANTEE_TOL:
            step_ok = False
            step_detail = f"sweep at demand {d_id}: primal step {d_p:.12g}, dual step {d_d}"
            break
    checks.append(GuaranteeCheck("step_gap", step_ok, step_detail))

    floor_ok = True
    floor_detail = "all groups at or above the growth floor"
    for p in state.part.parts:
        try:
            floor = ((1.0 + 1.0 / (p.pi * eps)) ** loads[p.index] - 1.0) / kappa
        except OverflowError:
            # a floor past the float range is above any fraction
            floor = INF
        if state.z[p.index] < floor - GUARANTEE_TOL:
            floor_ok = False
            floor_detail = (
                f"group {p.index} fraction {state.z[p.index]:.12g} below {floor:.12g}"
            )
            break
    checks.append(GuaranteeCheck("growth_floor", floor_ok, floor_detail))

    scale = None
    if kappa >= 2:
        ratios = [
            loads[p.index] / (p.pi * eps * math.log(kappa))
            for p in state.part.parts
        ]
        scale = max(ratios) if ratios else None
    return GuaranteeReport(checks=tuple(checks), empirical_dual_scale=scale)


def run_stream(
    g: NfviGraph,
    demands,
    partitioning: Partitioning,
    w: dict[str, int] | None = None,
) -> OrbitState:
    """Process a whole arrival sequence and return the final state."""
    state = OrbitState(g, partitioning, w)
    for d in demands:
        process_demand(state, d)
    return state
