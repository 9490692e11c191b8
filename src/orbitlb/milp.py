"""Symbolic mixed-integer model for offline weight optimization.

The model minimizes the maximum link utilization r over integer link weights
and per-flow traffic variables, tying flows to equal-cost shortest paths.
Constraint families are numbered 1..14:

  1-3   flow balance (relay nodes, source emission, destination absorption)
  4     link bandwidth against r
  5     equal traffic share on shortest-path out-links of a node (two-sided)
  6     zero flow off the destination's shortest-path subgraph
  7     weights versus distance labels defining that subgraph (two-sided)
  8     every weight at least 1
  9-10  flow must touch a capable node per chain position / be nonzero
  11-13 per-flow link-use indicators and path-like propagation
  14    node compute capacity

Strict inequalities in families 9-10 are relaxed to >= DELTA * volume, which
LP text can express; the relaxation is recorded in the export header.

``MilpModel.iter_blocks`` is the one description of the rows: blocks of
template rows and the fills they repeat over, per link and demand (c6, c7)
or per link over every (demand, flow) pair (c11-c13).  ``iter_rows`` expands
them for the checker, ``family_counts`` counts them, and the LP writer makes
each template's text once and puts each fill into it with one ``%``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .errors import RoutingError, ValidationError
from .fileio import format_number, write_text
from .model import NfviGraph, ServiceDemand, validate, validate_demands
from .routing import INF, FlowAllocation, max_link_utilization, shortest_path_field

DELTA = 1e-4
CHECK_TOL = 1e-9


class Row(NamedTuple):
    name: str
    family: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=", ">=", "="
    rhs: float
    side: str = ""  # "lo"/"hi" halves of a two-sided constraint, else ""


class Block(NamedTuple):
    """Template rows repeated over fills: a fill goes into each row's name
    and variable names with ``%``.  ``key`` names the templates where
    other blocks share them, else it is None."""

    key: tuple | None
    rows: tuple[Row, ...]
    fills: tuple[dict[str, str], ...]


# the one fill of a block whose rows have no placeholders
_ONCE: tuple[dict[str, str], ...] = ({},)


def _wvar(eid: str) -> str:
    return f"w_{eid}"


def _lvar(v: str, t: str) -> str:
    return f"l_{v}_{t}"


def _uvar(eid: str, t: str) -> str:
    return f"u_{eid}_{t}"


def _gvar(v: str, t: str) -> str:
    return f"g_{v}_{t}"


def _xvar(eid: str, p: int, d: int) -> str:
    return f"x_{eid}_{p}_{d}"


def _bvar(eid: str, p: int, d: int) -> str:
    return f"b_{eid}_{p}_{d}"


@dataclass
class MilpModel:
    """The instance and the model's constants.  Variables and constraint
    rows are not stored: ``iter_variables`` and ``iter_blocks`` yield them."""

    g: NfviGraph
    demands: tuple[ServiceDemand, ...]
    m_z: float
    flows_per_demand: int
    targets: tuple[str, ...]

    def iter_variables(self) -> Iterator[tuple[str, str, float]]:
        """Every variable as ``(name, kind, lower bound)``, kind one of
        "continuous", "integer" and "binary", in declaration order: r, the
        link weights, then per target the distance labels (nodes v != t),
        link-use indicators and split rates, then per demand and flow copy
        each link's traffic and use indicator."""
        eids = [e.id for e in self.g.links]
        nodes = self.g.node_capacity
        yield "r", "continuous", 0.0
        for eid in eids:
            yield _wvar(eid), "integer", 1.0
        for t in self.targets:
            for v in nodes:
                if v != t:
                    yield _lvar(v, t), "integer", 0.0
            for eid in eids:
                yield _uvar(eid, t), "binary", 0.0
            for v in nodes:
                yield _gvar(v, t), "continuous", 0.0
        prefixes = [(f"x_{eid}_", f"b_{eid}_") for eid in eids]
        for d in self.demands:
            for p in range(self.flows_per_demand):
                s = f"{p}_{d.id}"
                for xp, bp in prefixes:
                    yield xp + s, "continuous", 0.0
                    yield bp + s, "binary", 0.0

    def iter_blocks(self) -> Iterator[Block]:
        """The constraint rows as blocks, family by family in the order
        1..14; a block's fills, each put into its templates in turn, give
        its rows in order.

        c11-c13 are a block each of one template per link, whose ``%(n)s``
        (``<demand>_<flow>``, in the name) and ``%(v)s`` (``<flow>_<demand>``,
        in the variables) every (demand, flow) pair fills.  c6 templates are
        per (target, volume) and c7 templates per target; each demand's
        block fills ``%(d)s`` with its id and shares the key of its
        templates.  The other families are blocks of one row and the empty
        fill.  Ids match ``[A-Za-z0-9_]+``, so no name holds a stray ``%``.

        The big-M constant is the maximum link capacity.  Distance labels
        toward a target t exist for nodes v != t; occurrences of the
        target's own label are the constant 0.  Terms come in a fixed order,
        and a term whose coefficient is zero is left out.  ``validate``
        rejects link capacities <= 0, so M_z > 0 and c4's capacity term and
        the M_z terms of c7, c11 and c12 are always there.  ``build_model``
        has rejected self-loops and colliding names, so no variable occurs
        twice in one row.
        """
        g, demands, targets, m_z = self.g, self.demands, self.targets, self.m_z
        flows = range(self.flows_per_demand)
        links = g.links
        nodes = g.node_capacity
        eids = [e.id for e in links]
        at = {eid: i for i, eid in enumerate(eids)}
        out_at = {v: [at[e.id] for e in g.out_links.get(v, ())] for v in nodes}
        in_at = {v: [at[e.id] for e in g.in_links.get(v, ())] for v in nodes}
        tail_in_at = [in_at[e.src] for e in links]
        x_prefix = [f"x_{eid}_" for eid in eids]
        w_names = [_wvar(eid) for eid in eids]

        def once(*rows: Row) -> Block:
            return Block(None, rows, _ONCE)

        def suffixes(ds: Iterable[ServiceDemand]) -> list[str]:
            return [f"{p}_{d.id}" for d in ds for p in flows]

        def x_terms(d: ServiceDemand, c: float) -> list[list[tuple[float, str]]]:
            # per flow, the term (c, x) of every link, indexed by link position
            return [[(c, pre + s) for pre in x_prefix] for s in suffixes((d,))]

        u_cache: dict[str, list[str]] = {}

        def u_names(t: str) -> list[str]:
            if t not in u_cache:
                u_cache[t] = [_uvar(eid, t) for eid in eids]
            return u_cache[t]

        for d in demands:
            plus, minus = x_terms(d, 1.0), x_terms(d, -1.0)
            for v in nodes:
                if v in (d.src, d.dst):
                    continue
                outs, ins = out_at[v], in_at[v]
                terms: list[tuple[float, str]] = []
                for p in flows:
                    terms += [plus[p][i] for i in outs]
                    terms += [minus[p][i] for i in ins]
                yield once(Row(f"c1_{d.id}_{v}", "1", tuple(terms), "=", 0.0))
        for d in demands:
            terms = tuple([(1.0, x_prefix[i] + s) for s in suffixes((d,)) for i in out_at[d.src]])
            yield once(Row(f"c2_{d.id}", "2", terms, "=", d.volume))
        for d in demands:
            terms = tuple([(1.0, x_prefix[i] + s) for s in suffixes((d,)) for i in in_at[d.dst]])
            yield once(Row(f"c3_{d.id}", "3", terms, "=", d.volume))

        every = suffixes(demands)
        for i, e in enumerate(links):
            terms = [(1.0, x_prefix[i] + s) for s in every]
            yield once(Row(f"c4_{e.id}", "4", (*terms, (-e.capacity, "r")), "<=", 0.0))

        for t in targets:
            h_total = sum(d.volume for d in demands if d.dst == t)
            bound = suffixes([d for d in demands if d.dst == t])
            us = u_names(t)
            for i, e in enumerate(links):
                lo = (
                    (1.0, _gvar(e.src, t)),
                    *[(-1.0, x_prefix[i] + s) for s in bound],
                )
                hi = (*lo, (h_total, us[i])) if h_total else lo
                yield once(
                    Row(f"c5_{e.id}_{t}_lo", "5", lo, ">=", 0.0, side="lo"),
                    Row(f"c5_{e.id}_{t}_hi", "5", hi, "<=", h_total, side="hi"),
                )

        # c6 templates per (target, volume) and c7 templates per target;
        # each demand fills its id into them
        shared: dict[tuple, tuple[Row, ...]] = {}
        x_flows = [tuple([(1.0, f"{pre}{p}_%(d)s") for p in flows]) for pre in x_prefix]
        for d in demands:
            key, us = ("6", d.dst, d.volume), u_names(d.dst)
            if key not in shared:
                shared[key] = tuple([
                    Row(f"c6_%(d)s_{eid}", "6", (*x, (-d.volume, u)) if d.volume else x, "<=", 0.0)
                    for eid, x, u in zip(eids, x_flows, us)
                ])
            yield Block(key, shared[key], ({"d": str(d.id)},))
        for d in demands:
            t = d.dst
            key, us = ("7", t), u_names(t)
            if key not in shared:
                rows: list[Row] = []
                for e, w, u in zip(links, w_names, us):
                    head = [(1.0, _lvar(e.dst, t))] if e.dst != t else []
                    tail = [(-1.0, _lvar(e.src, t))] if e.src != t else []
                    common = (*head, (1.0, w), *tail)
                    rows += [
                        Row(f"c7_%(d)s_{e.id}_lo", "7", (*common, (1.0, u)), ">=", 1.0, "lo"),
                        Row(f"c7_%(d)s_{e.id}_hi", "7", (*common, (m_z, u)), "<=", m_z, "hi"),
                    ]
                shared[key] = tuple(rows)
            yield Block(key, shared[key], ({"d": str(d.id)},))

        for eid, w in zip(eids, w_names):
            yield once(Row(f"c8_{eid}", "8", ((1.0, w),), ">=", 1.0))

        hosts: dict[str, list[tuple[int, float]]] = {}
        for d in demands:
            if d.volume <= 0:
                continue
            for i, fn in enumerate(d.chain):
                if fn not in hosts:
                    hosts[fn] = [
                        (j, float(k))
                        for j, e in enumerate(links)
                        if (k := int(g.can_host(e.src, fn)) + int(g.can_host(e.dst, fn)))
                    ]
                for p, s in zip(flows, suffixes((d,))):
                    terms = tuple([(k, x_prefix[j] + s) for j, k in hosts[fn]])
                    yield once(Row(f"c9_{d.id}_{i}_{p}", "9", terms, ">=", DELTA * d.volume))
        for d in demands:
            if d.volume <= 0:
                continue
            for p, terms in enumerate(x_terms(d, 1.0)):
                yield once(Row(f"c10_{d.id}_{p}", "10", tuple(terms), ">=", DELTA * d.volume))

        # one template per link for each of c11-c13, filled by every
        # (demand, flow) pair
        pairs = tuple([{"n": f"{d.id}_{p}", "v": f"{p}_{d.id}"} for d in demands for p in flows])
        x = [(1.0, f"{pre}%(v)s") for pre in x_prefix]
        b = [(-m_z, f"b_{eid}_%(v)s") for eid in eids]
        down = [(x[i], *[(-1.0, x[j][1]) for j in tail_in_at[i]]) for i in range(len(eids))]
        for fam, terms, sense, rhs in (
            ("11", list(zip(x, b)), "<=", 0.0),
            ("12", [(*dn, bi) for dn, bi in zip(down, b)], ">=", -m_z),
            ("13", down, "<=", 0.0),
        ):
            rows = [Row(f"c{fam}_%(n)s_{eid}", fam, ts, sense, rhs) for eid, ts in zip(eids, terms)]
            yield Block(None, tuple(rows), pairs)

        for v in nodes:
            terms = []
            for d in demands:
                per_rate = sum(g.cost(v, fn) for fn in d.chain if g.can_host(v, fn))
                if per_rate:
                    terms += [
                        (per_rate, x_prefix[i] + s) for s in suffixes((d,)) for i in in_at[v]
                    ]
            yield once(Row(f"c14_{v}", "14", tuple(terms), "<=", g.node_capacity[v]))

    def iter_rows(self) -> Iterator[Row]:
        """Every constraint row, family by family in the order 1..14: the
        blocks of ``iter_blocks`` with each fill put into its templates."""
        for _key, templates, fills in self.iter_blocks():
            for fill in fills:
                if not fill:
                    yield from templates
                    continue
                for row in templates:
                    yield row._replace(
                        name=row.name % fill, terms=tuple([(c, v % fill) for c, v in row.terms])
                    )

    @property
    def rows(self) -> list[Row]:
        """All rows as a list; builds every row again on each access."""
        return list(self.iter_rows())

    def family_counts(self) -> dict[str, int]:
        """Constraints per family; the two halves of a two-sided constraint
        count once."""
        counts: dict[str, int] = {}
        for block in self.iter_blocks():
            _count(counts, block)
        return counts


def _count(counts: dict[str, int], block: Block) -> None:
    """Tally the block's constraints per family: each template once per
    fill, the two halves of a two-sided constraint once."""
    n = len(block.fills)
    for row in block.rows if n else ():
        if row.side != "hi":
            counts[row.family] = counts.get(row.family, 0) + n


def build_model(
    g: NfviGraph, demands: list[ServiceDemand], flows_per_demand: int = 2
) -> MilpModel:
    """Check the instance; the model yields its variables and constraint
    rows on demand.  Targets are the distinct demand destinations.  Raises
    ValidationError when ``validate`` or ``validate_demands`` reports a
    problem, since the rows assume a well-formed instance, when a demand id
    is negative (LP text would read its '-' in a name as a minus sign), or
    when two generated variable names collide.
    """
    if flows_per_demand < 1:
        raise ValidationError([f"flows per demand must be >= 1, got {flows_per_demand}"])
    problems = validate(g) + validate_demands(demands, g)
    problems += [f"demand {d.id}: negative id cannot be an LP name" for d in demands if d.id < 0]
    if problems:
        raise ValidationError(problems)
    model = MilpModel(
        g=g,
        demands=tuple(demands),
        m_z=g.max_link_capacity(),
        flows_per_demand=flows_per_demand,
        targets=tuple(sorted({d.dst for d in demands})),
    )
    names: set[str] = set()
    for name, _kind, _lb in model.iter_variables():
        if name in names:
            raise ValidationError([f"generated variable name {name} collides; use distinct ids"])
        names.add(name)
    return model


class _NumberText(dict):
    """The LP text of each number met in one export, made once by ``fmt``.
    Numbers of magnitude 1e16 and up (and nan) are not kept: there
    ``format_number`` writes an int and an equal float differently."""

    def __init__(self, fmt: Callable[[float], str]) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, x: float) -> str:
        text = self.fmt(x)
        if abs(x) < 1e16:
            self[x] = text
        return text


def _term_prefix(c: float) -> str:
    """The text before a variable with coefficient ``c``, written as a
    float: "+ " or "- 3000 "."""
    sign = "+" if c >= 0 else "-"
    mag = abs(float(c))
    return f"{sign} " if mag == 1.0 else f"{sign} {format_number(mag)} "


def _format_terms(terms: tuple[tuple[float, str], ...], prefix: _NumberText) -> str:
    return " ".join([prefix[c] + v for c, v in terms])


_CHUNK = 1024


def _section(title: str, lines: Iterator[str]) -> Iterator[str]:
    """``title`` then ``lines`` joined ``_CHUNK`` at a time; nothing at all
    when there are no lines."""
    chunk = "".join(islice(lines, _CHUNK))
    if chunk:
        yield title
    while chunk:
        yield chunk
        chunk = "".join(islice(lines, _CHUNK))


def _lp_lines(model: MilpModel, counts: dict[str, int]) -> Iterator[str]:
    """The model's LP text, each piece ending in a newline: the lines of a
    block per fill, the tail sections in chunks of lines.  A block's text is
    made once per key, then each fill goes in with one ``%``.  Rows without
    terms are omitted (they carry no variables and LP rows cannot be empty)
    but still counted: ``counts`` receives the constraints per family as the
    blocks go by."""
    yield (
        f"\\ delta = {format_number(DELTA)} "
        "(relaxation of strict traversal inequalities)\n"
    )
    yield f"\\ M_z = {format_number(model.m_z)}\n"
    yield "Minimize\n"
    yield " obj: + r\n"
    yield "Subject To\n"
    prefix, rhs_text = _NumberText(_term_prefix), _NumberText(format_number)
    texts: dict[tuple, str] = {}
    for block in model.iter_blocks():
        _count(counts, block)
        text = texts.get(block.key)
        if text is None:
            text = "".join([
                f" {row.name}: {_format_terms(row.terms, prefix)} {row.sense} "
                f"{rhs_text[row.rhs]}\n"
                for row in block.rows
                if row.terms
            ])
            if block.key:
                texts[block.key] = text
        if text:
            for fill in block.fills:
                yield text % fill
    # Bounds and Generals hold only the few weight and label names, so one
    # walk lists both; the many binaries stream from a second walk.
    bounds: list[str] = []
    generals: list[str] = []
    for n, k, lb in model.iter_variables():
        if lb != 0.0:
            bounds.append(f" {n} >= {format_number(lb)}\n")
        if k == "integer":
            generals.append(f" {n}\n")
    yield from _section("Bounds\n", iter(bounds))
    yield from _section("Generals\n", iter(generals))
    yield from _section(
        "Binaries\n", (f" {n}\n" for n, k, _lb in model.iter_variables() if k == "binary")
    )
    yield "End\n"


def export_lp(model: MilpModel) -> str:
    """The model in LP text syntax, as one string."""
    return "".join(_lp_lines(model, {}))


def write_lp(model: MilpModel, path: str) -> dict[str, int]:
    """Stream the model's LP text to ``path`` as its rows are built; returns
    the constraints per family, as ``family_counts`` would."""
    counts: dict[str, int] = {}
    write_text(path, _lp_lines(model, counts))
    return counts


@dataclass(frozen=True)
class SolutionCandidate:
    """A value for every model variable."""

    values: dict[str, float]

    def __getitem__(self, name: str) -> float:
        return self.values[name]


@dataclass(frozen=True)
class Violation:
    row: str
    family: str
    residual: float


@dataclass
class FeasibilityReport:
    violations: tuple[Violation, ...]
    objective: float

    @property
    def feasible(self) -> bool:
        return not self.violations

    def by_family(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.family] = counts.get(v.family, 0) + 1
        return counts

    def count_in(self, families: tuple[str, ...]) -> int:
        want = set(families)
        return sum(1 for v in self.violations if v.family in want)


def check_solution(model: MilpModel, cand: SolutionCandidate) -> FeasibilityReport:
    """Evaluate every constraint row and variable domain against a candidate.

    Violations carry the constraint family and the residual by which the row
    fails; relative tolerance 1e-9 on the larger of 1, |lhs|, |rhs|.
    """
    missing = [name for name, _kind, _lb in model.iter_variables() if name not in cand.values]
    if missing:
        raise ValidationError([f"candidate is missing variable {n}" for n in missing[:20]])
    violations: list[Violation] = []
    for name, kind, lb in model.iter_variables():
        val = cand.values[name]
        if kind in ("integer", "binary") and abs(val - round(val)) > CHECK_TOL:
            violations.append(Violation(name, "domain", abs(val - round(val))))
        if kind == "binary" and not (-CHECK_TOL <= val <= 1 + CHECK_TOL):
            violations.append(Violation(name, "domain", abs(val - 0.5) - 0.5))
        if val < lb - CHECK_TOL:
            violations.append(Violation(name, "domain", lb - val))
    for row in model.iter_rows():
        lhs = sum(c * cand.values[v] for c, v in row.terms)
        tol = CHECK_TOL * max(1.0, abs(lhs), abs(row.rhs))
        residual = 0.0
        if row.sense == "=":
            residual = abs(lhs - row.rhs)
        elif row.sense == "<=":
            residual = lhs - row.rhs
        else:
            residual = row.rhs - lhs
        if residual > tol:
            violations.append(Violation(row.name, row.family, residual))
    return FeasibilityReport(
        violations=tuple(violations), objective=cand.values.get("r", 0.0)
    )


def candidate_from_routing(
    model: MilpModel,
    g: NfviGraph,
    w: dict[str, int],
    demands: list[ServiceDemand],
    allocations: Sequence[FlowAllocation],
) -> SolutionCandidate:
    """Lift routed allocations into a full variable assignment.

    Per-flow traffic divides each demand's link flow evenly across its flow
    copies.  Requires every distance label the model uses to be finite.
    """
    by_demand = {a.demand_id: a for a in allocations}
    field = shortest_path_field(g, w)
    values: dict[str, float] = {}
    for e in g.links:
        values[_wvar(e.id)] = float(w[e.id])
    for t in model.targets:
        for v in g.node_capacity:
            if v == t:
                continue
            dist = field.dist(v, t)
            if dist == INF:
                raise RoutingError(
                    f"distance from {v} to {t} is infinite; candidate needs all "
                    "destinations reachable"
                )
            values[_lvar(v, t)] = float(dist)
        for e in g.links:
            values[_uvar(e.id, t)] = 1.0 if field.on_shortest(e, t) else 0.0
        # g_{v,t}: the equal rate each demand bound for t places on every
        # shortest-path out-link of v, summed over those demands
        bound = [by_demand[d.id] for d in demands if d.dst == t and d.id in by_demand]
        for v in g.node_capacity:
            outs = field.out_links(v, t)
            values[_gvar(v, t)] = (
                sum((a.link_flow.get(outs[0].id, 0.0) for a in bound), 0.0) if outs else 0.0
            )
    flows = model.flows_per_demand
    for d in demands:
        alloc = by_demand.get(d.id)
        for e in g.links:
            per_flow = 0.0
            if alloc is not None:
                per_flow = alloc.link_flow.get(e.id, 0.0) / flows
            for p in range(flows):
                values[_xvar(e.id, p, d.id)] = per_flow
                values[_bvar(e.id, p, d.id)] = 1.0 if per_flow > 0 else 0.0
    values["r"] = max_link_utilization(list(by_demand.values()), g).r
    return SolutionCandidate(values)
