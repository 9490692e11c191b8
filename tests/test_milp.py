"""Optimization model assembly, LP text export, and feasibility checks."""

from __future__ import annotations

import os
import re
import tracemalloc

import pytest

from orbitlb import dataset_path
from orbitlb.errors import ValidationError
from orbitlb.fileio import load_demands, load_topology
from orbitlb.milp import (
    DELTA,
    Row,
    SolutionCandidate,
    Violation,
    build_model,
    candidate_from_routing,
    check_solution,
    export_lp,
    write_lp,
)
from orbitlb.model import Link, NfviGraph, ServiceDemand
from orbitlb.fileio import format_number
from orbitlb.routing import route_all, unit_weights


def one_demand(volume: float = 8.0) -> ServiceDemand:
    return ServiceDemand(0, "s", "t", volume, ())


def test_family_counts_on_diamond(diamond):
    model = build_model(diamond, [one_demand()], flows_per_demand=2)
    counts = model.family_counts()
    # n=4, |E|=4, m=1, one target, two flow copies
    assert counts["1"] == 2  # relay nodes a, b
    assert counts["2"] == 1
    assert counts["3"] == 1
    assert counts["4"] == 4
    assert counts["5"] == 4  # per (target, link), two halves count once
    assert counts["6"] == 4
    assert counts["7"] == 4  # per (demand, link), two halves count once
    assert counts["8"] == 4
    assert "9" not in counts  # chainless demand
    assert counts["10"] == 2
    assert counts["11"] == 8
    assert counts["12"] == 8
    assert counts["13"] == 8
    assert counts["14"] == 4


def test_two_sided_families_keep_both_rows(diamond):
    model = build_model(diamond, [one_demand()])
    for fam in ("5", "7"):
        rows = [r for r in model.rows if r.family == fam]
        assert len(rows) == 2 * model.family_counts()[fam]


def test_row_names_are_unique(diamond):
    model = build_model(diamond, [one_demand()])
    names = [r.name for r in model.rows]
    assert len(names) == len(set(names))


def test_chain_demand_emits_touch_constraints(diamond):
    g = NfviGraph(
        dict.fromkeys(diamond.nodes, 10.0),
        diamond.links,
        frozenset({"fw"}),
        {("a", "fw")},
        {("a", "fw"): 1.0},
    )
    d = ServiceDemand(0, "s", "t", 4.0, ("fw",))
    model = build_model(g, [d], flows_per_demand=2)
    assert model.family_counts()["9"] == 2  # one chain position, two flow copies


def test_zero_volume_demand_skips_nonzero_flow_constraints(diamond):
    model = build_model(diamond, [one_demand(volume=0.0)])
    counts = model.family_counts()
    assert "9" not in counts and "10" not in counts


def test_empty_rows_counted_but_not_exported():
    # z is isolated: its relay-balance row has no terms
    g = NfviGraph(
        {"a": 0.0, "b": 0.0, "z": 0.0},
        (Link("ab", "a", "b", 10.0), Link("ba", "b", "a", 10.0)),
        frozenset(),
        (),
        {},
    )
    model = build_model(g, [ServiceDemand(0, "a", "b", 1.0, ())])
    assert model.family_counts()["1"] == 1
    text = export_lp(model)
    assert "c1_0_z" not in text


def test_variable_name_collision_rejected():
    # l_{a}_{a_a} and l_{a_a}_{a} both render as l_a_a_a
    g = NfviGraph(
        {"s": 0.0, "a": 0.0, "a_a": 0.0},
        (
            Link("e1", "s", "a", 10.0),
            Link("e2", "s", "a_a", 10.0),
            Link("e3", "a", "a_a", 10.0),
            Link("e4", "a_a", "a", 10.0),
        ),
        frozenset(),
        (),
        {},
    )
    demands = [
        ServiceDemand(0, "s", "a", 1.0, ()),
        ServiceDemand(1, "s", "a_a", 1.0, ()),
    ]
    with pytest.raises(ValidationError, match="l_a_a_a collides"):
        build_model(g, demands)


def test_export_sections_and_header(diamond):
    model = build_model(diamond, [one_demand()])
    text = export_lp(model)
    assert text.startswith("\\ delta = 0.0001")
    assert "\\ M_z = 10" in text
    assert "Minimize" in text and "Subject To" in text
    assert "Bounds" in text and "Generals" in text and "Binaries" in text
    assert text.rstrip().endswith("End")
    assert " w_e_sa >= 1" in text
    assert "obj: + r" in text


def test_export_writes_one_line_per_nonempty_row(diamond):
    model = build_model(diamond, [one_demand()])
    text = export_lp(model)
    # empty rows (here: compute rows of a graph with no hosted functions)
    # exist only in the builder's model, never in the text
    nonempty: dict[str, int] = {}
    for row in model.rows:
        if row.terms:
            nonempty[row.family] = nonempty.get(row.family, 0) + 1
    exported: dict[str, int] = {}
    for line in text.splitlines():
        m = re.match(r" c(\d+)_", line)
        if m:
            exported[m.group(1)] = exported.get(m.group(1), 0) + 1
    assert model.family_counts()["14"] == 4 and "14" not in nonempty
    assert exported == nonempty


def huge_numbers_case() -> tuple[NfviGraph, list[ServiceDemand]]:
    """Capacities of 1e17, given once as an int and once as a float."""
    g = NfviGraph(
        {"a": 10**17, "b": 1e17},
        (Link("ab", "a", "b", 10**17), Link("ba", "b", "a", 1e17)),
        frozenset({"f"}),
        {("a", "f"), ("b", "f")},
        {("a", "f"): 1.0, ("b", "f"): 1.0},
    )
    return g, [ServiceDemand(0, "a", "b", 1.0, ("f",))]


def test_export_number_text_above_1e16():
    # 10**17 == 1e17, but format_number writes the int in full: right-hand
    # sides keep their type, coefficients are written as floats
    g, demands = huge_numbers_case()
    lines = export_lp(build_model(g, demands, flows_per_demand=1)).splitlines()
    assert " c4_ab: + x_ab_0_0 - 1e+17 r <= 0" in lines
    assert " c4_ba: + x_ba_0_0 - 1e+17 r <= 0" in lines
    assert " c14_a: + x_ba_0_0 <= 100000000000000000" in lines
    assert " c14_b: + x_ab_0_0 <= 1e+17" in lines


def test_export_writes_file(diamond, tmp_path):
    model = build_model(diamond, [one_demand()])
    path = tmp_path / "model.lp"
    counts = write_lp(model, str(path))
    assert path.read_text() == export_lp(model)
    assert counts == model.family_counts()


def internet2_prefix(k: int) -> tuple[NfviGraph, list[ServiceDemand]]:
    g = load_topology(dataset_path("internet2.topo"))
    return g, list(load_demands(dataset_path("internet2.demands"), g))[:k]


def test_streamed_export_matches_in_memory_export(tmp_path):
    g, demands = internet2_prefix(5)
    model = build_model(g, demands, 2)
    path = tmp_path / "model.lp"
    counts = write_lp(model, str(path))
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == export_lp(model)
    assert counts == model.family_counts()
    assert "9" in counts and "14" in counts


def test_streamed_export_memory_stays_below_twice_the_file(tmp_path):
    # building the model and writing it hold no row list, no variable table
    # and no LP string: the traced peak stays under twice the bytes written
    # (about 0.45x here; 1.3x with a stored variable table, and about 12.7x
    # with rows held in memory before writing)
    g, demands = internet2_prefix(30)
    path = str(tmp_path / "model.lp")
    tracemalloc.start()
    try:
        write_lp(build_model(g, demands, 2), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = os.path.getsize(path)
    assert written > 1_000_000
    assert peak < 2 * written


def layout_case(name: str, diamond: NfviGraph) -> tuple[NfviGraph, list[ServiceDemand]]:
    if name == "diamond":
        return diamond, [one_demand()]
    if name == "chained":
        g = NfviGraph(
            dict.fromkeys(diamond.nodes, 10.0),
            diamond.links,
            frozenset({"fw"}),
            {("a", "fw")},
            {("a", "fw"): 1.0},
        )
        return g, [ServiceDemand(0, "s", "t", 4.0, ("fw",)), ServiceDemand(1, "s", "a", 0.0, ())]
    return internet2_prefix(5)


@pytest.mark.parametrize("flows", [1, 2, 3])
@pytest.mark.parametrize("case", ["diamond", "chained", "internet2"])
def test_variable_layout(diamond, case, flows):
    g, demands = layout_case(case, diamond)
    model = build_model(g, demands, flows)
    variables = list(model.iter_variables())
    n, m, k = len(g.node_capacity), len(g.links), len(demands)
    t = len({d.dst for d in demands})
    assert len(variables) == 1 + m + t * (n - 1) + t * m + t * n + 2 * k * flows * m
    names = [name for name, _kind, _lb in variables]
    assert len(set(names)) == len(names)
    per_kind: dict[str, set[str]] = {}
    for name, kind, lb in variables:
        assert lb == (1.0 if name.startswith("w_") else 0.0), name
        per_kind.setdefault(kind, set()).add(name.split("_")[0])
    assert per_kind == {"continuous": {"r", "g", "x"}, "integer": {"w", "l"}, "binary": {"u", "b"}}
    text = export_lp(model)
    generals = text.split("Generals\n")[1].split("Binaries\n")[0].split()
    binaries = text.split("Binaries\n")[1].split("End\n")[0].split()
    assert generals == [name for name, _kind, _lb in variables if name[0] in "wl"]
    assert binaries == [name for name, _kind, _lb in variables if name[0] in "ub"]


def row_by_row_text(model) -> str:
    """The "Subject To" lines written one row at a time from ``iter_rows``:
    each coefficient as a float, its magnitude left out when it is 1, and
    the right-hand side as ``format_number`` writes it; rows without terms
    are left out."""
    lines = []
    for row in model.iter_rows():
        if not row.terms:
            continue
        terms = []
        for c, v in row.terms:
            mag = abs(float(c))
            text = "" if mag == 1.0 else f"{format_number(mag)} "
            terms.append(f"{'+' if c >= 0 else '-'} {text}{v}")
        lines.append(f" {row.name}: {' '.join(terms)} {row.sense} {format_number(row.rhs)}\n")
    return "".join(lines)


@pytest.mark.parametrize("flows", [1, 2, 3])
@pytest.mark.parametrize("case", ["diamond", "chained", "internet2", "huge"])
def test_block_text_and_counts_agree_with_the_rows(diamond, case, flows):
    # chained has a zero-volume demand and a destination (a) that is the
    # head of one link and the tail of another; huge has 1e17 capacities
    g, demands = huge_numbers_case() if case == "huge" else layout_case(case, diamond)
    model = build_model(g, demands, flows)
    text = export_lp(model)
    subject_to = text.partition("Subject To\n")[2].partition("Bounds\n")[0]
    assert subject_to == row_by_row_text(model)
    tally: dict[str, int] = {}
    for row in model.iter_rows():
        if row.side != "hi":
            tally[row.family] = tally.get(row.family, 0) + 1
    assert model.family_counts() == tally


def test_per_link_families_are_one_block_over_every_demand_and_flow():
    g, demands = internet2_prefix(5)
    model = build_model(g, demands, 3)
    fills = {
        block.rows[0].family: len(block.fills)
        for block in model.iter_blocks()
        if block.rows and block.rows[0].family in ("11", "12", "13")
    }
    assert fills == {"11": 15, "12": 15, "13": 15}
    # a c7 block is one demand over the per-target templates
    sevens = [b for b in model.iter_blocks() if b.rows and b.rows[0].family == "7"]
    assert len(sevens) == len(demands)
    assert all(len(b.rows) == 2 * len(g.links) and len(b.fills) == 1 for b in sevens)


def test_geant_variable_count():
    g = load_topology(dataset_path("geant.topo"))
    demands = list(load_demands(dataset_path("geant.demands"), g))
    n, m, k = len(g.node_capacity), len(g.links), len(demands)
    t = len({d.dst for d in demands})
    count = 1 + m + t * (n - 1) + t * m + t * n + 2 * k * 2 * m
    assert count == 74_603
    assert sum(1 for _ in build_model(g, demands, 2).iter_variables()) == count


def test_self_loop_rejected():
    # a self-loop would put x_bb in its node's balance row twice
    g = NfviGraph(
        {"a": 0.0, "b": 0.0, "c": 0.0},
        (
            Link("ab", "a", "b", 10.0),
            Link("bb", "b", "b", 10.0),
            Link("bc", "b", "c", 10.0),
        ),
        frozenset(),
        (),
        {},
    )
    with pytest.raises(ValidationError, match="self-loop"):
        build_model(g, [ServiceDemand(0, "a", "c", 1.0, ())])


def test_non_finite_capacity_rejected():
    # an inf capacity would be written as a capacity and as M_z = inf
    g = NfviGraph(
        {"a": 0.0, "b": float("nan")},
        (Link("ab", "a", "b", float("inf")), Link("ba", "b", "a", 10.0)),
        frozenset(),
        (),
        {},
    )
    with pytest.raises(ValidationError) as exc:
        build_model(g, [ServiceDemand(0, "a", "b", 1.0, ())])
    assert exc.value.violations == [
        "node b: compute capacity nan is not finite",
        "link ab: capacity inf is not finite",
    ]


def test_ids_ending_in_a_newline_rejected():
    # '$' in a match would let "b\n" through, splitting LP names across lines
    g = NfviGraph(
        {"a": 0.0, "b\n": 0.0},
        (Link("e\n", "a", "b\n", 10.0), Link("f", "b\n", "a", 10.0)),
        ("fw\n",),
        (),
        {},
    )
    with pytest.raises(ValidationError) as exc:
        build_model(g, [ServiceDemand(0, "a", "b\n", 1.0, ())])
    assert exc.value.violations == [
        "node id 'b\\n' contains unsupported characters",
        "link id 'e\\n' contains unsupported characters",
        "function id 'fw\\n' contains unsupported characters",
    ]


def test_negative_demand_ids_rejected(diamond):
    # LP text reads the '-' of "x_e1_0_-2" as a minus sign
    g = diamond
    demands = [ServiceDemand(i, "s", "t", 1.0, ()) for i in (-5, -2, 0)]
    with pytest.raises(ValidationError) as exc:
        build_model(g, demands)
    assert exc.value.violations == [
        "demand -5: negative id cannot be an LP name",
        "demand -2: negative id cannot be an LP name",
    ]


def test_unknown_demand_node_rejected(diamond):
    with pytest.raises(ValidationError, match="unknown destination"):
        build_model(diamond, [ServiceDemand(0, "s", "zz", 1.0, ())])


class ReferenceRow:
    """Accumulates a row's coefficients by variable, dropping zeros."""

    def __init__(self) -> None:
        self.coef: dict[str, float] = {}

    def add(self, c: float, var: str) -> None:
        if c == 0:
            return
        self.coef[var] = self.coef.get(var, 0.0) + c

    def terms(self) -> tuple[tuple[float, str], ...]:
        return tuple((c, v) for v, c in self.coef.items() if c != 0)


def reference_rows(model) -> list[Row]:
    """Every row of ``model``, built term by term through ReferenceRow."""
    g, demands, targets, m_z = model.g, model.demands, model.targets, model.m_z
    flows = range(model.flows_per_demand)
    rows: list[Row] = []

    def x(e, p, d):
        return f"x_{e.id}_{p}_{d.id}"

    def l_term(b, c, v, t):
        if v != t:
            b.add(c, f"l_{v}_{t}")

    for d in demands:
        for v in g.node_capacity:
            if v in (d.src, d.dst):
                continue
            b = ReferenceRow()
            for p in flows:
                for e in g.out_links.get(v, ()):
                    b.add(1.0, x(e, p, d))
                for e in g.in_links.get(v, ()):
                    b.add(-1.0, x(e, p, d))
            rows.append(Row(f"c1_{d.id}_{v}", "1", b.terms(), "=", 0.0))
    for d in demands:
        b = ReferenceRow()
        for p in flows:
            for e in g.out_links.get(d.src, ()):
                b.add(1.0, x(e, p, d))
        rows.append(Row(f"c2_{d.id}", "2", b.terms(), "=", d.volume))
    for d in demands:
        b = ReferenceRow()
        for p in flows:
            for e in g.in_links.get(d.dst, ()):
                b.add(1.0, x(e, p, d))
        rows.append(Row(f"c3_{d.id}", "3", b.terms(), "=", d.volume))
    for e in g.links:
        b = ReferenceRow()
        for d in demands:
            for p in flows:
                b.add(1.0, x(e, p, d))
        b.add(-e.capacity, "r")
        rows.append(Row(f"c4_{e.id}", "4", b.terms(), "<=", 0.0))
    for t in targets:
        h_total = sum(d.volume for d in demands if d.dst == t)
        for e in g.links:
            lo = ReferenceRow()
            lo.add(1.0, f"g_{e.src}_{t}")
            for d in demands:
                if d.dst == t:
                    for p in flows:
                        lo.add(-1.0, x(e, p, d))
            rows.append(Row(f"c5_{e.id}_{t}_lo", "5", lo.terms(), ">=", 0.0, side="lo"))
            hi = ReferenceRow()
            hi.coef = dict(lo.coef)
            hi.add(h_total, f"u_{e.id}_{t}")
            rows.append(Row(f"c5_{e.id}_{t}_hi", "5", hi.terms(), "<=", h_total, side="hi"))
    for d in demands:
        for e in g.links:
            b = ReferenceRow()
            for p in flows:
                b.add(1.0, x(e, p, d))
            b.add(-d.volume, f"u_{e.id}_{d.dst}")
            rows.append(Row(f"c6_{d.id}_{e.id}", "6", b.terms(), "<=", 0.0))
    for d in demands:
        t = d.dst
        for e in g.links:
            for side, c, sense, rhs in (("lo", 1.0, ">=", 1.0), ("hi", m_z, "<=", m_z)):
                b = ReferenceRow()
                l_term(b, 1.0, e.dst, t)
                b.add(1.0, f"w_{e.id}")
                l_term(b, -1.0, e.src, t)
                b.add(c, f"u_{e.id}_{t}")
                rows.append(Row(f"c7_{d.id}_{e.id}_{side}", "7", b.terms(), sense, rhs, side))
    for e in g.links:
        rows.append(Row(f"c8_{e.id}", "8", ((1.0, f"w_{e.id}"),), ">=", 1.0))
    for d in demands:
        if d.volume <= 0:
            continue
        for i, fn in enumerate(d.chain):
            for p in flows:
                b = ReferenceRow()
                for e in g.links:
                    k = int(g.can_host(e.src, fn)) + int(g.can_host(e.dst, fn))
                    if k:
                        b.add(float(k), x(e, p, d))
                rows.append(Row(f"c9_{d.id}_{i}_{p}", "9", b.terms(), ">=", DELTA * d.volume))
    for d in demands:
        if d.volume <= 0:
            continue
        for p in flows:
            b = ReferenceRow()
            for e in g.links:
                b.add(1.0, x(e, p, d))
            rows.append(Row(f"c10_{d.id}_{p}", "10", b.terms(), ">=", DELTA * d.volume))
    for fam, with_tail, with_b, sense, rhs in (
        ("11", False, True, "<=", 0.0),
        ("12", True, True, ">=", -m_z),
        ("13", True, False, "<=", 0.0),
    ):
        for d in demands:
            for p in flows:
                for e in g.links:
                    b = ReferenceRow()
                    b.add(1.0, x(e, p, d))
                    if with_tail:
                        for e2 in g.in_links.get(e.src, ()):
                            b.add(-1.0, x(e2, p, d))
                    if with_b:
                        b.add(-m_z, f"b_{e.id}_{p}_{d.id}")
                    rows.append(Row(f"c{fam}_{d.id}_{p}_{e.id}", fam, b.terms(), sense, rhs))
    for v in g.node_capacity:
        b = ReferenceRow()
        for d in demands:
            per_rate = sum(g.cost(v, fn) for fn in d.chain if g.can_host(v, fn))
            for p in flows:
                for e in g.in_links.get(v, ()):
                    b.add(per_rate, x(e, p, d))
        rows.append(Row(f"c14_{v}", "14", b.terms(), "<=", g.node_capacity[v]))
    return rows


def assert_rows_match_reference(model) -> None:
    got, want = list(model.iter_rows()), reference_rows(model)
    assert [r.name for r in got] == [r.name for r in want]
    for a, b in zip(got, want):
        assert (a.name, a.family, a.terms, a.sense, a.rhs, a.side) == (
            b.name, b.family, b.terms, b.sense, b.rhs, b.side
        )


def test_rows_match_reference_on_diamond(diamond):
    assert_rows_match_reference(build_model(diamond, [one_demand()]))


@pytest.mark.parametrize("flows", [1, 2, 3])
def test_rows_match_reference_on_chained_demands(flows):
    g, demands = internet2_prefix(5)
    assert any(d.chain for d in demands)
    assert_rows_match_reference(build_model(g, demands, flows))


def test_rows_match_reference_with_zero_volume_demands(diamond):
    g = NfviGraph(
        dict.fromkeys(diamond.nodes, 10.0),
        diamond.links,
        frozenset({"fw"}),
        {("a", "fw")},
        {("a", "fw"): 1.0},
    )
    # target a has only the zero-volume demand 1
    demands = [
        ServiceDemand(0, "s", "t", 4.0, ("fw",)),
        ServiceDemand(1, "s", "a", 0.0, ("fw",)),
    ]
    model = build_model(g, demands)
    assert_rows_match_reference(model)
    rows = {r.name: r for r in model.iter_rows()}
    assert all(not v.startswith("u_") for _, v in rows["c5_e_sa_a_hi"].terms)
    assert all(not v.startswith("u_") for _, v in rows["c6_1_e_sa"].terms)
    assert any(v == "u_e_sa_t" for _, v in rows["c5_e_sa_t_hi"].terms)
    assert "c9_1_0_0" not in rows and "c10_1_0" not in rows
    assert "c9_0_0_0" in rows and "c10_0_0" in rows


def routed_candidate(diamond):
    w = {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}
    demands = [one_demand()]
    result = route_all(diamond, w, demands)
    model = build_model(diamond, demands, flows_per_demand=2)
    return model, candidate_from_routing(model, diamond, w, demands, result.allocations)


def test_routed_candidate_clean_in_families_1_to_8(diamond):
    model, cand = routed_candidate(diamond)
    report = check_solution(model, cand)
    families = tuple(str(i) for i in range(1, 9))
    assert report.count_in(families) == 0
    assert report.objective == 0.8


def test_perturbed_flow_breaks_balance(diamond):
    model, cand = routed_candidate(diamond)
    values = dict(cand.values)
    values["x_e_sa_0_0"] += 1.0  # inject flow on one copy only
    report = check_solution(model, SolutionCandidate(values))
    assert report.count_in(("1",)) > 0 or report.count_in(("2",)) > 0


def test_wrong_distance_label_breaks_tightness(diamond):
    model, cand = routed_candidate(diamond)
    values = dict(cand.values)
    # e_bt claims shortest-path membership but labels say otherwise
    values["u_e_bt_t"] = 1.0
    values["l_b_t"] = 5.0
    report = check_solution(model, SolutionCandidate(values))
    assert report.count_in(("7",)) > 0


def test_missing_variable_rejected(diamond):
    model, cand = routed_candidate(diamond)
    values = dict(cand.values)
    del values["r"]
    with pytest.raises(ValidationError):
        check_solution(model, SolutionCandidate(values))


def test_domain_violations_reported(diamond):
    model, cand = routed_candidate(diamond)
    values = dict(cand.values)
    values["w_e_sa"] = 1.5  # fractional weight
    values["u_e_sa_t"] = 0.3  # non-binary indicator
    report = check_solution(model, SolutionCandidate(values))
    kinds = {v.family for v in report.violations}
    assert "domain" in kinds
    assert not report.feasible


def test_weight_below_its_lower_bound_reported(diamond):
    model, cand = routed_candidate(diamond)
    values = dict(cand.values)
    values["w_e_sa"] = 0.0  # integral, but below the weight's bound of 1
    report = check_solution(model, SolutionCandidate(values))
    assert [v for v in report.violations if v.family == "domain"] == [
        Violation("w_e_sa", "domain", 1.0)
    ]


def test_zero_demand_model_exports(diamond):
    model = build_model(diamond, [])
    counts = model.family_counts()
    assert counts == {"4": 4, "8": 4, "14": 4}
    assert export_lp(model).rstrip().endswith("End")


def test_candidate_equal_split_rate_per_node(diamond):
    # unit weights: s splits 8 over both of its shortest-path out-links
    w = unit_weights(diamond)
    demands = [one_demand()]
    result = route_all(diamond, w, demands)
    model = build_model(diamond, demands)
    cand = candidate_from_routing(model, diamond, w, demands, result.allocations)
    assert cand["g_s_t"] == 4.0
    assert cand["g_a_t"] == 4.0 and cand["g_b_t"] == 4.0
    assert cand["g_t_t"] == 0.0


def test_candidate_matches_allocations_by_demand_id(diamond):
    w = {"e_sa": 1, "e_at": 1, "e_sb": 1, "e_bt": 2}
    demands = [one_demand(4.0), ServiceDemand(1, "s", "t", 2.0, ())]
    result = route_all(diamond, w, demands)
    model = build_model(diamond, demands)
    forward = candidate_from_routing(model, diamond, w, demands, result.allocations)
    backward = candidate_from_routing(
        model, diamond, w, demands, tuple(reversed(result.allocations))
    )
    assert forward.values == backward.values
