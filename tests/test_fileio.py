"""File format parsing, serialization, and round trips."""

from __future__ import annotations

import math
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlb import dataset_path
from orbitlb.errors import ParseError, ValidationError
from orbitlb.fileio import (
    _num,
    csv_text,
    format_number,
    load_demands,
    load_topology,
    serialize_demands,
    serialize_topology,
    write_text,
)
from orbitlb.model import ID_PATTERN, DemandStream, Link, NfviGraph, ServiceDemand

TOPO = """\
# sample
node a 10
node b 0
node c 5
vnf fw
vnf nat
host a fw
host c nat
vnfcost a fw 1.5
link ab a b 4    # inline comment
link bc b c 7
link ca c a 2
"""

DEMANDS = """\
demand 0 a c 3 fw
demand 2 c b 1.5 -
demand 5 b a 0 fw,nat
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_topology_parses_every_directive(tmp_path):
    g = load_topology(write(tmp_path, "t.topo", TOPO))
    assert set(g.nodes) == {"a", "b", "c"}
    assert g.node_capacity["a"] == 10.0
    assert [e.id for e in g.links] == ["ab", "bc", "ca"]
    assert g.link_by_id["bc"].capacity == 7.0
    assert g.can_host("a", "fw") and g.can_host("c", "nat")
    assert g.cost("a", "fw") == 1.5
    assert g.cost("c", "nat") == 0.0


def test_load_demands_parses_chains_and_dash(tmp_path):
    g = load_topology(write(tmp_path, "t.topo", TOPO))
    stream = load_demands(write(tmp_path, "d.demands", DEMANDS), g)
    assert [d.id for d in stream] == [0, 2, 5]
    assert stream[0].chain == ("fw",)
    assert stream[1].chain == ()
    assert stream[2].chain == ("fw", "nat")
    assert stream[1].volume == 1.5


def test_parse_error_carries_path_and_line(tmp_path):
    path = write(tmp_path, "bad.topo", "node a 1\nnode b x\n")
    with pytest.raises(ParseError) as exc:
        load_topology(path)
    assert str(exc.value).startswith(f"{path}:2:")


@pytest.mark.parametrize(
    "name, data, line",
    [
        ("t.topo", b"node a 1\nnode b\xff 1\n", 2),
        ("t.topo", b"# caf\xc3\xa9\n\nnode a 1 # \xe9t\xe9\n", 3),
        ("d.demands", b"demand 0 a b 1 -\r\ndemand 1 a b 2 fw\xc3\n", 2),
    ],
)
def test_line_that_is_not_utf8_is_a_parse_error(tmp_path, name, data, line):
    """A byte sequence that is not UTF-8, even inside a comment, fails as
    malformed input at its own line; valid UTF-8 before it reads on."""
    path = tmp_path / name
    path.write_bytes(data)
    load = load_demands if name.endswith(".demands") else load_topology
    with pytest.raises(ParseError) as exc:
        load(str(path))
    assert str(exc.value) == f"{path}:{line}: line is not valid UTF-8 text"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "name, text, what",
    [
        ("t.topo", "node a 1\nnode b 1\nlink e1 a b {}\n", "bandwidth capacity"),
        ("t.topo", "node a {}\n", "compute capacity"),
        ("t.topo", "node a 1\nvnf fw\nhost a fw\nvnfcost a fw {}\n", "function cost"),
        ("d.demands", "demand 0 a b {} -\n", "volume"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, token, name, text, what):
    path = write(tmp_path, name, text.format(token))
    load = load_demands if name.endswith(".demands") else load_topology
    with pytest.raises(ParseError) as exc:
        load(path)
    assert f"{what} must be a finite number" in str(exc.value)


@pytest.mark.parametrize(
    "name, text, what",
    [
        ("t.topo", "node a \u0663\n", "compute capacity must be a number"),
        ("t.topo", "node b 1_000\n", "compute capacity must be a number"),
        ("t.topo", "node a 1\nnode b 1\nlink e1 a b 1_0\n", "bandwidth capacity must be a number"),
        ("t.topo", "node a 1\nvnf fw\nvnfcost a fw \uff11\n", "function cost must be a number"),
        ("d.demands", "demand 1_0 a b 1 -\n", "demand id must be an integer"),
        ("d.demands", "demand \u0663 a b 1 -\n", "demand id must be an integer"),
        ("d.demands", "demand 0 a b 1_0.5 -\n", "volume must be a number"),
        ("d.demands", "demand 0 a b \u0663 -\n", "volume must be a number"),
    ],
)
def test_digit_separators_and_non_ascii_digits_rejected(tmp_path, name, text, what):
    """float() and int() read '1_000' and Arabic-Indic or full-width digits;
    the file formats take plain ASCII numbers only."""
    path = write(tmp_path, name, text)
    load = load_demands if name.endswith(".demands") else load_topology
    with pytest.raises(ParseError) as exc:
        load(path)
    assert what in str(exc.value)


def test_unknown_directive_rejected(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_topology(write(tmp_path, "bad.topo", "edge a b 1\n"))
    assert "unknown directive" in str(exc.value)


def test_wrong_arity_rejected(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_topology(write(tmp_path, "bad.topo", "node a 1 extra\n"))
    assert "takes 2 fields" in str(exc.value)


def test_duplicate_node_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_topology(write(tmp_path, "bad.topo", "node a 1\nnode a 2\n"))


def test_duplicate_vnfcost_rejected(tmp_path):
    text = "node a 1\nvnf fw\nvnfcost a fw 1\nvnfcost a fw 7\n"
    with pytest.raises(ParseError) as exc:
        load_topology(write(tmp_path, "bad.topo", text))
    assert str(exc.value).startswith(f"{tmp_path / 'bad.topo'}:4:")
    assert "more than once" in str(exc.value)


def test_repeated_host_line_is_accepted(tmp_path):
    g = load_topology(write(tmp_path, "t.topo", "node a 1\nvnf fw\nhost a fw\nhost a fw\n"))
    assert g.capability_pairs() == [("a", "fw")]


def test_validation_failure_surfaces_all_problems(tmp_path):
    text = "node a 1\nlink aa a a 0\n"
    with pytest.raises(ValidationError) as exc:
        load_topology(write(tmp_path, "bad.topo", text))
    joined = "\n".join(exc.value.violations)
    assert "self-loop" in joined and "capacity" in joined


def test_demand_ids_must_increase(tmp_path):
    text = "demand 1 a b 1 -\ndemand 1 b a 1 -\n"
    with pytest.raises(ParseError) as exc:
        load_demands(write(tmp_path, "d.demands", text))
    assert "not greater" in str(exc.value)


def test_demand_id_must_be_integer(tmp_path):
    with pytest.raises(ParseError):
        load_demands(write(tmp_path, "d.demands", "demand one a b 1 -\n"))


def test_demand_cross_check_against_graph(tmp_path):
    g = load_topology(write(tmp_path, "t.topo", TOPO))
    with pytest.raises(ValidationError):
        load_demands(write(tmp_path, "d.demands", "demand 0 a z 1 -\n"), g)


def test_demand_source_equals_destination_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_demands(write(tmp_path, "d.demands", "demand 0 a a 1 -\n"))


def test_topology_round_trip(tmp_path):
    # numbers that six significant digits would round: 1234567, 0.1 + 0.2
    exact = "node d 1234567\nvnfcost c nat 0.30000000000000004\nlink cd c d 1234567\n"
    g = load_topology(write(tmp_path, "t.topo", TOPO + exact))
    assert g.node_capacity["d"] == 1234567.0
    assert g.cost("c", "nat") == 0.1 + 0.2
    text = serialize_topology(g)
    g2 = load_topology(write(tmp_path, "t2.topo", text))
    assert serialize_topology(g2) == text
    assert g2.node_capacity == g.node_capacity
    assert [(e.id, e.src, e.dst, e.capacity) for e in g2.links] == [
        (e.id, e.src, e.dst, e.capacity) for e in g.links
    ]
    assert g2.capability_pairs() == g.capability_pairs()
    assert g2.vnf_cost == g.vnf_cost


def test_demands_round_trip(tmp_path):
    exact = "demand 6 a b 1234567 -\ndemand 7 b c 0.30000000000000004 fw\n"
    stream = load_demands(write(tmp_path, "d.demands", DEMANDS + exact))
    assert [d.volume for d in stream][-2:] == [1234567.0, 0.1 + 0.2]
    text = serialize_demands(stream)
    again = load_demands(write(tmp_path, "d2.demands", text))
    assert serialize_demands(again) == text
    assert list(again) == list(stream)


ids = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=4)
# finite numbers up to 1e20, with integral values from 1e16 up that
# format_number writes in exponent form
numbers = st.one_of(
    st.floats(min_value=0.0, max_value=1e20, allow_nan=False, allow_infinity=False),
    st.integers(0, 10**20).map(float),
    st.sampled_from([1e16, 1e16 + 2.0, 2.5e17, 1e20]),
)


@st.composite
def instances(draw) -> tuple[NfviGraph, DemandStream]:
    """Valid topologies with capabilities and costs, and chained demands on them."""
    names = draw(st.lists(ids, min_size=2, max_size=6, unique=True))
    fns = draw(st.lists(ids, max_size=4, unique=True))
    arcs = draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=12)
    )
    link_caps = numbers.filter(lambda c: c > 0)
    links = [Link(f"e{k}", u, v, draw(link_caps)) for k, (u, v) in enumerate(arcs) if u != v]
    pairs = [(v, fn) for v in names for fn in fns]
    hosts = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    priced = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = NfviGraph(
        {v: draw(numbers) for v in names}, links, fns, hosts, {key: draw(numbers) for key in priced}
    )
    demand_ids = sorted(draw(st.lists(st.integers(-10**9, 10**9), max_size=6, unique=True)))
    demands = []
    for did in demand_ids:
        src, dst = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        chain = tuple(draw(st.lists(st.sampled_from(fns), max_size=3))) if fns else ()
        demands.append(ServiceDemand(did, src, dst, draw(numbers), chain))
    return g, DemandStream(tuple(demands))


@settings(max_examples=100, deadline=None)
@given(instances())
def test_random_instances_round_trip(tmp_path_factory, instance):
    g, stream = instance
    assert all(ID_PATTERN.fullmatch(v) for v in g.nodes)
    tmp = tmp_path_factory.mktemp("rt")
    topo_text, demand_text = serialize_topology(g), serialize_demands(stream)
    g2 = load_topology(write(tmp, "t.topo", topo_text))
    again = load_demands(write(tmp, "d.demands", demand_text), g2)
    assert g2.node_capacity == g.node_capacity
    assert g2.links == g.links
    assert set(g2.vnf_catalog) == set(g.vnf_catalog)
    assert g2.capability_pairs() == g.capability_pairs()
    assert g2.vnf_cost == g.vnf_cost
    assert list(again) == list(stream)
    assert serialize_topology(g2) == topo_text
    assert serialize_demands(again) == demand_text


@pytest.mark.parametrize("name", ["internet2", "geant"])
def test_bundled_datasets_are_their_own_serialization(name):
    header = f"# synthetic {name} dataset, regenerate with scripts/gen_synthetic_datasets.py\n"
    topo = dataset_path(f"{name}.topo")
    demands = dataset_path(f"{name}.demands")
    g = load_topology(topo)
    with open(topo, encoding="utf-8", newline="") as fh:
        assert fh.read() == header + serialize_topology(g)
    with open(demands, encoding="utf-8", newline="") as fh:
        assert fh.read() == header + serialize_demands(load_demands(demands, g))


def test_write_text_creates_directories(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.csv"
    write_text(str(target), "x\n")
    assert target.read_text() == "x\n"


def test_write_text_writes_an_iterable_of_chunks(tmp_path):
    target = tmp_path / "out.txt"
    write_text(str(target), (f"line {i}\n" for i in range(3)))
    assert target.read_text() == "line 0\nline 1\nline 2\n"


def test_csv_text_frames_header_and_rows():
    assert csv_text("a,b", []) == "a,b\n"
    rows = [
        ("fw nat", "", "-"),
        (3, 2.0, -3.0, 0.5),
        (math.nan, math.inf, -math.inf),
        (1e16, 2.5e17, -1e20, 10**17),
    ]
    assert csv_text("h", rows) == (
        "h\n"
        "fw nat,,-\n"
        "3,2,-3,0.5\n"
        "nan,inf,-inf\n"
        # floats from 1e16 up in exponent form; an int is written in full
        "1e+16,2.5e+17,-1e+20,100000000000000000\n"
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=1e16, allow_infinity=False),
    )
)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1e16)
@example(1e16 + 2.0)
@example(-(2.0**60))
def test_number_text_reads_back_to_the_same_float(x):
    # -0.0 is written "0", which reads back as 0.0 == -0.0
    assert _num("x", 1, format_number(x), "value") == x
