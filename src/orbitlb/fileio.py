"""Plain-text file formats for topologies and demand streams.

Topology files are line oriented; ``#`` starts a comment and blank lines are
ignored.  Directives::

    node <id> <compute_capacity>
    vnf <function>
    host <node> <function>
    vnfcost <node> <function> <cost_per_rate_unit>
    link <id> <from> <to> <bandwidth_capacity>

Demand files use one directive::

    demand <id> <src> <dst> <volume> <fn1,fn2,...>

where the chain field is ``-`` for chainless demands.  Demand ids are
integers and must be strictly increasing within a file.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterable, Sequence

from .errors import ParseError, ValidationError
from .model import (
    ID_PATTERN,
    DemandStream,
    Link,
    NfviGraph,
    ServiceDemand,
    validate,
    validate_demands,
)

_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _logical_lines(path: str) -> list[tuple[int, list[str]]]:
    """Non-empty, comment-stripped lines as (line_no, fields); a line that
    is not UTF-8 text is a ParseError."""
    out: list[tuple[int, list[str]]] = []
    # each byte that is not UTF-8 reads as a lone surrogate, which UTF-8
    # text cannot hold, so the offending line can be named
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for no, raw in enumerate(fh, start=1):
            if not raw.isascii() and _NOT_UTF8.search(raw):
                raise ParseError(path, no, "line is not valid UTF-8 text")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            out.append((no, line.split()))
    return out


def _plain(kind: type, token: str):
    """kind(token) for int or float, refusing the '_' separators and
    non-ASCII digits that both would otherwise read."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return kind(token)


def _num(path: str, no: int, token: str, what: str) -> float:
    try:
        val = _plain(float, token)
    except ValueError:
        raise ParseError(path, no, f"{what} must be a number, got {token!r}") from None
    if not math.isfinite(val):
        raise ParseError(path, no, f"{what} must be a finite number, got {token!r}")
    return val


def _ident(path: str, no: int, token: str, what: str) -> str:
    if not ID_PATTERN.fullmatch(token):
        raise ParseError(path, no, f"{what} {token!r} is not a valid identifier")
    return token


def _arity(path: str, no: int, fields: list[str], n: int) -> None:
    if len(fields) != n:
        raise ParseError(
            path, no, f"directive {fields[0]!r} takes {n - 1} fields, got {len(fields) - 1}"
        )


def load_topology(path: str) -> NfviGraph:
    """Parse a topology file; raises ParseError/ValidationError on bad input."""
    nodes: dict[str, float] = {}
    links: list[Link] = []
    catalog: list[str] = []
    capability: list[tuple[str, str]] = []
    costs: dict[tuple[str, str], float] = {}
    for no, fields in _logical_lines(path):
        kind = fields[0]
        if kind == "node":
            _arity(path, no, fields, 3)
            v = _ident(path, no, fields[1], "node id")
            if v in nodes:
                raise ParseError(path, no, f"node {v} declared more than once")
            nodes[v] = _num(path, no, fields[2], "compute capacity")
        elif kind == "vnf":
            _arity(path, no, fields, 2)
            fn = _ident(path, no, fields[1], "function id")
            if fn in catalog:
                raise ParseError(path, no, f"function {fn} declared more than once")
            catalog.append(fn)
        elif kind == "host":
            _arity(path, no, fields, 3)
            v = _ident(path, no, fields[1], "node id")
            fn = _ident(path, no, fields[2], "function id")
            capability.append((v, fn))
        elif kind == "vnfcost":
            _arity(path, no, fields, 4)
            v = _ident(path, no, fields[1], "node id")
            fn = _ident(path, no, fields[2], "function id")
            if (v, fn) in costs:
                raise ParseError(path, no, f"cost of {fn} at {v} declared more than once")
            costs[(v, fn)] = _num(path, no, fields[3], "function cost")
        elif kind == "link":
            _arity(path, no, fields, 5)
            eid = _ident(path, no, fields[1], "link id")
            src = _ident(path, no, fields[2], "start node")
            dst = _ident(path, no, fields[3], "end node")
            cap = _num(path, no, fields[4], "bandwidth capacity")
            links.append(Link(eid, src, dst, cap))
        else:
            raise ParseError(path, no, f"unknown directive {kind!r}")
    graph = NfviGraph(nodes, links, catalog, capability, costs)
    problems = validate(graph)
    if problems:
        raise ValidationError(problems)
    return graph


def load_demands(path: str, graph: NfviGraph | None = None) -> DemandStream:
    """Parse a demand file; cross-checks against ``graph`` when given."""
    demands: list[ServiceDemand] = []
    last_id: int | None = None
    for no, fields in _logical_lines(path):
        if fields[0] != "demand":
            raise ParseError(path, no, f"unknown directive {fields[0]!r}")
        _arity(path, no, fields, 6)
        try:
            did = _plain(int, fields[1])
        except ValueError:
            raise ParseError(path, no, f"demand id must be an integer, got {fields[1]!r}") from None
        if last_id is not None and did <= last_id:
            raise ParseError(path, no, f"demand id {did} is not greater than {last_id}")
        last_id = did
        src = _ident(path, no, fields[2], "source node")
        dst = _ident(path, no, fields[3], "destination node")
        volume = _num(path, no, fields[4], "volume")
        chain: tuple[str, ...] = ()
        if fields[5] != "-":
            parts = fields[5].split(",")
            chain = tuple(_ident(path, no, p, "function id") for p in parts)
        try:
            demands.append(ServiceDemand(did, src, dst, volume, chain))
        except ValidationError as exc:
            raise ParseError(path, no, "; ".join(exc.violations)) from None
    stream = DemandStream(tuple(demands))
    if graph is not None:
        problems = validate_demands(stream, graph)
        if problems:
            raise ValidationError(problems)
    return stream


def format_number(x: float) -> str:
    """Canonical text for a number, read back to the same value by the
    parsers above: integral values below 1e16 lose the trailing .0."""
    if x != x:
        return "nan"
    if x in (math.inf, -math.inf):
        return "inf" if x > 0 else "-inf"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def csv_text(header: str, rows: Iterable[Sequence[str | float]]) -> str:
    """A CSV file's text: the header line, then one line per row with text
    cells as they are and numbers as ``format_number`` writes them."""
    lines = [header]
    lines.extend(
        ",".join([c if isinstance(c, str) else format_number(c) for c in row]) for row in rows
    )
    return "\n".join(lines) + "\n"


def serialize_topology(graph: NfviGraph) -> str:
    """Render a graph in the topology format (parses back to an equal graph)."""
    out: list[str] = []
    for v, cap in graph.node_capacity.items():
        out.append(f"node {v} {format_number(cap)}")
    for fn in sorted(graph.vnf_catalog):
        out.append(f"vnf {fn}")
    for v, fn in graph.capability_pairs():
        out.append(f"host {v} {fn}")
    for (v, fn), c in sorted(graph.vnf_cost.items()):
        out.append(f"vnfcost {v} {fn} {format_number(c)}")
    for e in graph.links:
        out.append(f"link {e.id} {e.src} {e.dst} {format_number(e.capacity)}")
    return "\n".join(out) + "\n"


def serialize_demands(stream: DemandStream) -> str:
    out: list[str] = []
    for d in stream:
        chain = ",".join(d.chain) if d.chain else "-"
        out.append(f"demand {d.id} {d.src} {d.dst} {format_number(d.volume)} {chain}")
    return "\n".join(out) + "\n"


def write_text(path: str, text: str | Iterable[str]) -> None:
    """Write a string, or each string of an iterable in turn, with '\\n'
    endings regardless of platform."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
