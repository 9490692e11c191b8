"""Spans and counters recorded around the public functions of orbitlb.

Each public function of a layer is replaced, at every module binding that
holds it (``orbitlb.routing.shortest_path_field`` and
``orbitlb.orbit.shortest_path_field`` alike), by a wrapper that records one
span: name, calling site, operation id, parent span, start and end.  Spans
live in flat arrays while the run lasts and are written out when it ends;
self time is derived afterwards as a span's duration minus its children's.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute) for every traced public function
FUNCTION_TARGETS = (
    ("routing.spf", "orbitlb.routing", "shortest_path_field"),
    ("routing.dag", "orbitlb.routing", "ecmp_dag"),
    ("routing.route_sfc", "orbitlb.routing", "route_demand_sfc"),
    ("routing.route_stream", "orbitlb.routing", "route_stream"),
    ("routing.route_all", "orbitlb.routing", "route_all"),
    ("routing.utilization", "orbitlb.routing", "max_link_utilization"),
    ("orbit.process_demand", "orbitlb.orbit", "process_demand"),
    ("orbit.verify", "orbitlb.orbit", "verify_guarantees"),
    ("partition", "orbitlb.partition", "partition"),
    ("fileio.load", "orbitlb.fileio", "load_topology"),
    ("fileio.load", "orbitlb.fileio", "load_demands"),
    ("fileio.write", "orbitlb.fileio", "write_text"),
    ("milp.build", "orbitlb.milp", "build_model"),
    ("milp.export", "orbitlb.milp", "export_lp"),
    ("annealing", "orbitlb.annealing", "simulated_annealing"),
    ("oracle", "orbitlb.oracle", "exact_oracle"),
    ("cli", "orbitlb.cli", "main"),
)
# (span name, module, class, method)
METHOD_TARGETS = (("model.restricted", "orbitlb.model", "NfviGraph", "restricted"),)

# per-layer metrics: name -> (unit, better); values are per traced round
PER_LAYER = {
    "routing.spf.calls": ("count", "lower"),
    "routing.spf.self_s": ("s", "lower"),
    "routing.dag.calls": ("count", "lower"),
    "routing.dag.self_s": ("s", "lower"),
    "routing.route_sfc.calls": ("count", "lower"),
    "routing.route_sfc.self_s": ("s", "lower"),
    "routing.route_stream.self_s": ("s", "lower"),
    "routing.route_all.self_s": ("s", "lower"),
    "model.restricted.calls": ("count", "lower"),
    "model.restricted.self_s": ("s", "lower"),
    "orbit.process_demand.self_s": ("s", "lower"),
    "orbit.subgraph_hit_ratio": ("ratio", "higher"),
    "orbit.subgraph_lookups": ("count", "lower"),
    "orbit.sweeps": ("count", "lower"),
    "orbit.rejected_capacity": ("count", "lower"),
    "orbit.rejected_no_eligible": ("count", "lower"),
    "orbit.verify.self_s": ("s", "lower"),
    "partition.calls": ("count", "lower"),
    "partition.self_s": ("s", "lower"),
    "fileio.load.self_s": ("s", "lower"),
    "fileio.write.self_s": ("s", "lower"),
    "fileio.write.bytes": ("bytes", "lower"),
    "milp.build.self_s": ("s", "lower"),
    "milp.export.self_s": ("s", "lower"),
    "milp.rows": ("count", "lower"),
    "milp.lp_bytes": ("bytes", "lower"),
    "annealing.self_s": ("s", "lower"),
    "annealing.eval_ratio": ("ratio", "lower"),
    "annealing.proposals": ("count", "lower"),
    "oracle.self_s": ("s", "lower"),
    "oracle.feasible_ratio": ("ratio", "higher"),
    "oracle.vectors": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "runtime.gc_pause_s": ("s", "lower"),
    "runtime.gc_gen2_collections": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory span recorder; only records while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[tuple[str, str]] = []  # (layer, calling module)
        self._name_ids: dict[tuple[str, str], int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.eval_index = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_started = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, layer: str, site: str) -> int:
        key = (layer, site)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _wrap(self, layer: str, site: str, fn):
        name_id = self._name_id(layer, site)
        observe = _OBSERVERS.get(layer)
        before_of = _BEFORE.get(layer)
        # top-level work items carry their own operation id
        op_of = None
        if layer == "orbit.process_demand":
            op_of = lambda args: args[1].id  # noqa: E731
        elif (layer, site) in (("routing.route_stream", "orbitlb.annealing"),
                               ("routing.route_all", "orbitlb.oracle")):
            op_of = self._next_eval

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            saved_op = self.current_op
            if op_of is not None:
                self.current_op = op_of(args)
            before = before_of(args) if before_of else None
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self._stack.append(idx)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
                self.current_op = saved_op
            if observe:
                observe(self, args, result, before)
            return result

        return traced

    def _next_eval(self, _args) -> int:
        self.eval_index += 1
        return self.eval_index

    def _gc_callback(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every orbitlb module binding."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "orbitlb" or name.startswith("orbitlb.")) and m is not None]
        for layer, mod_name, attr in FUNCTION_TARGETS:
            orig = getattr(importlib.import_module(mod_name), attr)
            for m in modules:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, name, orig))
                        setattr(m, name, self._wrap(layer, m.__name__, orig))
        for layer, mod_name, cls_name, meth in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(layer, mod_name, orig))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- results -----------------------------------------------------------

    def _child_seconds(self) -> list[float]:
        """Per span: the summed duration of its direct children."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return child

    def self_times(self) -> tuple[dict[str, float], dict[tuple[str, str], int]]:
        """Self seconds per layer and call counts per (layer, site)."""
        child = self._child_seconds()
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        for i in range(len(self.start)):
            key = self.names[self.name_of[i]]
            self_s[key[0]] += self.end[i] - self.start[i] - child[i]
            calls[key] += 1
        return self_s, calls

    def _inside(self, layer: str, site: str | None = None) -> list[bool]:
        """Per span: is it a ``layer`` span or nested in one?"""
        ids = {i for i, (lay, st) in enumerate(self.names)
               if lay == layer and (site is None or st == site)}
        inside = [False] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            inside[i] = self.name_of[i] in ids or (p >= 0 and inside[p])
        return inside

    def orbit_side_counts(self) -> tuple[int, int]:
        """(shortest-path fields built, routings attempted) inside
        ``process_demand`` spans: each field built there is a share-subgraph
        cache miss."""
        inside = self._inside("orbit.process_demand")
        spf_id = self._name_ids.get(("routing.spf", "orbitlb.orbit"), -2)
        sfc_id = self._name_ids.get(("routing.route_sfc", "orbitlb.orbit"), -2)
        builds = attempts = 0
        for i, flag in enumerate(inside):
            if flag and self.name_of[i] == spf_id:
                builds += 1
            elif flag and self.name_of[i] == sfc_id:
                attempts += 1
        return builds, attempts

    def shares_within(self, layer: str) -> dict[str, float]:
        """Each layer's self time as a share of the time spent in ``layer``
        spans (outermost ones), largest first."""
        inside = self._inside(layer)
        child = self._child_seconds()
        total = 0.0
        by_layer: dict[str, float] = defaultdict(float)
        for i, flag in enumerate(inside):
            if not flag:
                continue
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0 or not inside[p]:
                total += dur
            by_layer[self.names[self.name_of[i]][0]] += dur - child[i]
        if total == 0.0:
            return {}
        return dict(sorted(((k, v / total) for k, v in by_layer.items()),
                           key=lambda kv: -kv[1]))

    def per_layer(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, averaged over ``rounds`` traced rounds."""
        self_s, calls = self.self_times()
        layer_calls: dict[str, int] = defaultdict(int)
        for (layer, _site), c in calls.items():
            layer_calls[layer] += c
        builds, attempts = self.orbit_side_counts()
        c = self.counters
        # each annealing run routes its starting point before any proposal
        sa_evals = (calls.get(("routing.route_stream", "orbitlb.annealing"), 0)
                    - layer_calls["annealing"])
        out = {
            "orbit.subgraph_hit_ratio": _ratio(attempts - builds, attempts),
            "annealing.eval_ratio": _ratio(sa_evals, c["annealing.proposals"]),
            "oracle.feasible_ratio": _ratio(c["oracle.feasible"], c["oracle.logged"]),
        }
        per_round = {
            "orbit.subgraph_lookups": attempts,
            "runtime.gc_pause_s": self.gc_pause_s,
            "runtime.gc_gen2_collections": self.gc_gen2,
        }
        for name in PER_LAYER:
            if name in out or name in per_round or name == "trace.overhead_s":
                continue
            layer, _, kind = name.rpartition(".")
            if kind == "self_s":
                per_round[name] = self_s.get(layer, 0.0)
            elif kind == "calls":
                per_round[name] = layer_calls.get(layer, 0)
            else:
                per_round[name] = c[name]
        out.update({k: v / rounds for k, v in per_round.items()})
        out["trace.overhead_s"] = overhead_s
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as gzip CSV; returns the span count."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,layer,site,op,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                layer, site = self.names[self.name_of[i]]
                fh.write(f"{i},{layer},{site},{self.op[i]},{self.parent[i]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")
        return len(self.start)


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


# Observers run after each traced call and record counts that the layer
# does not return as a span; ``before`` is what _BEFORE read ahead of it.

def _observe_write(tr: Tracer, args, result, before):
    tr.counters["fileio.write.bytes"] += os.path.getsize(args[0])


def _observe_build(tr: Tracer, args, result, before):
    tr.counters["milp.rows"] += len(result.rows)


def _observe_export(tr: Tracer, args, result, before):
    tr.counters["milp.lp_bytes"] += len(result)


def _observe_demand(tr: Tracer, args, result, before):
    tr.counters["orbit.sweeps"] += args[0].d_o - before
    if result.reason == "capacity":
        tr.counters["orbit.rejected_capacity"] += 1
    elif result.reason == "no_eligible_partition":
        tr.counters["orbit.rejected_no_eligible"] += 1


def _observe_annealing(tr: Tracer, args, result, before):
    tr.counters["annealing.proposals"] += len(result.best_energy_trace) - 1


def _observe_oracle(tr: Tracer, args, result, before):
    tr.counters["oracle.vectors"] += result.combinations
    tr.counters["oracle.logged"] += len(result.log)
    tr.counters["oracle.feasible"] += sum(1 for e in result.log if e.feasible)


# the state's sweep count before a demand is processed
_BEFORE = {"orbit.process_demand": lambda args: args[0].d_o}

_OBSERVERS = {
    "fileio.write": _observe_write,
    "milp.build": _observe_build,
    "milp.export": _observe_export,
    "orbit.process_demand": _observe_demand,
    "annealing": _observe_annealing,
    "oracle": _observe_oracle,
}


@contextmanager
def timed_calls(module, attr: str, sink: list[float]):
    """Append the duration of every call made through ``module.attr`` to
    ``sink``; the untraced runs use this to time single operations."""
    orig = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, orig)
