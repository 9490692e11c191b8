"""The benchmark's workloads.

Every workload is a closed loop with one caller in one process and one
thread: the online model decides one arrival at a time and ``OrbitState``
is single-writer, so throughput at a stated instance size plus the latency
of one operation are the numbers a user sees.

A workload repeats rounds.  Each round first sets up its inputs (timed as
``setup_s``), then does a fixed amount of work (timed as the round) and
finally has its outputs checked (untimed).  A round always completes, so
every round does the same work and per-round rates are comparable.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

from orbitlb import annealing, cli, dataset_path, fileio, oracle, orbit, routing
from orbitlb.annealing import AnnealingSchedule
from orbitlb.model import DemandStream
from orbitlb.routing import RATE_TOL, unit_weights

import gen
from spans import timed_calls

# the package re-exports partition() under the submodule's name
partition_mod = importlib.import_module("orbitlb.partition")

UTIL_TOL = 1e-9


@dataclass
class RoundResult:
    """What one round did and what it produced."""

    # time the counted operations took
    seconds: float
    ops: int
    latencies: list[float]
    # what a user reads off the round under its own name: rates, and
    # results that are fixed per seed
    figures: dict[str, float] = field(default_factory=dict)
    # sha256 of each output, identical across rounds and runs of one seed
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    checks: int = 0
    # what check() inspects besides the files the round wrote
    outputs: object = None


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Checks:
    """Counts output checks and records the failed ones."""

    def __init__(self, result: RoundResult) -> None:
        self.result = result

    def __call__(self, ok: bool, what: str) -> bool:
        self.result.checks += 1
        if not ok:
            self.result.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# online_scaled: the paper's online admission path at a 64-node scale


class OnlineScaled:
    """About 64 nodes (ring plus chords), 4 functions and 1000 demands with
    chains of length 0-3, admitted one by one with kappa=4, epsilon=1.5.
    Capacities are the bundled tiers times 48, which puts acceptance mid-range."""

    name = "online_scaled"
    op_name = "admission decision (process_demand)"
    names = {"ops_per_s": "demands_per_s", "op_p50_ms": "admit_p50_ms",
             "op_p99_ms": "admit_p99_ms"}
    trace_roots = ("orbit.process_demand",)
    scale_times = True
    KAPPA = 4
    EPSILON = 1.5
    PARTITION_SEED = 0

    def __init__(self, spec: gen.InstanceSpec | None = None) -> None:
        self.spec = spec or gen.InstanceSpec(
            nodes=64, chords=40, demands=1000,
            capacity_tiers=(10.0, 20.0, 40.0), capacity_scale=48.0,
        )

    def setup(self, seed: int, work_dir: str):
        inst = gen.round_trip(gen.draw(self.spec, seed, "online"), "online", work_dir)
        part = partition_mod.partition(inst.graph, self.KAPPA, self.EPSILON,
                                       self.PARTITION_SEED)
        state = orbit.OrbitState(inst.graph, part)
        return inst, state

    def describe(self, inputs) -> dict:
        inst, _state = inputs
        return {"online": inst.describe(), "kappa": self.KAPPA, "epsilon": self.EPSILON}

    def run_round(self, inputs) -> RoundResult:
        inst, state = inputs
        latencies: list[float] = []
        clock = time.perf_counter
        start = clock()
        for d in inst.demands:
            t0 = clock()
            orbit.process_demand(state, d)
            latencies.append(clock() - t0)
        seconds = clock() - start
        return RoundResult(seconds, len(inst.demands), latencies)

    def check(self, inputs, result: RoundResult) -> None:
        inst, state = inputs
        ok = Checks(result)
        report = orbit.verify_guarantees(state)
        ok(report.ok, "verify_guarantees failed: " + report.render().replace("\n", "; "))
        util = state.max_utilization()
        ok(util <= 1.0 + UTIL_TOL, f"link utilization {util!r} above 1")
        over = [v for v, left in state.residual_node.items()
                if left < -RATE_TOL * max(1.0, inst.graph.node_capacity[v])]
        ok(not over, f"node compute exceeded at {over[:5]}")
        ok(len(state.events) == len(inst.demands), "one event per demand")
        result.figures["acceptance_ratio"] = state.acceptance_ratio()
        result.figures["max_link_utilization"] = util
        result.digests["events.csv"] = sha256(state.events_csv())


# ---------------------------------------------------------------------------
# weight_search: the offline baselines, which re-route on every weight change


class WeightSearch:
    """Simulated annealing on bundled geant with a fixed short schedule and
    seed, then the exhaustive oracle (weights 1..3 on 8 links, 6561 vectors)
    on a generated 4-node ring whose 6 demands are drawn from the seed and
    routable within capacity, so that a feasible optimum exists."""

    name = "weight_search"
    op_name = "annealing evaluation (route_stream on geant)"
    names = {"op_p50_ms": "sa_eval_p50_ms", "op_p99_ms": "sa_eval_p99_ms"}
    trace_roots = ("annealing", "oracle")
    scale_times = True
    ORACLE_W_MAX = 3
    # 5 temperature levels of 31 proposals each; the annealer's own seed is
    # fixed, so every run walks the same weight vectors on geant
    SCHEDULE = dict(initial_temperature=1.0, cooling=0.25, iterations_per_level=31,
                    stop_temperature=1e-3, seed=0)

    def __init__(self, oracle_spec: gen.InstanceSpec | None = None,
                 dataset: str = "geant", schedule: dict | None = None) -> None:
        self.oracle_spec = oracle_spec or gen.InstanceSpec(
            nodes=4, chords=0, demands=6, capacity_tiers=(10.0, 20.0, 40.0),
            capacity_scale=0.5, max_chain=2,
        )
        self.dataset = dataset
        self.schedule = schedule or self.SCHEDULE
        self.oracle_draw: str | None = None

    def prepare(self, seed: int) -> None:
        """Pick the first demand stream drawn for the seed that unit weights
        route feasibly, so the enumeration always has a feasible optimum.
        This chooses the input; it is neither timed nor traced."""
        for attempt in range(1000):
            inst = gen.draw(self.oracle_spec, f"{seed}.{attempt}", "oracle")
            res = routing.route_all(inst.graph, unit_weights(inst.graph), list(inst.demands))
            if (res is not None and res.report.r <= 1.0 + RATE_TOL
                    and not res.report.over_capacity_nodes(inst.graph)):
                self.oracle_draw = f"{seed}.{attempt}"
                return
        raise RuntimeError("no feasible oracle instance for this seed")

    def setup(self, seed: int, work_dir: str):
        g = fileio.load_topology(dataset_path(f"{self.dataset}.topo"))
        demands = list(fileio.load_demands(dataset_path(f"{self.dataset}.demands"), g))
        inst = gen.draw(self.oracle_spec, self.oracle_draw, "oracle")
        return g, demands, gen.round_trip(inst, "oracle", work_dir)

    def describe(self, inputs) -> dict:
        g, demands, inst = inputs
        geant = gen.Instance(g, DemandStream(tuple(demands))).describe()
        return {"annealing": geant, "oracle": inst.describe(),
                "oracle_vectors": self.ORACLE_W_MAX ** len(inst.graph.links),
                "schedule": self.schedule}

    def run_round(self, inputs) -> RoundResult:
        g, demands, inst = inputs
        schedule = AnnealingSchedule(**self.schedule)
        evals: list[float] = []
        clock = time.perf_counter
        start = clock()
        with timed_calls(annealing, "route_stream", evals):
            sa = annealing.simulated_annealing(g, demands, schedule)
        mid = clock()
        best = oracle.exact_oracle(inst.graph, list(inst.demands), self.ORACLE_W_MAX,
                                   log_limit=self.ORACLE_W_MAX ** len(inst.graph.links))
        end = clock()
        # the operation is one annealing evaluation, as for the latencies
        sa_evals = len(evals)
        result = RoundResult(mid - start, sa_evals, evals)
        result.figures.update({
            "sa_evals_per_s": sa_evals / (mid - start),
            "oracle_evals_per_s": best.combinations / (end - mid),
        })
        result.outputs = (sa, best)
        return result

    def check(self, inputs, result: RoundResult) -> None:
        g, demands, inst = inputs
        sa, best = result.outputs
        ok = Checks(result)
        again = routing.route_stream(g, sa.w, demands)
        energy = again.report.r + annealing.REJECTION_PENALTY * len(again.rejected_ids)
        ok(energy == sa.energy, f"annealing energy {sa.energy!r} re-routes to {energy!r}")
        ok(again.report.r == sa.report.r, "annealing r does not reproduce")
        trace = sa.best_energy_trace
        ok(all(b <= a for a, b in zip(trace, trace[1:])), "best-energy trace rises")
        ok(best.feasible, "oracle found no feasible vector")
        if best.feasible:
            routed = routing.route_all(inst.graph, best.best_w, list(inst.demands))
            ok(routed is not None and routed.report.r == best.best_r,
               f"oracle r {best.best_r!r} does not reproduce")
            ok(best.best_r <= 1.0 + RATE_TOL, "oracle optimum above capacity")
            unit = routing.route_all(inst.graph, unit_weights(inst.graph), list(inst.demands))
            ok(best.best_r <= unit.report.r, "oracle optimum worse than unit weights")
        result.figures["sa_best_energy"] = sa.energy
        result.figures["sa_acceptance_ratio"] = sa.acceptance_ratio
        result.figures["oracle_best_r"] = best.best_r if best.feasible else math.nan
        result.digests["annealing"] = sha256(json.dumps(
            {"w": sorted(sa.w.items()), "trace": [repr(x) for x in trace]}))
        result.digests["oracle_log.csv"] = sha256(best.log_csv())


# ---------------------------------------------------------------------------
# sweep_export: the command-line path users run


class SweepExport:
    """``orbitlb sweep`` over the kappa {2,3} x epsilon {1..5} grid on both
    bundled datasets, then ``orbitlb export --pd 2`` on geant."""

    name = "sweep_export"
    op_name = "demand replay inside orbitlb sweep"
    names = {"op_p50_ms": "replay_p50_ms", "op_p99_ms": "replay_p99_ms"}
    trace_roots = ("cli",)
    # a round writes about 20 MB of files and builds the LP text in memory,
    # so its time does not follow the reference loop's; it is not scaled
    scale_times = False
    # (dataset, sweep rows): pairs whose balance bound cannot cover the
    # node set are skipped, which leaves 9 of 10 on geant
    DATASETS = (("internet2", 10), ("geant", 9))
    KAPPAS = "2,3"
    EPSILONS = "1,2,3,4,5"
    EXPORT = "geant"
    EXPORT_PD = 2

    def __init__(self, datasets=DATASETS, export: str = EXPORT,
                 demand_limit: int | None = None) -> None:
        self.datasets = datasets
        self.export = export
        self.demand_limit = demand_limit

    def setup(self, seed: int, work_dir: str):
        """Parse the bundled inputs and write the copies the CLI reads."""
        inputs = {}
        for name in {n for n, _ in self.datasets} | {self.export}:
            g = fileio.load_topology(dataset_path(f"{name}.topo"))
            stream = fileio.load_demands(dataset_path(f"{name}.demands"), g)
            if self.demand_limit is not None:
                stream = DemandStream(stream.demands[: self.demand_limit])
            inst = gen.round_trip(gen.Instance(g, stream), name,
                                  os.path.join(work_dir, "inputs"))
            inputs[name] = inst
        return inputs, seed, work_dir

    def describe(self, inputs) -> dict:
        insts, _seed, _ = inputs
        return {name: inst.describe() for name, inst in sorted(insts.items())}

    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _files(self, work_dir: str, name: str) -> list[str]:
        base = os.path.join(work_dir, "inputs", name)
        return ["--topology", base + ".topo", "--demands", base + ".demands"]

    def run_round(self, inputs) -> RoundResult:
        insts, seed, work_dir = inputs
        out_dir = os.path.join(work_dir, "out")
        replays: list[float] = []
        codes = {}
        clock = time.perf_counter
        start = clock()
        with timed_calls(orbit, "process_demand", replays):
            for name, _rows in self.datasets:
                codes[f"sweep_{name}"] = self._cli(
                    ["sweep", *self._files(work_dir, name), "--kappa", self.KAPPAS,
                     "--epsilon", self.EPSILONS, "--seed", str(seed),
                     "--out", os.path.join(out_dir, name)])
        mid = clock()
        codes["export"] = self._cli(
            ["export", *self._files(work_dir, self.export), "--pd", str(self.EXPORT_PD),
             "--out", os.path.join(out_dir, "export")])
        end = clock()
        n_replays = len(replays)
        rows = _lp_rows(os.path.join(out_dir, "export", "model.lp"))
        result = RoundResult(end - start, n_replays, replays)
        result.figures.update({
            "sweep_demands_per_s": n_replays / (mid - start),
            "export_rows_per_s": rows / (end - mid),
            "export_rows": rows,
        })
        result.outputs = codes
        return result

    def check(self, inputs, result: RoundResult) -> None:
        insts, _seed, work_dir = inputs
        out_dir = os.path.join(work_dir, "out")
        codes = result.outputs
        ok = Checks(result)
        for what, (code, _out, err) in sorted(codes.items()):
            ok(code == 0, f"{what} exited {code}: {err.strip()[:200]}")
        for name, expected in self.datasets:
            d = os.path.join(out_dir, name)
            path = os.path.join(d, "sweep.csv")
            if not ok(os.path.isfile(path), f"{name}: no sweep.csv"):
                continue
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            ok(lines[0] == cli.SWEEP_HEADER, f"{name}: sweep.csv header")
            ok(len(lines) - 1 == expected,
               f"{name}: {len(lines) - 1} sweep rows, expected {expected}")
            for line in lines[1:]:
                _k, _e, util, acc = line.split(",")
                ok(float(util) <= 1.0 + UTIL_TOL, f"{name}: utilization {util} above 1")
                ok(0.0 <= float(acc) <= 1.0, f"{name}: acceptance {acc} out of range")
            result.digests[f"{name}/sweep.csv"] = file_sha256(path)
            events = sorted(f for f in os.listdir(d) if f.startswith("events_"))
            ok(len(events) == expected, f"{name}: {len(events)} event logs")
            h = hashlib.sha256()
            for f in events:
                h.update(f.encode() + b"\0")
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(fh.read())
            result.digests[f"{name}/events_*.csv"] = h.hexdigest()
            for f in sorted(os.listdir(d)):
                if f.startswith("guarantees_"):
                    with open(os.path.join(d, f), encoding="utf-8") as fh:
                        ok("VIOLATED" not in fh.read(), f"{name}/{f} reports a violation")
        # the export prints "... constraints 1:N 2:N ...", its family_counts()
        _code, summary, _err = codes["export"]
        printed = re.findall(r"(\d+):(\d+)", summary.partition("constraints")[2])
        got = {fam: int(n) for fam, n in printed}
        expected = family_closed_forms(insts[self.export], self.EXPORT_PD)
        ok(got == expected, f"export family counts {got} differ from closed forms {expected}")
        lp = os.path.join(out_dir, "export", "model.lp")
        if ok(os.path.isfile(lp), "export wrote no model.lp"):
            result.digests["model.lp"] = file_sha256(lp)


def family_closed_forms(inst: gen.Instance, pd: int) -> dict[str, int]:
    """Constraints per family of ``build_model`` as closed forms in the
    instance size (two-sided constraints count once)."""
    g, demands = inst.graph, list(inst.demands)
    n, m, k = len(g.node_capacity), len(g.links), len(demands)
    targets = len({d.dst for d in demands})
    positive = [d for d in demands if d.volume > 0]
    return {
        "1": k * (n - 2), "2": k, "3": k, "4": m, "5": m * targets,
        "6": k * m, "7": k * m, "8": m,
        "9": pd * sum(len(d.chain) for d in positive), "10": pd * len(positive),
        "11": pd * k * m, "12": pd * k * m, "13": pd * k * m, "14": n,
    }


def _lp_rows(path: str) -> int:
    """Constraint lines in an LP file (the rows the exporter wrote)."""
    rows = 0
    section = ""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith(" "):
                section = line.strip()
            elif section == "Subject To":
                rows += 1
    return rows


WORKLOADS = {w.name: w for w in (OnlineScaled, WeightSearch, SweepExport)}
