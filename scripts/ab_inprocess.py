"""Time two checkouts of this repository against each other in one process.

    python3 scripts/ab_inprocess.py --workload online_scaled --seed 63 \\
        --pairs 40 parent=../parent change=.

Each ``LABEL=DIR`` names a checkout; its ``src/orbitlb`` is imported under
its own module name, so both run in one interpreter on the same inputs.
A pair runs one round on each side, and the sides alternate which runs
first from one pair to the next, so a drift in machine speed falls on both.
A round is one of:

- ``online_scaled``: ``process_demand`` over the benchmark's generated
  64-node, 1,000-demand stream for the seed (kappa 4, epsilon 1.5); the
  output is ``events_csv()``;
- ``annealing``: the benchmark's annealing schedule on bundled geant; the
  output is the best weights and the best-energy trace;
- ``sweep``: ``orbitlb sweep`` over kappa {2,3} x epsilon {1..5} on both
  bundled datasets, with ``--seed``; the output is every file written and
  the printed text.

Only the round itself is timed, by process CPU time; inputs are parsed and
the graph partitioned before the clock starts.  Every round's output must
equal the first side's byte for byte, or the script stops with an
AssertionError.  It prints each side's median seconds per round, the
median over pairs of first/last seconds (above 1 when the last side is
faster) and how many pairs the last side wins.  The instance generator,
the benchmark's settings and the dataset files are taken from this
script's checkout for both sides.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATASETS = os.path.join(ROOT, "src", "orbitlb", "datasets")


def load_package(name: str, checkout: str) -> types.SimpleNamespace:
    """The checkout's ``src/orbitlb`` imported as the package ``name``; the
    result holds the submodules a round uses."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "orbitlb")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    subs = ("annealing", "cli", "fileio", "orbit", "partition")
    return types.SimpleNamespace(**{sub: importlib.import_module(f"{name}.{sub}") for sub in subs})


def perfbench():
    """This checkout's ``perfbench/workloads.py``, which holds the
    benchmark's instance sizes, partition settings and schedule."""
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return importlib.import_module("workloads")


@functools.lru_cache(maxsize=None)
def online_texts(seed: int) -> tuple[str, str]:
    """Topology and demand text of the benchmark's online_scaled stream."""
    workloads = perfbench()
    from orbitlb import fileio

    inst = workloads.gen.draw(workloads.OnlineScaled().spec, seed, "online")
    return fileio.serialize_topology(inst.graph), fileio.serialize_demands(inst.demands)


class OnlineRound:
    def __init__(self, pkg, seed: int, work_dir: str) -> None:
        self.pkg = pkg
        paths = [os.path.join(work_dir, name) for name in ("online.topo", "online.demands")]
        for path, text in zip(paths, online_texts(seed)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        self.g = pkg.fileio.load_topology(paths[0])
        self.demands = list(pkg.fileio.load_demands(paths[1], self.g))
        bench = perfbench().OnlineScaled
        self.part = pkg.partition.partition(self.g, bench.KAPPA, bench.EPSILON,
                                            bench.PARTITION_SEED)

    def __call__(self) -> tuple[float, bytes]:
        state = self.pkg.orbit.OrbitState(self.g, self.part)
        process = self.pkg.orbit.process_demand
        start = time.process_time()
        for d in self.demands:
            process(state, d)
        seconds = time.process_time() - start
        return seconds, state.events_csv().encode()


class AnnealingRound:
    def __init__(self, pkg, _seed: int, _work_dir: str) -> None:
        self.pkg = pkg
        self.schedule = perfbench().WeightSearch.SCHEDULE
        self.g = pkg.fileio.load_topology(os.path.join(DATASETS, "geant.topo"))
        self.demands = list(pkg.fileio.load_demands(os.path.join(DATASETS, "geant.demands"), self.g))

    def __call__(self) -> tuple[float, bytes]:
        schedule = self.pkg.annealing.AnnealingSchedule(**self.schedule)
        start = time.process_time()
        sa = self.pkg.annealing.simulated_annealing(self.g, self.demands, schedule)
        seconds = time.process_time() - start
        out = {"w": sorted(sa.w.items()), "trace": [repr(x) for x in sa.best_energy_trace]}
        return seconds, json.dumps(out).encode()


class SweepRound:
    def __init__(self, pkg, seed: int, work_dir: str) -> None:
        self.pkg, self.seed, self.out = pkg, seed, os.path.join(work_dir, "out")

    def __call__(self) -> tuple[float, bytes]:
        printed = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            for name in ("internet2", "geant"):
                code = self.pkg.cli.main([
                    "sweep", "--topology", os.path.join(DATASETS, f"{name}.topo"),
                    "--demands", os.path.join(DATASETS, f"{name}.demands"),
                    "--kappa", "2,3", "--epsilon", "1,2,3,4,5", "--seed", str(self.seed),
                    "--out", os.path.join(self.out, name)])
                if code != 0:
                    raise AssertionError(f"sweep on {name} exited {code}")
        seconds = time.process_time() - start
        blob = [printed.getvalue().encode()]
        for base, _dirs, files in sorted(os.walk(self.out)):
            for file in sorted(files):
                path = os.path.join(base, file)
                with open(path, "rb") as fh:
                    blob.append(os.path.relpath(path, self.out).encode() + b"\0" + fh.read())
        return seconds, b"\0".join(blob)


ROUNDS = {"online_scaled": OnlineRound, "annealing": AnnealingRound, "sweep": SweepRound}


def side(text: str) -> tuple[str, str]:
    label, sep, path = text.partition("=")
    if not sep or not label.isidentifier() or not os.path.isdir(os.path.join(path, "src", "orbitlb")):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR of a checkout, got {text!r}")
    return label, path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, default=63)
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("sides", type=side, nargs=2, metavar="LABEL=DIR")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    (first, _), (last, _) = args.sides
    if first == last:
        parser.error("the two sides need different labels")
    times: dict[str, list[float]] = {first: [], last: []}
    expected: bytes | None = None
    with tempfile.TemporaryDirectory() as tmp:
        rounds = {}
        for label, path in args.sides:
            work_dir = os.path.join(tmp, label)
            os.makedirs(work_dir)
            pkg = load_package(f"orbitlb_ab_{label}", path)
            rounds[label] = ROUNDS[args.workload](pkg, args.seed, work_dir)
        for k in range(args.pairs):
            for label in (first, last) if k % 2 == 0 else (last, first):
                gc.collect()
                seconds, out = rounds[label]()
                if expected is None:
                    expected = out
                if out != expected:
                    raise AssertionError(f"{label}'s output differs in pair {k}")
                times[label].append(seconds)
    ratios = [a / b for a, b in zip(times[first], times[last])]
    wins = sum(b < a for a, b in zip(times[first], times[last]))
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, outputs equal "
          f"({len(expected)} bytes)")
    for label in (first, last):
        print(f"{label}: median {statistics.median(times[label]):.4f} s CPU per round")
    print(f"median ratio {first}/{last} x{statistics.median(ratios):.3f}, "
          f"{last} wins {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
