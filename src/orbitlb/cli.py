"""Command-line experiment runner.

Three subcommands cover the study shapes: ``sweep`` replays a demand file
through the online algorithm for every (kappa, epsilon) pair and tabulates
utilization and acceptance, ``compare`` lines the online result up against
the exhaustive optimum and the annealing baseline, ``export`` writes the
optimization model as an LP file.  All outputs are plain CSV/LP/text files
in the chosen output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Callable

from .annealing import AnnealingSchedule, simulated_annealing
from .errors import OracleGuardError, OrbitlbError, PartitionError
from .fileio import _plain, csv_text, format_number, load_demands, load_topology, write_text
from .milp import build_model, write_lp
from .model import DemandStream, NfviGraph
from .oracle import exact_oracle
from .orbit import run_stream, verify_guarantees
from .partition import Partitioning, partition
from .routing import unit_weights

SWEEP_HEADER = "kappa,epsilon,max_link_utilization,acceptance_ratio"
COMPARE_HEADER = "algorithm,max_link_utilization,acceptance_ratio,runtime_ms"
KNOWN_ALGORITHMS = ("orbit", "oracle", "sa")


def _number(
    low: float, kind: type = int, strict: bool = False, below: float = math.inf
) -> Callable[[str], float]:
    """Argparse type: one finite ``kind`` value, written as ``fileio``'s
    inputs are (ASCII digits, no '_' separators), no smaller than ``low``
    (greater than it when ``strict``) and smaller than ``below``."""
    bound = f"{'>' if strict else '>='} {low}"
    if below != math.inf:
        bound = f"in {'(' if strict else '['}{low}, {below})"

    def check(text: str) -> float:
        try:
            val = _plain(kind, text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (math.isfinite(val) and (val > low if strict else val >= low) and val < below):
            raise argparse.ArgumentTypeError(f"must be finite and {bound}, got {text!r}")
        return val

    return check


def _known_algorithm(text: str) -> str:
    if text not in KNOWN_ALGORITHMS:
        raise argparse.ArgumentTypeError(f"unknown algorithm {text!r}")
    return text


def _list_of(item: Callable[[str], object], one: bool = False) -> Callable[[str], list]:
    """Argparse type: a comma list of ``item`` values, empty entries
    skipped; ``one`` admits a single value."""

    def check(text: str) -> list:
        vals = [item(x) for x in text.split(",") if x != ""]
        if not vals:
            raise argparse.ArgumentTypeError("list is empty")
        if one and len(vals) > 1:
            raise argparse.ArgumentTypeError(
                "compare runs one (kappa, epsilon) pair; give one --kappa and one --epsilon"
            )
        return vals

    return check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitlb",
        description="Online and offline multipath load balancing experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--topology", required=True, help="topology file")
        p.add_argument("--demands", required=True, help="demand file")
        p.add_argument("--out", required=True, help="output directory")

    def online(p: argparse.ArgumentParser, oracle_prefix: int, one: bool) -> None:
        p.add_argument(
            "--kappa", type=_list_of(_number(1), one), default="1",
            help="comma list of group counts",
        )
        p.add_argument(
            "--epsilon", type=_list_of(_number(1, float), one), default="1",
            help="comma list of balance factors",
        )
        p.add_argument(
            "--seed", type=_number(-math.inf), default=0, help="deterministic run seed"
        )
        p.add_argument("--wmax", type=_number(1), default=3, help="largest weight enumerated")
        p.add_argument(
            "--oracle-prefix",
            type=_number(0),
            default=oracle_prefix,
            help="demands whose exhaustive optimum seeds the online weights "
            "(default: %(default)s)",
        )

    p_sweep = sub.add_parser("sweep", help="replay the stream per (kappa, epsilon) pair")
    common(p_sweep)
    online(p_sweep, oracle_prefix=0, one=False)
    p_cmp = sub.add_parser("compare", help="line up online, exhaustive, and annealing runs")
    common(p_cmp)
    online(p_cmp, oracle_prefix=10, one=True)
    p_cmp.add_argument(
        "--algorithms",
        type=_list_of(_known_algorithm),
        default="orbit,oracle,sa",
        help="comma subset of orbit,oracle,sa",
    )
    temperature = _number(0, float, strict=True)
    p_cmp.add_argument("--sa-t0", type=temperature, default=1.0, help="starting temperature")
    p_cmp.add_argument(
        "--sa-cooling", type=_number(0, float, strict=True, below=1), default=0.95,
        help="cooling factor",
    )
    p_cmp.add_argument("--sa-iterations", type=_number(0), default=100, help="moves per level")
    p_cmp.add_argument("--sa-stop", type=temperature, default=1e-3, help="final temperature")
    p_exp = sub.add_parser("export", help="write the optimization model as an LP file")
    common(p_exp)
    p_exp.add_argument("--pd", type=_number(1), default=2, help="flow copies per demand")
    return parser


def _load(args: argparse.Namespace) -> tuple[NfviGraph, DemandStream]:
    g = load_topology(args.topology)
    demands = load_demands(args.demands, g)
    return g, demands


def _prefix_weights(
    g: NfviGraph, demands: DemandStream, w_max: int, prefix: int
) -> dict[str, int]:
    """Weights for the online run: the exhaustive optimum of a stream prefix
    when requested and tractable, unit weights otherwise."""
    if prefix > 0 and len(demands) > 0:
        head = list(demands)[:prefix]
        try:
            oracle = exact_oracle(g, head, w_max)
        except OracleGuardError as exc:
            print(f"warning: weight seeding skipped: {exc}", file=sys.stderr)
            return unit_weights(g)
        if oracle.feasible:
            return oracle.best_w
        print(
            "warning: weight seeding found no feasible vector; using unit weights",
            file=sys.stderr,
        )
    return unit_weights(g)


def _run_orbit(
    g: NfviGraph,
    demands: DemandStream,
    part: Partitioning,
    w: dict[str, int],
    out: str,
    tag: str,
) -> tuple[float, float]:
    """Replay the stream through the online algorithm, write
    ``guarantees_<tag>.txt`` and ``events_<tag>.csv`` under ``out`` and
    return the run's largest link utilization and acceptance ratio.  Each
    problem ``part.verify`` reports is printed to stderr as a warning."""
    for problem in part.verify(g):
        print(
            f"warning: kappa={part.kappa} epsilon={format_number(part.epsilon)}: {problem}",
            file=sys.stderr,
        )
    state = run_stream(g, demands, part, w)
    write_text(os.path.join(out, f"guarantees_{tag}.txt"), verify_guarantees(state).render())
    write_text(os.path.join(out, f"events_{tag}.csv"), state.events_csv())
    return state.loads.r, state.acceptance_ratio()


def _run_sweep(args: argparse.Namespace) -> int:
    g, demands = _load(args)
    w = _prefix_weights(g, demands, args.wmax, args.oracle_prefix)
    rows = []
    ran = 0
    for kappa in sorted(set(args.kappa)):
        for eps in sorted(set(args.epsilon)):
            try:
                part = partition(g, kappa, eps, args.seed)
            except PartitionError as exc:
                print(
                    f"warning: kappa={kappa} epsilon={format_number(eps)} skipped: {exc}",
                    file=sys.stderr,
                )
                continue
            tag = f"k{kappa}_e{format_number(eps)}"
            r, acc = _run_orbit(g, demands, part, w, args.out, tag)
            ran += 1
            rows.append((kappa, eps, r, acc))
    if ran == 0:
        print("error: no (kappa, epsilon) pair was feasible", file=sys.stderr)
        return 1
    write_text(os.path.join(args.out, "sweep.csv"), csv_text(SWEEP_HEADER, rows))
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    g, demands = _load(args)
    rows = []
    for algo in args.algorithms:
        start = time.perf_counter()
        if algo == "orbit":
            w = _prefix_weights(g, demands, args.wmax, args.oracle_prefix)
            part = partition(g, args.kappa[0], args.epsilon[0], args.seed)
            r, acc = _run_orbit(g, demands, part, w, args.out, "compare")
        elif algo == "oracle":
            try:
                oracle = exact_oracle(g, list(demands), args.wmax)
            except OracleGuardError as exc:
                print(f"warning: exhaustive search skipped: {exc}", file=sys.stderr)
                rows.append(("oracle", math.nan, math.nan, math.nan))
                continue
            write_text(os.path.join(args.out, "oracle_log.csv"), oracle.log_csv())
            if oracle.feasible:
                r = oracle.best_r
                acc = 1.0
            else:
                r = float("nan")
                acc = 0.0
        else:
            schedule = AnnealingSchedule(
                initial_temperature=args.sa_t0,
                cooling=args.sa_cooling,
                iterations_per_level=args.sa_iterations,
                stop_temperature=args.sa_stop,
                seed=args.seed,
            )
            sa = simulated_annealing(g, list(demands), schedule)
            r = sa.report.r
            acc = sa.acceptance_ratio
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append((algo, r, acc, round(elapsed_ms, 3)))
    write_text(os.path.join(args.out, "compare.csv"), csv_text(COMPARE_HEADER, rows))
    return 0


def _run_export(args: argparse.Namespace) -> int:
    g, demands = _load(args)
    model = build_model(g, list(demands), args.pd)
    path = os.path.join(args.out, "model.lp")
    counts = write_lp(model, path)
    summary = " ".join(f"{fam}:{counts[fam]}" for fam in sorted(counts, key=lambda f: int(f)))
    n_vars = sum(1 for _ in model.iter_variables())
    print(f"wrote {path} ({n_vars} variables; constraints {summary})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "compare":
            return _run_compare(args)
        return _run_export(args)
    except OrbitlbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
