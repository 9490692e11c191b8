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
import os
import sys
import time
from dataclasses import dataclass, field

from .annealing import AnnealingSchedule, simulated_annealing
from .errors import OracleGuardError, OrbitlbError, PartitionError
from .fileio import load_demands, load_topology, write_text
from .milp import build_model, export_lp
from .model import DemandStream, NfviGraph
from .oracle import exact_oracle
from .orbit import run_stream, verify_guarantees
from .partition import partition
from .routing import format_number, unit_weights

SWEEP_HEADER = "kappa,epsilon,max_link_utilization,acceptance_ratio"
COMPARE_HEADER = "algorithm,max_link_utilization,acceptance_ratio,runtime_ms"
KNOWN_ALGORITHMS = ("orbit", "oracle", "sa")


@dataclass
class ExperimentConfig:
    topology: str
    demands: str
    out_dir: str
    # sweep and compare
    kappas: list[int] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    seed: int = 0
    w_max: int = 0
    # export
    flows_per_demand: int = 0


def _int_list(text: str, parser: argparse.ArgumentParser, flag: str) -> list[int]:
    try:
        vals = [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list, got {text!r}")
    if not vals:
        parser.error(f"{flag} list is empty")
    return vals


def _float_list(text: str, parser: argparse.ArgumentParser, flag: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated number list, got {text!r}")
    if not vals:
        parser.error(f"{flag} list is empty")
    return vals


def _algorithm_list(text: str) -> list[str]:
    vals = [a for a in text.split(",") if a != ""]
    if not vals:
        raise argparse.ArgumentTypeError("list is empty")
    for algo in vals:
        if algo not in KNOWN_ALGORITHMS:
            raise argparse.ArgumentTypeError(f"unknown algorithm {algo!r}")
    return vals


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

    def online(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kappa", default="1", help="comma list of group counts")
        p.add_argument("--epsilon", default="1", help="comma list of balance factors")
        p.add_argument("--seed", type=int, default=0, help="deterministic run seed")
        p.add_argument("--wmax", type=int, default=3, help="largest weight enumerated")
        p.add_argument(
            "--oracle-prefix",
            type=int,
            default=None,
            help="demands whose exhaustive optimum seeds the online weights "
            "(default: 10 for compare, 0 for sweep)",
        )

    p_sweep = sub.add_parser("sweep", help="replay the stream per (kappa, epsilon) pair")
    common(p_sweep)
    online(p_sweep)
    p_cmp = sub.add_parser("compare", help="line up online, exhaustive, and annealing runs")
    common(p_cmp)
    online(p_cmp)
    p_cmp.add_argument(
        "--algorithms",
        type=_algorithm_list,
        default="orbit,oracle,sa",
        help="comma subset of orbit,oracle,sa",
    )
    p_cmp.add_argument("--sa-t0", type=float, default=1.0, help="starting temperature")
    p_cmp.add_argument("--sa-cooling", type=float, default=0.95, help="cooling factor")
    p_cmp.add_argument("--sa-iterations", type=int, default=100, help="moves per level")
    p_cmp.add_argument("--sa-stop", type=float, default=1e-3, help="final temperature")
    p_exp = sub.add_parser("export", help="write the optimization model as an LP file")
    common(p_exp)
    p_exp.add_argument("--pd", type=int, default=2, help="flow copies per demand")
    return parser


def _config_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ExperimentConfig:
    config = ExperimentConfig(topology=args.topology, demands=args.demands, out_dir=args.out)
    if args.command == "export":
        if args.pd < 1:
            parser.error(f"--pd must be >= 1, got {args.pd}")
        config.flows_per_demand = args.pd
        return config
    config.kappas = _int_list(args.kappa, parser, "--kappa")
    config.epsilons = _float_list(args.epsilon, parser, "--epsilon")
    for k in config.kappas:
        if k < 1:
            parser.error(f"--kappa entries must be >= 1, got {k}")
    for e in config.epsilons:
        if e < 1:
            parser.error(f"--epsilon entries must be >= 1, got {e}")
    if args.command == "compare" and (len(config.kappas) > 1 or len(config.epsilons) > 1):
        parser.error("compare runs one (kappa, epsilon) pair; give one --kappa and one --epsilon")
    if args.wmax < 1:
        parser.error(f"--wmax must be >= 1, got {args.wmax}")
    config.seed = args.seed
    config.w_max = args.wmax
    return config


def _load(config: ExperimentConfig) -> tuple[NfviGraph, DemandStream]:
    g = load_topology(config.topology)
    demands = load_demands(config.demands, g)
    return g, demands


def _prefix_weights(
    g: NfviGraph, demands: DemandStream, config: ExperimentConfig, prefix: int
) -> dict[str, int]:
    """Weights for the online run: the exhaustive optimum of a stream prefix
    when requested and tractable, unit weights otherwise."""
    if prefix > 0 and len(demands) > 0:
        head = list(demands)[:prefix]
        try:
            oracle = exact_oracle(g, head, config.w_max)
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


def _run_sweep(config: ExperimentConfig, args: argparse.Namespace) -> int:
    g, demands = _load(config)
    prefix = args.oracle_prefix if args.oracle_prefix is not None else 0
    w = _prefix_weights(g, demands, config, prefix)
    rows = []
    ran = 0
    for kappa in sorted(set(config.kappas)):
        for eps in sorted(set(config.epsilons)):
            try:
                part = partition(g, kappa, eps, config.seed)
            except PartitionError as exc:
                print(
                    f"warning: kappa={kappa} epsilon={format_number(eps)} skipped: {exc}",
                    file=sys.stderr,
                )
                continue
            state = run_stream(g, demands, part, w)
            ran += 1
            rows.append(
                ",".join(
                    [
                        str(kappa),
                        format_number(eps),
                        format_number(state.max_utilization()),
                        format_number(state.acceptance_ratio()),
                    ]
                )
            )
            tag = f"k{kappa}_e{format_number(eps)}"
            write_text(
                os.path.join(config.out_dir, f"guarantees_{tag}.txt"),
                verify_guarantees(state).render(),
            )
            write_text(os.path.join(config.out_dir, f"events_{tag}.csv"), state.events_csv())
    if ran == 0:
        print("error: no (kappa, epsilon) pair was feasible", file=sys.stderr)
        return 1
    write_text(
        os.path.join(config.out_dir, "sweep.csv"),
        "\n".join([SWEEP_HEADER, *rows]) + "\n",
    )
    return 0


def _run_compare(config: ExperimentConfig, args: argparse.Namespace) -> int:
    g, demands = _load(config)
    rows = []
    for algo in args.algorithms:
        start = time.perf_counter()
        if algo == "orbit":
            prefix = args.oracle_prefix if args.oracle_prefix is not None else 10
            w = _prefix_weights(g, demands, config, prefix)
            part = partition(g, config.kappas[0], config.epsilons[0], config.seed)
            state = run_stream(g, demands, part, w)
            r = state.max_utilization()
            acc = state.acceptance_ratio()
            write_text(
                os.path.join(config.out_dir, "guarantees_compare.txt"),
                verify_guarantees(state).render(),
            )
            write_text(os.path.join(config.out_dir, "events_compare.csv"), state.events_csv())
        elif algo == "oracle":
            try:
                oracle = exact_oracle(g, list(demands), config.w_max)
            except OracleGuardError as exc:
                print(f"warning: exhaustive search skipped: {exc}", file=sys.stderr)
                rows.append("oracle,nan,nan,nan")
                continue
            write_text(os.path.join(config.out_dir, "oracle_log.csv"), oracle.log_csv())
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
                seed=config.seed,
            )
            sa = simulated_annealing(g, list(demands), schedule)
            r = sa.report.r
            acc = sa.acceptance_ratio
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            ",".join(
                [algo, format_number(r), format_number(acc), format_number(round(elapsed_ms, 3))]
            )
        )
    write_text(
        os.path.join(config.out_dir, "compare.csv"),
        "\n".join([COMPARE_HEADER, *rows]) + "\n",
    )
    return 0


def _run_export(config: ExperimentConfig) -> int:
    g, demands = _load(config)
    model = build_model(g, list(demands), config.flows_per_demand)
    path = os.path.join(config.out_dir, "model.lp")
    export_lp(model, path)
    counts = model.family_counts()
    summary = " ".join(f"{fam}:{counts[fam]}" for fam in sorted(counts, key=lambda f: int(f)))
    print(f"wrote {path} ({len(model.variables)} variables; constraints {summary})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_from(args, parser)
    try:
        if args.command == "sweep":
            return _run_sweep(config, args)
        if args.command == "compare":
            return _run_compare(config, args)
        return _run_export(config)
    except OrbitlbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
