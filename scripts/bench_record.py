"""Record benchmark runs as labelled points in BENCH_<tag>.json.

    python3 scripts/bench_record.py --tag pr10 --workload online_scaled \\
        --seeds 63,64,65,66,67 --seconds 36 --side parent=../parent --side change=.

Each ``--side LABEL=DIR`` names a checkout of this repository.  For every
workload and seed, each side runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`` in
its own directory; the sides alternate which runs first from one seed to
the next, so a drift in machine speed falls on both.  Each side then
appends one point to ``BENCH_<tag>.json`` in the current directory.  A
point holds:

- ``label``, ``commit`` (``-dirty`` when ``src/`` or ``perfbench/`` differ
  from it) and ``src_sha256`` over ``src/orbitlb/*.py``;
- ``python`` and ``machine`` (platform and CPU count);
- ``src_lines``, the line count of ``src/orbitlb/*.py``;
- per workload: the seeds, the run length, ``attempted``/``failed`` summed
  over the runs, the digests of each seed, and the median, quartiles, IQR
  and per-seed values of every end-to-end metric.

It then prints each side's ``src_lines`` and, per workload and end-to-end
metric, how many seed pairs the last side wins against the first (ties
count for neither), both medians, the first side's IQR and a verdict
against the metric's bound; then every seed whose digests differ between
the two.  Which way is better and each bound come from ``BENCHMARK.json``
beside ``scripts/``.  The verdict is:

- ``within bound`` when every run of the last side is better than every
  run of the first;
- else ``unresolved`` when the first side's IQR exceeds the bound relative
  to its median, so a change of the bound's size cannot be told from
  noise;
- else ``WORSE than bound`` when the last side's median is worse than the
  first's by more than the bound, relative to the first's median, and
  ``within bound`` when it is not.

Exit status is 0 when every run printed a result, 1 otherwise (nothing is
written then).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The (report, result) pair from a run's output: the last line is the
    result and the line before it the report, both JSON objects."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("run printed no report and result lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: dict[int, str]) -> dict:
    """One workload's entry of a point from the outputs of its runs, keyed
    by seed."""
    seeds = sorted(runs)
    parsed = {seed: parse_run(runs[seed]) for seed in seeds}
    metrics: dict[str, dict] = {}
    for name, first in parsed[seeds[0]][1]["metrics"].items():
        values = [parsed[seed][1]["metrics"][name]["value"] for seed in seeds]
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr": q3 - q1,
            "values": values,
        }
    return {
        "seeds": seeds,
        "attempted": sum(result["attempted"] for _, result in parsed.values()),
        "failed": sum(result["failed"] for _, result in parsed.values()),
        "digests": {str(seed): parsed[seed][0].get("digests") for seed in seeds},
        "metrics": metrics,
    }


def end_to_end_metrics(path: str) -> dict[str, tuple[str, float]]:
    """Each end-to-end metric's ``better`` ("lower" or "higher") and
    ``bound`` as declared in the benchmark file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def _relative(x: float, base: float) -> float:
    """x as a fraction of base; a non-zero x against a zero base is infinite."""
    if base:
        return x / abs(base)
    return math.copysign(math.inf, x) if x else 0.0


def verdict(a: dict, b: dict, sign: int, bound: float) -> str:
    """The last side's metric ``b`` against the first side's ``a`` (both as
    made by ``summarise``), where ``sign`` is 1 when higher is better and
    -1 when lower is."""
    if min(sign * y for y in b["values"]) > max(sign * x for x in a["values"]):
        return "within bound"
    if _relative(a["iqr"], a["median"]) > bound:
        return "unresolved"
    if _relative(sign * (a["median"] - b["median"]), a["median"]) > bound:
        return "WORSE than bound"
    return "within bound"


def compare(first: dict, last: dict, metrics_spec: dict[str, tuple[str, float]]) -> dict:
    """Seed-by-seed comparison of two sides' entries for one workload, as
    made by ``summarise``: per metric named in ``metrics_spec`` (name to
    better and bound), the pairs each side wins (ties count for neither),
    both medians, the first side's IQR and the ``verdict``; and the seeds
    whose digests differ."""
    if first["seeds"] != last["seeds"]:
        raise ValueError(f"sides ran different seeds: {first['seeds']} and {last['seeds']}")
    metrics = {}
    for name, (direction, bound) in metrics_spec.items():
        if name not in first["metrics"] or name not in last["metrics"]:
            continue
        a, b = first["metrics"][name], last["metrics"][name]
        sign = 1 if direction == "higher" else -1
        diffs = [sign * (y - x) for x, y in zip(a["values"], b["values"])]
        metrics[name] = {
            "better": direction,
            "bound": bound,
            "pairs": len(diffs),
            "last_wins": sum(diff > 0 for diff in diffs),
            "first_wins": sum(diff < 0 for diff in diffs),
            "first_median": a["median"],
            "last_median": b["median"],
            "first_iqr": a["iqr"],
            "verdict": verdict(a, b, sign, bound),
        }
    differ = [int(seed) for seed in first["digests"] if first["digests"][seed] != last["digests"].get(seed)]
    return {"metrics": metrics, "digests_differ": differ}


def render_comparison(workload: str, first: str, last: str, cmp: dict) -> list[str]:
    """Text lines of one workload's ``compare`` result between the sides
    labelled ``first`` and ``last``."""
    lines = [f"{workload}: {last} against {first}"]
    for name, m in cmp["metrics"].items():
        lines.append(
            f"  {name} ({m['better']} is better): {last} wins {m['last_wins']}/{m['pairs']} pairs,"
            f" {first} wins {m['first_wins']}; median {m['first_median']:.6g} -> {m['last_median']:.6g},"
            f" {first} IQR {m['first_iqr']:.6g}; {m['verdict']} {m['bound']:g}"
        )
    if cmp["digests_differ"]:
        lines.append("  digests DIFFER at seeds " + ", ".join(map(str, cmp["digests_differ"])))
    else:
        lines.append("  digests equal at every seed")
    return lines


def render_src_lines(points: list[dict]) -> str:
    """One line naming each point's label and ``src_lines``."""
    return "src_lines: " + ", ".join(f"{p['label']} {p['src_lines']}" for p in points)


def checkout_identity(root: str) -> dict:
    """The commit of ``root`` and the digest and line count of its
    ``src/orbitlb`` sources."""
    def git(*args: str) -> str:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else ""

    commit = git("rev-parse", "HEAD") or "unknown"
    if git("status", "--porcelain", "--", "src", "perfbench"):
        commit += "-dirty"
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "orbitlb", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += len(data.splitlines())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def run_once(root: str, workload: str, seed: int, seconds: float) -> str:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=seconds * 4 + 300)
    if out.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return out.stdout


def seed_list(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not seeds or len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"expected distinct seeds, got {text!r}")
    return seeds


def side(text: str) -> tuple[str, str]:
    label, sep, root = text.partition("=")
    if not sep or not label or not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR of a checkout, got {text!r}")
    return label, os.path.abspath(root)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--side", type=side, action="append", required=True)
    args = parser.parse_args(argv)
    sides = dict(args.side)
    metrics_spec = end_to_end_metrics(BENCHMARK)
    outputs: dict[str, dict[str, dict[int, str]]] = {label: {} for label in sides}
    try:
        for workload in args.workload:
            for k, seed in enumerate(args.seeds):
                labels = list(sides) if k % 2 == 0 else list(reversed(sides))
                for label in labels:
                    stdout = run_once(sides[label], workload, seed, args.seconds)
                    outputs[label].setdefault(workload, {})[seed] = stdout
                    print(f"{workload} seed {seed} {label}: {parse_run(stdout)[1]}", file=sys.stderr)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = f"BENCH_{args.tag}.json"
    doc = {"tag": args.tag, "points": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    machine = f"{platform.platform()}; {os.cpu_count()} CPUs"
    for label, root in sides.items():
        workloads = {
            name: dict(summarise(runs), seconds=args.seconds)
            for name, runs in outputs[label].items()
        }
        doc["points"].append({
            "label": label,
            **checkout_identity(root),
            "python": platform.python_version(),
            "machine": machine,
            "workloads": workloads,
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    points = doc["points"][-len(sides):]
    print(render_src_lines(points))
    if len(sides) > 1:
        labels = list(sides)
        first, last = points[0]["workloads"], points[-1]["workloads"]
        for workload in args.workload:
            cmp = compare(first[workload], last[workload], metrics_spec)
            print("\n".join(render_comparison(workload, labels[0], labels[-1], cmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
