"""Run one benchmark workload against the orbitlb sources of this checkout.

    python3 perfbench/run.py --workload online_scaled --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run.  The line before it is a JSON report with
the instance sizes, the figures under the names the prediction table uses,
the output digests and every failed check.

Exit status is 0 when a result was printed, 1 when no round could complete
and 2 when the orbitlb sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# On a shared machine the CPU speed can drift by more than the bounds over
# tens of seconds, and a pure-arithmetic loop slows as much as orbitlb does.
# So every untraced round is bracketed by runs of a fixed reference loop,
# and on the workloads whose rounds are CPU-bound (``scale_times``) the
# gated times are scaled by REF_LOOP_S over the loop's mean time in the run:
# they read as seconds on a CPU that runs the loop in REF_LOOP_S.  The
# report keeps them unscaled too.
REF_LOOP_N = 400_000
REF_LOOP_S = 0.040

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_program() -> bool:
    """Put this checkout's ``src`` first on the path and import orbitlb
    from it; False when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "orbitlb", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    import orbitlb

    return os.path.abspath(orbitlb.__file__).startswith(SRC + os.sep)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def reference_loop_s() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i % 7
    return time.perf_counter() - t0


def end_to_end(rounds: list, setup_s: list[float], scale: float) -> dict[str, float]:
    """The timing metrics of the untraced rounds and their set-ups, with
    times multiplied by ``scale``."""
    # p50 and p90 are taken in each round and averaged over the rounds, as
    # the reference loop times are, so a run that is partly slow moves both
    # in proportion.  p99 pools the run; it has too few samples beyond it in
    # a round, and too few in a run to be steady, so it is not gated.
    def per_round(q: float) -> float:
        return statistics.fmean(percentile(r.latencies, q) for r in rounds) * scale * 1000.0

    return {
        "setup_s": statistics.median(setup_s) * scale,
        "ops_per_s": sum(r.ops for r in rounds) / (sum(r.seconds for r in rounds) * scale),
        "op_p50_ms": per_round(50),
        "op_p90_ms": per_round(90),
        "op_p99_ms": percentile([x for r in rounds for x in r.latencies], 99) * scale * 1000.0,
    }


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "orbitlb", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict | None:
    """Repeat rounds until ``seconds`` have passed; with ``trace`` every
    other round is traced.  Returns None when no round completed."""
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    setup_s: list[float] = []
    untraced: list = []
    # reference loop times around the untraced rounds
    round_refs: list[float] = []
    traced_round_s: list[float] = []
    untraced_round_s: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    digests: dict[str, str] | None = None
    description = None
    clock = time.perf_counter
    try:
        # choosing the inputs for the seed, where a workload has to, is
        # neither timed nor traced
        prepare = getattr(workload, "prepare", None)
        if prepare is not None:
            prepare(seed)
        deadline = clock() + seconds
        k = 0
        while True:
            traced_round = tracer is not None and k % 2 == 1
            recording = tracer.recording() if traced_round else contextlib.nullcontext()
            # every round, and so every timed set-up, starts from a
            # collected heap
            gc.collect()
            try:
                refs = [reference_loop_s()]
                t0 = clock()
                with recording:
                    inputs = workload.setup(seed, work_dir)
                    t1 = clock()
                    result = workload.run_round(inputs)
                t2 = clock()
                refs.append(reference_loop_s())
                workload.check(inputs, result)
                result.outputs = None
            except Exception:  # a failed round is a failed operation; stop here
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
                failures.append(traceback.format_exc(limit=1).strip().splitlines()[-1])
                break
            if description is None:
                description = workload.describe(inputs)
            attempted += result.ops + result.checks
            failed += len(result.failures)
            failures.extend(result.failures)
            attempted += len(result.digests)
            if digests is None:
                digests = result.digests
            else:
                for key, value in result.digests.items():
                    if digests.get(key) != value:
                        failed += 1
                        failures.append(f"{key} differs between rounds of one seed")
            if traced_round:
                traced_round_s.append(t2 - t0)
            else:
                untraced.append(result)
                setup_s.append(t1 - t0)
                round_refs.extend(refs)
                untraced_round_s.append(t2 - t0)
            del inputs, result
            k += 1
            if clock() >= deadline and (tracer is None or k >= 2):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not untraced:
        print(json.dumps({"workload": workload.name, "failures": failures[:10]}), file=sys.stderr)
        return None

    scale = REF_LOOP_S / statistics.fmean(round_refs) if workload.scale_times else 1.0
    e2e = end_to_end(untraced, setup_s, scale)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the figures a user reads off a round are as measured, unscaled
    unscaled = end_to_end(untraced, setup_s, 1.0)
    figures = {
        key: statistics.median(r.figures[key] for r in untraced)
        for key in untraced[0].figures
    }
    for generic, named in workload.names.items():
        figures[named] = unscaled[generic]
    report = {
        "workload": workload.name,
        "seed": seed,
        "operation": workload.op_name,
        "instance": description,
        "rounds": len(untraced),
        "round_seconds": [r.seconds for r in untraced],
        "time_scale": scale,
        "reference_loop_s": round_refs,
        "ops_per_round": untraced[0].ops,
        "latency_samples": sum(len(r.latencies) for r in untraced),
        "setup_samples": len(setup_s),
        "figures": figures,
        "unscaled": unscaled,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:10],
        "digests": digests,
        "src_lines": src_lines(),
    }
    if tracer is not None:
        overhead = statistics.median(traced_round_s) - statistics.median(untraced_round_s)
        metrics = tracer.per_layer(len(traced_round_s), overhead)
        report["traced_rounds"] = len(traced_round_s)
        report["self_time_shares"] = {
            root: tracer.shares_within(root) for root in workload.trace_roots
        }
        spans_path = os.path.join(work_dir, "spans.csv.gz")
        report["spans"] = {"file": os.path.relpath(spans_path, ROOT),
                           "count": tracer.write_spans(spans_path)}
        units = {name: unit for name, (unit, _better) in spans.PER_LAYER.items()}
    else:
        metrics = e2e
        units = END_TO_END
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_program():
        print(f"error: no orbitlb sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    work_dir = os.path.join(OUT, args.workload)
    out = run_workload(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    if out is None:
        return 1
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
