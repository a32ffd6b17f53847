"""privroute benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload sioux-solve --seed 1 --seconds 20 --trace 0

Workloads are sioux-solve, sioux-cli and grid-64 (see perfbench/README.md).
With --trace 0 the run measures rounds for --seconds and reports the
end-to-end metrics; with --trace 1 it runs a fixed number of rounds twice,
untraced and then with a span around every public function of the program,
and reports the per-layer metrics. Every round's outputs are checked. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a provenance line precedes it. The run exits
non-zero without a result when the program's sources are not beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: the caller is a single closed loop, and on a shared small
# machine a threaded BLAS adds contention noise without speeding these
# (n - 1) x m by m x n^2 products.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
# The traced run and its untraced twin make this many rounds, so that counts
# repeat exactly and totals compare between runs.
TRACE_ROUNDS = {"sioux-solve": 10, "sioux-cli": 1, "grid-64": 2}
SETUP_TIMEOUT_S = 120


def import_program():
    """Put the checkout's src/ first on the path and import privroute from it."""
    if not (SRC / "privroute" / "__init__.py").is_file():
        raise SystemExit(f"privroute sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import privroute

    if Path(privroute.__file__).resolve().parent != SRC / "privroute":
        raise SystemExit(f"privroute was imported from {privroute.__file__}, not {SRC}")


def provenance():
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=False)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}


def setup_seconds(kind):
    """Median cold set-up time over SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_once.py"), kind], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit(f"set-up failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


@dataclass
class Pass:
    rounds: list
    attempted: int
    failed: int
    problems: list
    wall_s: float


def run_pass(workload, tracer, seconds=None, rounds=None):
    """Set up, then run rounds for `seconds` (or exactly `rounds` rounds),
    checking each; then time the objective at the last release."""
    import privroute
    from workloads import OBJECTIVE_REPEATS

    start = time.perf_counter()
    workload.setup(tracer)
    durations, attempted, failed, problems = [], 0, 0, []
    rounds_start = time.perf_counter()
    while True:
        r = len(durations) + 1
        t0 = time.perf_counter()
        with tracer.span("bench.round"):
            outcome = workload.round(r, tracer)
        durations.append(time.perf_counter() - t0)
        attempted += workload.ops_per_round
        failed += outcome.failed
        with tracer.span("bench.check"):
            problems += workload.check(r, outcome)
        if r == rounds or (rounds is None and time.perf_counter() - rounds_start >= seconds):
            break
    if workload.last is not None:
        x, avg, latency, alpha = workload.final_iterate()
        with tracer.span("bench.final_iterate"):
            for _ in range(OBJECTIVE_REPEATS):
                privroute.gradient(x, avg, latency, alpha)
                privroute.travel_time_cost(x, avg, latency)
    return Pass(durations, attempted, failed, problems, time.perf_counter() - start)


def end_to_end(timer, measured, setup_s):
    import tracing

    t = tracing.SpanTree(timer.spans)

    def per_round(name):
        """Median over rounds of the time spent in `name` within the round."""
        totals = {}
        for i in t.select(tracing.named(name)):
            round_span = next(p for p in t.ancestor_indices(i) if t.spans[p][0] == "bench.round")
            totals[round_span] = totals.get(round_span, 0.0) + t.duration(i)
        return statistics.median(totals.values())

    descends = t.select(tracing.named("dp_sgd.descend"))
    days = t.attr_sum(descends, "days")
    descend_s = sum(t.duration(i) for i in descends)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (per_round("dp_sgd.private_sgd"), "s"),
        "days_per_s": (days / descend_s, "1/s"),
        "baseline_s": (per_round("baseline.frank_wolfe_solve"), "s"),
        "round_s": (statistics.median(measured.rounds), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }


def unit_of(name):
    for suffix, unit in (("_per_s", "1/s"), ("_ms_per_iter", "ms"), ("_ms", "ms"),
                         ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import checks
    import tracing
    import workloads

    problems = [f"checker self-test: {line}" for line in checks.self_test()]
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_s = None if args.trace else setup_seconds(workload.kind)
    attempted, failed, warm_problems = workload.warm_up(tracing.Tracer())
    problems += warm_problems

    timer = tracing.Tracer()
    with tracing.install(timer, tracing.TIMED):
        if args.trace:
            measured = run_pass(workload, timer, rounds=TRACE_ROUNDS[args.workload])
        else:
            measured = run_pass(workload, timer, seconds=args.seconds)
    runs = [measured]
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced = run_pass(workload, tracer, rounds=len(measured.rounds))
        runs.append(traced)
        metrics = {name: (value, unit_of(name)) for name, value in
                   tracing.layer_metrics(tracer, traced.wall_s, measured.wall_s).items()}
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = end_to_end(timer, measured, setup_s)

    for run in runs:
        attempted += run.attempted
        failed += run.failed
        problems += run.problems
    for line in problems:
        print("CHECK FAILED:", line, file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(measured.rounds), **provenance()}
    print(json.dumps({"provenance": record}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": record, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
