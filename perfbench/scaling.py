"""One-off scaling figures: one private solve on k x k grids.

    python3 perfbench/scaling.py

Each size runs in a fresh interpreter, so its peak resident memory is its
own. For each k it prints one JSON line with n, m, the policy size and the
measured solve_s and peak_rss_mb, and writes them all to
.perfbench_out/scaling.json. These are reference points for the scaling
curve, not a benchmark workload: one solve per size, no repetitions.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
SIZES = (4, 6, 8, 10)
DAYS = 10
DATASET_SEED = 1


def one_size(k):
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import privroute
    from grid import grid_instance
    from workloads import CONFIG, GRID_INSTANCE_SEED, NOISE_SEED, PRIVACY

    instance = grid_instance(k, GRID_INSTANCE_SEED)
    network = instance.network
    projector = privroute.FlowProjector(network)
    x0 = privroute.initial_shortest_path_policy(network)
    dataset = privroute.sample_dataset(
        instance.mean_demand, DAYS, CONFIG.period_minutes, seed=DATASET_SEED)
    constants = privroute.resolve_constants(CONFIG, instance, dataset)
    start = time.perf_counter()
    privroute.private_sgd(dataset, network, instance.latency, constants, PRIVACY, x0,
                          seed=NOISE_SEED, projector=projector,
                          trace_demand=privroute.average_demand(dataset))
    solve_s = time.perf_counter() - start
    n, m = network.node_count, network.edge_count
    return {"k": k, "n": n, "m": m, "days": DAYS, "policy_mb": n * n * m * 8 / 1e6,
            "solve_s": solve_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}


def main(argv):
    if argv:  # a child: one size, printed as one JSON line
        print(json.dumps(one_size(int(argv[0]))))
        return 0
    rows = []
    for k in SIZES:
        done = subprocess.run([sys.executable, __file__, str(k)],
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        rows.append(json.loads(done.stdout.splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "scaling.json").write_text(json.dumps(rows, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
