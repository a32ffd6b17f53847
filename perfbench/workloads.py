"""The three workloads: each runs rounds of the same operations in one closed
loop (one caller, each call waits for the last) and checks every round's
outputs with `checks`, outside the timed call.

A round's inputs come from `round_seed(seed, r)` only. Round 1 runs twice:
once untimed in `warm_up`, where the solve workloads also check every
iterate, and once timed; the two must be bit-identical.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

import privroute
import privroute.cli

import checks
from grid import grid_instance

CONFIG = privroute.ExperimentConfig()  # the CLI's defaults: N = 50, eps = delta = 0.1
PRIVACY = privroute.PrivacyParams(CONFIG.epsilon, CONFIG.delta)
NOISE_SEED = CONFIG.noise_seeds[0]  # the seed solve-private uses
# The release sits within final_tol of the feasible set; its cost may fall
# below a certified lower bound by at most this relative amount.
COST_REL_TOL = 1e-6
RATIO_LIMIT = 1.05  # Sioux Falls final cost ratio at N = 50 (acceptance criterion 2)

GRID_K = 8
GRID_INSTANCE_SEED = 64  # fixed like a bundled file; only the days follow --seed
GRID_DAYS = 5
GRID_FW_ITERS = 10
AUDIT_TRIALS = 4
OBJECTIVE_REPEATS = 5


def round_seed(seed, r):
    """Dataset seed of round r (31 bits, as the CLI's --seed accepts)."""
    return int(np.random.SeedSequence((seed, r)).generate_state(1)[0] >> 1)


def instance_for(kind):
    """The bundled Sioux Falls instance ("sioux") or the generated 8 x 8 grid ("grid")."""
    if kind == "grid":
        return grid_instance(GRID_K, GRID_INSTANCE_SEED)
    return privroute.load_instance(CONFIG)


def setup(kind):
    """What a user builds before the first solve: instance, projector and x0."""
    instance = instance_for(kind)
    projector = privroute.FlowProjector(instance.network)
    x0 = privroute.initial_shortest_path_policy(instance.network)
    return instance, projector, x0


def attempt(label, fn, *args, **kwargs):
    """Run one operation; a raised error counts as a failed operation."""
    try:
        return fn(*args, **kwargs), 0
    except Exception:  # an operation's failure is recorded, the run goes on
        print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return None, 1


@dataclass
class Outcome:
    failed: int = 0
    outputs: dict = field(default_factory=dict)


class CheckedProjector(privroute.FlowProjector):
    """The program's projector, with every returned policy checked for
    feasibility at the tolerance it was projected to."""

    def __init__(self, network, problems):
        super().__init__(network)
        self.problems = problems

    def project_policy(self, x, tol=privroute.flow_polytope.DEFAULT_TOL):
        out = super().project_policy(x, tol=tol)
        net = self.network
        self.problems += checks.policy_problems(
            out, net.tails, net.heads, net.node_count, tol, "iterate")
        return out


class SolveWorkload:
    """Rounds of: sample a dataset, private_sgd with a release, Frank-Wolfe."""

    kind = None
    n_days = None
    ops_per_round = 2

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.reference = None
        self.last = None

    def setup(self, tracer):
        with tracer.span("bench.setup"):
            self.instance, self.projector, self.x0 = setup(self.kind)

    def baseline(self, dataset, avg):
        raise NotImplementedError

    def round(self, r, tracer, projector=None):
        instance = self.instance
        dataset = privroute.sample_dataset(
            instance.mean_demand, self.n_days, CONFIG.period_minutes, seed=round_seed(self.seed, r))
        avg = privroute.average_demand(dataset)
        constants = privroute.resolve_constants(CONFIG, instance, dataset)
        solution, failed_solve = attempt(
            "private_sgd", privroute.private_sgd, dataset, instance.network, instance.latency,
            constants, PRIVACY, self.x0, seed=NOISE_SEED,
            projector=projector or self.projector, step_tol=CONFIG.step_tol,
            final_tol=CONFIG.final_tol, trace_demand=avg)
        result, failed_fw = attempt("frank_wolfe_solve", self.baseline, dataset, avg)
        return Outcome(failed_solve + failed_fw,
                       {"avg": avg, "solution": solution, "baseline": result})

    def check(self, r, outcome):
        out = outcome.outputs
        solution, baseline = out["solution"], out["baseline"]
        if solution is None or baseline is None:
            return []  # counted as a failed operation
        net, lat = self.instance.network, self.instance.latency
        n, tails, heads = net.node_count, net.tails, net.heads
        problems = checks.policy_problems(solution.x_pre, tails, heads, n, CONFIG.step_tol, "x_pre")
        problems += checks.policy_problems(solution.x_alg, tails, heads, n, CONFIG.final_tol, "release")
        x_fw, trace = baseline
        problems += checks.policy_problems(x_fw, tails, heads, n, CONFIG.final_tol, "baseline")
        bound = checks.fw_lower_bound(trace)
        costs = [checks.travel_time(x, out["avg"], lat.slope, lat.free_flow)
                 for x in (solution.x_pre, solution.x_alg)]
        problems += checks.lower_bound_problems(
            costs + list(solution.travel_time_trace), bound, COST_REL_TOL, self.kind)
        problems += self.extra_checks(out, costs[0], x_fw, trace)
        if r == 1:
            if self.reference is None:
                self.reference = solution
            else:
                for name in ("x_pre", "x_alg"):
                    problems += checks.identical_problems(
                        getattr(self.reference, name), getattr(solution, name), name)
        self.last = (solution.x_alg, out["avg"])
        return problems

    def extra_checks(self, out, pre_cost, x_fw, trace):
        return []

    def warm_up(self, tracer):
        """Round 1 untimed, with every iterate checked; keeps the reference.
        Returns (operations attempted, failed, problems)."""
        self.setup(tracer)
        problems = []
        projector = CheckedProjector(self.instance.network, problems)
        outcome = self.round(1, tracer, projector=projector)
        problems += self.check(1, outcome)
        return self.ops_per_round, outcome.failed, problems

    def final_iterate(self):
        x, avg = self.last
        return x, avg, self.instance.latency, CONFIG.alpha


class SiouxSolve(SolveWorkload):
    kind = "sioux"
    n_days = CONFIG.n_days

    def baseline(self, dataset, avg):
        return privroute.harness.solve_baseline(CONFIG, self.instance, dataset)

    def extra_checks(self, out, pre_cost, x_fw, trace):
        lat = self.instance.latency
        base = checks.travel_time(x_fw, out["avg"], lat.slope, lat.free_flow)
        return checks.ratio_problems(pre_cost / base, RATIO_LIMIT, "sioux-solve final iterate")


class Grid64(SolveWorkload):
    kind = "grid"
    n_days = GRID_DAYS

    def baseline(self, dataset, avg):
        # gap_tol below any reachable gap: the run always makes GRID_FW_ITERS iterations
        return privroute.frank_wolfe_solve(
            avg, self.instance.network, self.instance.latency, alpha=0.0,
            gap_tol=1e-300, max_iters=GRID_FW_ITERS)

    def extra_checks(self, out, pre_cost, x_fw, trace):
        if len(trace) != GRID_FW_ITERS:
            return [f"grid-64: Frank-Wolfe made {len(trace)} iterations, not {GRID_FW_ITERS}"]
        return []


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class SiouxCli:
    """Rounds of every CLI command in turn, in process, on the default config."""

    kind = "sioux"
    ops_per_round = 8
    DETERMINISTIC = ("policy.csv", "cost_trace.csv", "solve_private_metadata.json")

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.reference = None
        self.last = None

    def setup(self, tracer):
        with tracer.span("bench.setup"):
            self.instance = instance_for(self.kind)

    def commands(self, seed, out):
        """(name, argv) of every command of a round, in order."""
        return [(name, argv + ["--seed", str(seed)]) for name, argv in (
            ("solve-private", ["solve-private", "--out-dir", str(out / "private")]),
            ("solve-baseline", ["solve-baseline", "--out-dir", str(out / "baseline")]),
            ("audit", ["audit", "--trials", str(AUDIT_TRIALS), "--out-dir", str(out / "audit")]),
            ("demo-impossibility", ["demo-impossibility", "--out-dir", str(out / "demo")]),
            ("convergence", ["experiment", "convergence", "--out-dir", str(out / "convergence")]),
            ("privacy-cost", ["experiment", "privacy-cost", "--out-dir", str(out / "privacy")]),
            ("sweep", ["experiment", "sweep", "--out-dir", str(out / "sweep")]),
            ("decompose", ["decompose", "--policy", str(out / "private" / "policy.csv"),
                           "--out-dir", str(out / "paths")]),
        )]

    def _run(self, name, argv, tracer):
        captured = io.StringIO()
        with tracer.span(f"cli.{name}"):
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code, failed = attempt(name, privroute.cli.main, argv)
        if failed or code != 0:
            print(f"command {name} exited {code}:\n{captured.getvalue()}", file=sys.stderr)
            return 1
        return 0

    def round(self, r, tracer, only=None):
        out = self.out_dir / "sioux-cli"
        shutil.rmtree(out, ignore_errors=True)
        commands = self.commands(round_seed(self.seed, r), out)
        if only is not None:
            commands = [c for c in commands if c[0] in only]
        failed = sum(self._run(name, argv, tracer) for name, argv in commands)
        return Outcome(failed, {"out": out, "seed": round_seed(self.seed, r)})

    def warm_up(self, tracer):
        """solve-private of round 1, untimed: the determinism reference.
        Returns (operations attempted, failed, problems)."""
        self.setup(tracer)
        outcome = self.round(1, tracer, only={"solve-private"})
        if outcome.failed:
            return 1, 1, []
        private = outcome.outputs["out"] / "private"
        self.reference = {name: (private / name).read_bytes() for name in self.DETERMINISTIC}
        return 1, 0, self.check_private(outcome.outputs)[0]

    def check_private(self, out):
        net = self.instance.network
        n, tails, heads = net.node_count, net.tails, net.heads
        policy = checks.read_policy_csv(out["out"] / "private" / "policy.csv", tails, heads, n)
        return checks.policy_problems(policy, tails, heads, n, CONFIG.final_tol, "release"), policy

    def check(self, r, outcome):
        if outcome.failed:
            return []  # counted as failed operations
        out = outcome.outputs
        root = out["out"]
        net, lat = self.instance.network, self.instance.latency
        n, tails, heads = net.node_count, net.tails, net.heads
        problems, policy = self.check_private(out)
        dataset = privroute.sample_dataset(
            self.instance.mean_demand, CONFIG.n_days, CONFIG.period_minutes, seed=out["seed"])
        avg = privroute.average_demand(dataset)

        gap_trace = [(int(row["iteration"]), float(row["gap"]), float(row["cost"]))
                     for row in _read_rows(root / "baseline" / "gap_trace.csv")]
        bound = checks.fw_lower_bound(gap_trace)
        base_policy = checks.read_policy_csv(root / "baseline" / "policy.csv", tails, heads, n)
        problems += checks.policy_problems(base_policy, tails, heads, n, CONFIG.final_tol, "baseline")
        trace_costs = [float(row["travel_time"])
                       for row in _read_rows(root / "private" / "cost_trace.csv")]
        release_cost = checks.travel_time(policy, avg, lat.slope, lat.free_flow)
        problems += checks.lower_bound_problems(
            [release_cost] + trace_costs, bound, COST_REL_TOL, "solve-private")

        meta = json.loads((root / "convergence" / "convergence_metadata.json").read_text())
        base_cost = float(meta["baseline_costs"][str(CONFIG.n_days)])
        finals = [float(row["cost_ratio"]) for row in _read_rows(root / "convergence" / "convergence.csv")
                  if int(row["N"]) == CONFIG.n_days]
        problems += checks.ratio_problems(finals[-1], RATIO_LIMIT, "convergence N=50")
        problems += checks.lower_bound_problems(
            [ratio * base_cost for ratio in finals], bound, COST_REL_TOL, "convergence N=50")

        table = {(float(row["epsilon"]), float(row["delta"])): float(row["increase_percent"])
                 for row in _read_rows(root / "privacy" / "privacy_cost.csv")}
        if len(table) != len(CONFIG.epsilon_grid) * len(CONFIG.delta_grid):
            problems.append(f"privacy-cost: {len(table)} cells")
        problems += checks.privacy_cost_problems(table)

        trials = [(float(row["distance"]), float(row["bound"]))
                  for row in _read_rows(root / "audit" / "sensitivity_audit.csv")
                  if row["trial"] != "summary"]
        problems += checks.audit_problems(trials, AUDIT_TRIALS)

        demo = {row["release"]: (row["without_trip_detected"] == "True",
                                 row["with_trip_detected"] == "True")
                for row in _read_rows(root / "demo" / "impossibility.csv")}
        problems += checks.separation_problems(demo.get("per_od_solution"),
                                               demo.get("total_flow_only"))

        paths = checks.read_paths_csv(root / "paths" / "path_distributions.csv")
        problems += checks.decomposition_problems(paths, policy, tails, heads, n, CONFIG.final_tol)

        for name, grid in (("sweep_alpha", CONFIG.alpha_grid), ("sweep_latency", CONFIG.factor_grid),
                           ("sweep_demand", CONFIG.scale_grid)):
            ratios = [float(row["cost_ratio"]) for row in _read_rows(root / "sweep" / f"{name}.csv")]
            if len(ratios) != len(grid) * (CONFIG.n_days + 1) or not all(
                    np.isfinite(v) and v > 0 for v in ratios):
                problems.append(f"{name}: {len(ratios)} rows or a non-finite ratio")

        if r == 1 and self.reference is not None:
            for name, expected in self.reference.items():
                problems += checks.identical_problems(
                    expected, (root / "private" / name).read_bytes(), f"solve-private {name}")
        self.last = (policy, avg)
        return problems

    def final_iterate(self):
        x, avg = self.last
        return x, avg, self.instance.latency, CONFIG.alpha


WORKLOADS = {"sioux-solve": SiouxSolve, "sioux-cli": SiouxCli, "grid-64": Grid64}
