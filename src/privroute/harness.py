"""Experiment orchestration: configuration, instance loading, the solve
pipeline that the CLI, the experiments and the audit share, and the three
CSV-producing experiments (convergence, privacy cost, sensitivity sweeps).

Unit conventions of the default configuration: demand rates are requests per
minute (trips files are hourly and divided by 60 at parse time); the
capacity column of the net file is interpreted as vehicles per minute
(capacity_scale 1.0). Setting capacity_scale to 1/60 instead reads the
column as vehicles per hour, which yields a much more congested instance;
the constants and regularizer defaults below are calibrated for the
per-minute reading.

Every release carries the Gaussian noise that dp_sgd.gaussian_noise_scale
calibrates to the run's (epsilon, delta); no configuration field replaces it.
Every run writes a metadata JSON capturing the fully resolved configuration,
and all CSV floats use 17 significant digits, so identical configs and seeds
reproduce byte-identical artifacts.
"""
from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import demand as demand_mod
from .baseline import frank_wolfe_solve
from .dp_sgd import (
    FINAL_PROJECTION_TOL,
    STEP_PROJECTION_TOL,
    CostTrace,
    PrivacyParams,
    descend,
    gaussian_noise_scale,
    perturb_and_project,
    private_sgd,
)
from .flow_polytope import FlowProjector, initial_shortest_path_policy, pair_index
from .net_model import affine_latency_from, parse_tntp_network, parse_tntp_trips
from .objective import compute_constants, travel_time_cost

BUILTIN_NET = "builtin:sioux_falls_net"
BUILTIN_TRIPS = "builtin:sioux_falls_trips"

_POSITIVE = (lambda v: v > 0, "positive")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_FRACTION = (lambda v: 0 < v < 1, "in (0, 1)")
# The rule each field obeys, with the wording of its error. A grid obeys the
# rule of the scalar field it sweeps; SeedSequence rejects negative seeds.
_RULES = {
    **dict.fromkeys(
        ("period_minutes", "alpha", "alpha_grid", "capacity_scale", "demand_scale",
         "scale_grid", "epsilon", "epsilon_grid", "gap_tol_rel", "step_tol", "final_tol",
         "sweep_alpha"),
        _POSITIVE,
    ),
    **dict.fromkeys(
        ("sensitivity_factor", "factor_grid", "n_days", "n_grid", "max_fw_iters"), _AT_LEAST_ONE
    ),
    "delta": _FRACTION,
    "delta_grid": _FRACTION,
    **dict.fromkeys(("dataset_seed", "noise_seeds"), (lambda v: v >= 0, ">= 0")),
}
_PATHS = ("net_path", "trips_path")
_GRIDS = ("n_grid", "epsilon_grid", "delta_grid", "alpha_grid", "factor_grid", "scale_grid",
          "noise_seeds")
# Fields and grids of integers; every other field but the paths holds numbers,
# of which integers are a special case.
_INTEGERS = ("n_days", "n_grid", "max_fw_iters", "dataset_seed", "noise_seeds")


@dataclass
class ExperimentConfig:
    """Resolved experiment configuration; round-trips losslessly via JSON."""

    net_path: str = BUILTIN_NET
    trips_path: str = BUILTIN_TRIPS
    n_days: int = 50
    period_minutes: float = 60.0
    alpha: float = 2e-4
    capacity_scale: float = 1.0
    sensitivity_factor: float = 2.0
    demand_scale: float = 1.0
    epsilon: float = 0.1
    delta: float = 0.1
    n_grid: tuple = (10, 25, 50)
    epsilon_grid: tuple = (0.01, 0.1, 0.5)
    delta_grid: tuple = (0.1, 0.5)
    alpha_grid: tuple = (1e2, 1e3, 1e4)
    factor_grid: tuple = (1.5, 2.0, 5.0)
    scale_grid: tuple = (0.5, 1.0, 1.5)
    sweep_alpha: float = 1e3
    dataset_seed: int = 20240601
    noise_seeds: tuple = tuple(range(10))
    gap_tol_rel: float = 1e-4
    max_fw_iters: int = 30000
    step_tol: float = STEP_PROJECTION_TOL
    final_tol: float = FINAL_PROJECTION_TOL

    def __post_init__(self):
        for f in dataclasses.fields(self):
            name, value = f.name, getattr(self, f.name)
            if name in _PATHS:
                if not isinstance(value, str):
                    raise ValueError(f"{name} must be a string, not {value!r}")
                continue
            if name in _GRIDS:
                # a string would pass tuple() as a grid of characters
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{name} must be a list, not {value!r}")
                if not value:
                    raise ValueError(f"{name} must be nonempty")
                value = tuple(value)
                setattr(self, name, value)
            values = value if isinstance(value, tuple) else (value,)
            kind, noun = (int, "an integer") if name in _INTEGERS else ((int, float), "a number")
            for v in values:
                # bool is an int subclass, but JSON's true is not a number
                if isinstance(v, bool) or not isinstance(v, kind):
                    raise ValueError(f"{name}: {v!r} is not {noun}")
            # JSON admits NaN and Infinity, which pass every comparison below
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite")
            if name in _RULES and not all(map(_RULES[name][0], values)):
                raise ValueError(f"{name} must be {_RULES[name][1]}")

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, not {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _read_input(path_spec):
    if path_spec == BUILTIN_NET:
        return resources.files("privroute.data").joinpath("sioux_falls_net.tntp").read_text()
    if path_spec == BUILTIN_TRIPS:
        return resources.files("privroute.data").joinpath("sioux_falls_trips.tntp").read_text()
    return Path(path_spec).read_text()


@dataclass(frozen=True)
class Instance:
    network: object
    latency: object
    mean_demand: np.ndarray


def load_instance(config):
    """Parse the configured files and apply the unit and scenario knobs."""
    network = parse_tntp_network(_read_input(config.net_path))
    network = dataclasses.replace(network, capacity=network.capacity * config.capacity_scale)
    latency = affine_latency_from(network, config.sensitivity_factor)
    mean_demand = parse_tntp_trips(_read_input(config.trips_path)) * config.demand_scale
    if mean_demand.shape[0] != network.node_count:
        raise ValueError("trips zone count does not match the network node count")
    return Instance(network=network, latency=latency, mean_demand=mean_demand)


def resolve_constants(config, instance, dataset, alpha=None):
    """Closed-form constants, with the data-driven rate bound."""
    lam = demand_mod.lambda_max(dataset)
    alpha = config.alpha if alpha is None else alpha
    return compute_constants(
        instance.network, instance.latency, lam, alpha, config.period_minutes
    )


def solve_baseline(config, instance, dataset, alpha=0.0, x0=None):
    """Frank-Wolfe at the dataset's average demand (the fast evaluation path).

    x0 is the free-flow shortest-path start; a caller that holds it passes it.
    """
    avg = demand_mod.average_demand(dataset)
    if x0 is None:
        x0 = initial_shortest_path_policy(instance.network)
    x0_cost = travel_time_cost(x0, avg, instance.latency)
    return frank_wolfe_solve(
        avg,
        instance.network,
        instance.latency,
        alpha=alpha,
        gap_tol=config.gap_tol_rel * max(x0_cost, 1e-300),
        max_iters=config.max_fw_iters,
        x0=x0,
    )


class Pipeline:
    """The method's steps on one configured instance: sample the days, descend
    from the free-flow start, release the final iterate with Gaussian noise,
    and solve the Frank-Wolfe baseline. It is the one place where config
    fields become solver arguments: the privacy target, the noise seed and
    the projection tolerances. No field sets the noise scale: every release
    of solve_private is calibrated to the config's (epsilon, delta).

    The instance is loaded from the config's files unless one is given, which
    is then used as is. The projector and the start depend only on the
    topology and the free-flow times, so they are built once, with the
    pipeline, and shared by every scenario.
    """

    def __init__(self, config, instance=None):
        self.config = config
        self.instance = load_instance(config) if instance is None else instance
        self.x0 = initial_shortest_path_policy(self.instance.network)
        self.projector = FlowProjector(self.instance.network)
        self._given_instance = instance is not None

    def scenario(self, **changes):
        """This pipeline with the given config fields changed, such as the latency
        factor, and its instance reloaded from the config's files; the start and
        projector are shared, so keep the free-flow network. A pipeline built on
        a given instance has no files to reload and makes no scenario."""
        if self._given_instance:
            raise ValueError(
                "a scenario reloads the instance from the config's files; "
                "this pipeline was built on a given instance"
            )
        scenario = copy.copy(self)
        scenario.config = dataclasses.replace(self.config, **changes)
        scenario.instance = load_instance(scenario.config)
        return scenario

    def sample(self, n_days=None):
        """The config's dataset (of n_days days when given) and its average demand."""
        config = self.config
        dataset = demand_mod.sample_dataset(
            self.instance.mean_demand,
            config.n_days if n_days is None else n_days,
            config.period_minutes,
            seed=config.dataset_seed,
        )
        return dataset, demand_mod.average_demand(dataset)

    def descend(self, dataset, constants, on_step=None):
        """The final iterate of the noise-free descent under the resolved
        constants; on_step observes the iterates as in dp_sgd.descend."""
        instance = self.instance
        return descend(
            dataset, instance.network, instance.latency, constants, self.x0,
            projector=self.projector, step_tol=self.config.step_tol, on_step=on_step,
        )

    def solve_private(self, dataset, trace_demand):
        """The private solve of dp_sgd.private_sgd on the dataset: the config's
        privacy target, first noise seed and tolerances, and iterate costs
        recorded at trace_demand."""
        config, instance = self.config, self.instance
        return private_sgd(
            dataset, instance.network, instance.latency,
            resolve_constants(config, instance, dataset),
            PrivacyParams(config.epsilon, config.delta), self.x0,
            seed=config.noise_seeds[0], projector=self.projector, step_tol=config.step_tol,
            final_tol=config.final_tol, trace_demand=trace_demand,
        )

    def release(self, x_pre, sigma, seed):
        """x_pre plus N(0, sigma^2 I) noise of the given seed, projected back
        at the config's final tolerance."""
        return perturb_and_project(
            x_pre, sigma, seed, self.instance.network,
            projector=self.projector, final_tol=self.config.final_tol,
        )

    def baseline(self, dataset, alpha=0.0):
        """Frank-Wolfe from the shared start: (policy, gap trace)."""
        return solve_baseline(self.config, self.instance, dataset, alpha=alpha, x0=self.x0)


def _format(value):
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])


def output_dir(out_dir):
    """The artifact directory, created when missing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_metadata(out_dir, name, config, **extra):
    """<name>_metadata.json: the resolved config plus the run's extra entries."""
    payload = {"config": json.loads(config.to_json()), **extra}
    path = Path(out_dir) / f"{name}_metadata.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path


_POLICY_COLUMNS = ("origin", "destination", "edge_tail", "edge_head", "value")


def policy_to_csv(policy, network, path):
    """Policy CSV: origin, destination, edge_tail, edge_head, value (zeros omitted)."""
    n = network.node_count
    tails, heads = (network.tails + 1).tolist(), (network.heads + 1).tolist()

    def rows():
        for block in np.flatnonzero(policy.any(axis=1)).tolist():
            o, d = divmod(block, n)
            edges = np.flatnonzero(policy[block])
            for e, v in zip(edges.tolist(), policy[block, edges].tolist()):
                yield o + 1, d + 1, tails[e], heads[e], v

    write_csv(path, _POLICY_COLUMNS, rows())


def policy_from_csv(path, network):
    """Read a policy CSV in the layout of policy_to_csv; a bad row, such as
    one with a non-finite value or one outside [0, 1], one whose origin is its
    destination, or one that repeats an earlier row's pair and edge, raises
    ValueError naming its 1-based line."""
    n = network.node_count
    policy = np.zeros((n * n, network.edge_count))
    seen = np.zeros(policy.shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _POLICY_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: line 1: missing columns {missing}")
        for row in reader:
            try:
                o, d = int(row["origin"]), int(row["destination"])
                tail, head = int(row["edge_tail"]), int(row["edge_head"])
                value = float(row["value"])
            except (TypeError, ValueError):  # a short row reads None
                raise ValueError(f"{path}: line {reader.line_num}: malformed row {row}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {reader.line_num}: non-finite value {row['value']!r}")
            if not 0 <= value <= 1:
                raise ValueError(
                    f"{path}: line {reader.line_num}: value {row['value']!r} outside [0, 1]"
                )
            if not (1 <= o <= n and 1 <= d <= n):
                raise ValueError(
                    f"{path}: line {reader.line_num}: node id outside 1..{n} in pair ({o}, {d})"
                )
            if o == d:
                raise ValueError(
                    f"{path}: line {reader.line_num}: pair ({o}, {d}) has its origin as destination"
                )
            try:
                e = network.edge_index(tail - 1, head - 1)
            except KeyError:
                raise ValueError(
                    f"{path}: line {reader.line_num}: the network has no edge {tail}->{head}"
                ) from None
            entry = (pair_index(o - 1, d - 1, n), e)
            if seen[entry]:
                raise ValueError(
                    f"{path}: line {reader.line_num}: repeats pair ({o}, {d}) on edge {tail}->{head}"
                )
            seen[entry] = True
            policy[entry] = value
    return policy


def paths_to_csv(distributions, network, path):
    """Path-distribution CSV: origin, destination, path (node sequence), weight."""
    tails, heads = (network.tails + 1).tolist(), (network.heads + 1).tolist()
    write_csv(path, ["origin", "destination", "path", "weight"], (
        (dist.od[0] + 1, dist.od[1] + 1,
         "-".join(map(str, [tails[edges[0]]] + [heads[e] for e in edges])), weight)
        for dist in distributions
        for edges, weight in zip(dist.paths, dist.weights)
    ))


def run_convergence(config, out_dir):
    """Cost-ratio traces against the non-private baseline for each N.

    Emits convergence.csv with columns (N, iteration, cost_ratio) where the
    numerator is the iterate's travel time, plus convergence_regularized.csv
    with the regularized-numerator variant. Every iterate is evaluated at the
    dataset's average demand, and both are normalized by the unregularized
    baseline cost there.
    """
    out_dir = output_dir(out_dir)
    pipeline = Pipeline(config)
    latency = pipeline.instance.latency
    rows, rows_reg = [], []
    baseline_costs = {}
    for n_days in config.n_grid:
        dataset, avg = pipeline.sample(n_days)
        base_cost = travel_time_cost(pipeline.baseline(dataset)[0], avg, latency)
        baseline_costs[str(n_days)] = base_cost
        constants = resolve_constants(config, pipeline.instance, dataset)
        trace = CostTrace(latency, constants.alpha, avg)
        pipeline.descend(dataset, constants, on_step=trace)
        for k, (r, rr) in enumerate(zip(trace.travel_times, trace.costs)):
            rows.append((n_days, k, r / base_cost))
            rows_reg.append((n_days, k, rr / base_cost))
    write_csv(out_dir / "convergence.csv", ["N", "iteration", "cost_ratio"], rows)
    write_csv(
        out_dir / "convergence_regularized.csv", ["N", "iteration", "cost_ratio"], rows_reg
    )
    write_metadata(out_dir, "convergence", config, baseline_costs=baseline_costs)
    return out_dir / "convergence.csv"


def run_privacy_cost(config, out_dir):
    """Percentage travel-time increase of the noisy release over the final
    iterate, per (epsilon, delta) cell, averaged over the noise seeds; each
    cell's noise is calibrated to its own (epsilon, delta)."""
    out_dir = output_dir(out_dir)
    pipeline = Pipeline(config)
    instance = pipeline.instance
    dataset, avg = pipeline.sample()
    constants = resolve_constants(config, instance, dataset)
    x_pre = pipeline.descend(dataset, constants)
    cost_pre = travel_time_cost(x_pre, avg, instance.latency)
    rows = []
    sigmas = {}
    for eps in sorted(config.epsilon_grid):
        for delta in sorted(config.delta_grid):
            sigma = gaussian_noise_scale(constants, dataset.day_count, PrivacyParams(eps, delta))
            sigmas[f"{eps},{delta}"] = sigma
            increases = []
            for seed in config.noise_seeds:
                x_alg = pipeline.release(x_pre, sigma, seed)
                cost_alg = travel_time_cost(x_alg, avg, instance.latency)
                increases.append(100.0 * (cost_alg - cost_pre) / cost_pre)
            rows.append((eps, delta, float(np.mean(increases))))
    write_csv(out_dir / "privacy_cost.csv", ["epsilon", "delta", "increase_percent"], rows)
    write_metadata(out_dir, "privacy_cost", config, sigma=sigmas, cost_pre=cost_pre)
    return out_dir / "privacy_cost.csv"


def _sweep_rows(pipeline, alphas, ratios):
    """Cost-ratio rows (parameter, iteration, ratio) of one scenario.

    alphas pairs each reported parameter with the regularizer its descent
    uses. The dataset and the unregularized baseline do not depend on alpha,
    so they are built once per scenario. ratios maps (config JSON, alpha) to
    the ratio trace of every run so far; a run whose config equals one
    already made, such as the base point that all three sweeps share, reuses
    its trace.
    """
    key = pipeline.config.to_json()
    todo = [alpha for _, alpha in alphas if (key, alpha) not in ratios]
    if todo:
        dataset, avg = pipeline.sample()
        base_cost = travel_time_cost(pipeline.baseline(dataset)[0], avg, pipeline.instance.latency)
        for alpha in todo:
            constants = resolve_constants(pipeline.config, pipeline.instance, dataset, alpha=alpha)
            trace = CostTrace(pipeline.instance.latency, constants.alpha, avg)
            pipeline.descend(dataset, constants, on_step=trace)
            ratios[key, alpha] = [cost / base_cost for cost in trace.travel_times]
    return [(parameter, k, ratio) for parameter, alpha in alphas
            for k, ratio in enumerate(ratios[key, alpha])]


def run_sensitivity_sweep(config, out_dir):
    """Three sweep CSVs (regularizer, latency factor, demand scale), each with
    columns (parameter, iteration, cost_ratio); the smoothness and cross
    constants are recomputed for every scenario."""
    out_dir = output_dir(out_dir)
    pipeline = Pipeline(config)
    ratios = {}
    alphas = [(alpha, alpha) for alpha in config.alpha_grid]
    sweeps = {
        "sweep_alpha": _sweep_rows(pipeline, alphas, ratios),
        "sweep_latency": [],
        "sweep_demand": [],
    }
    for factor in config.factor_grid:
        scenario = pipeline.scenario(sensitivity_factor=factor)
        sweeps["sweep_latency"] += _sweep_rows(scenario, [(factor, config.sweep_alpha)], ratios)
    for scale in config.scale_grid:
        scenario = pipeline.scenario(demand_scale=scale)
        sweeps["sweep_demand"] += _sweep_rows(scenario, [(scale, config.sweep_alpha)], ratios)
    paths = []
    for name, rows in sweeps.items():
        path = out_dir / f"{name}.csv"
        write_csv(path, ["parameter", "iteration", "cost_ratio"], rows)
        paths.append(path)
    write_metadata(out_dir, "sweep", config)
    return paths
