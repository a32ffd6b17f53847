"""Empirical checks of the privacy mechanism's two obligations.

The sensitivity audit replays the deterministic part of the private solver
on randomly perturbed adjacent dataset pairs and compares the realized
final-iterate shift against the closed-form bound that calibrates the
Gaussian noise. The impossibility demo constructs the adjacent demand pair
whose standard-formulation solutions are perfectly distinguishable by a
net-flow check at one node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import demand as demand_mod
from .baseline import detect_od_presence, standard_feasible_flow
from .dp_sgd import sensitivity_bound
from .harness import _format, resolve_constants, write_csv
from .net_model import check_pair


@dataclass(frozen=True)
class SensitivityTrial:
    trial: int
    day: int
    origin: int
    destination: int
    distance: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class SensitivityReport:
    trials: tuple
    slack: float
    max_ratio: float
    passed: bool
    strict_passed: bool  # every shift within its bound, with no slack

    def to_csv(self, path):
        """The audit CSV: one row per trial, then the summary row of verdicts."""

        def rows():
            for t in self.trials:
                yield t.trial, t.day, t.origin + 1, t.destination + 1, t.distance, t.bound, t.ratio
            yield (
                "summary", "", "", "",
                "max_ratio=" + _format(self.max_ratio),
                "slack=" + _format(self.slack),
                "PASS" if self.passed else "FAIL",
                "strict=" + ("PASS" if self.strict_passed else "FAIL"),
            )

        write_csv(path, ["trial", "t", "o", "d", "distance", "bound", "ratio"], rows())


def audit_sensitivity(pipeline, trials):
    """Measure final-iterate shifts over random adjacent dataset pairs.

    Each trial samples a dataset from the pipeline's instance, perturbs one
    uniformly chosen (day, od) entry by one request, runs the pipeline's
    noise-free descent on both, and records the shift-to-bound ratio. The
    config supplies N, the period, alpha, the step tolerance and, through
    its dataset seed, the audit's random stream. Passes when the largest
    ratio stays below 1 plus the accumulated projection slack; passes
    strictly when every shift stays within its bound with no slack.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config, instance = pipeline.config, pipeline.instance
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((config.dataset_seed, 0xA0D17)))
    )
    pairs = pipeline.projector.routable_pairs()
    rows = []
    for trial in range(trials):
        dataset = demand_mod.sample_dataset(
            instance.mean_demand,
            config.n_days,
            config.period_minutes,
            seed=int(rng.integers(2**31)),
        )
        day = int(rng.integers(1, config.n_days + 1))
        o, d = pairs[int(rng.integers(len(pairs)))]
        adjacent = demand_mod.make_adjacent(dataset, day, (o, d), "add")

        # the twin's rate bound covers both: "add" raises one rate
        constants = resolve_constants(config, instance, adjacent)
        bound = sensitivity_bound(constants, config.n_days)
        x_a, x_b = (pipeline.descend(twin, constants) for twin in (dataset, adjacent))
        # summed by numpy itself, as BLAS's threaded dot inside np.linalg.norm
        # gives other bits at other thread counts
        shift = x_a - x_b
        distance = math.sqrt(np.einsum("ij,ij->", shift, shift))
        rows.append(
            SensitivityTrial(
                trial=trial,
                day=day,
                origin=o,
                destination=d,
                distance=distance,
                bound=bound,
                ratio=distance / bound,
            )
        )
    abs_slack = 10.0 * config.n_days * config.step_tol
    slack = abs_slack / min(row.bound for row in rows)
    max_ratio = max(row.ratio for row in rows)
    return SensitivityReport(
        trials=tuple(rows),
        slack=slack,
        max_ratio=max_ratio,
        passed=all(row.distance <= row.bound + abs_slack for row in rows),
        strict_passed=all(row.distance <= row.bound for row in rows),
    )


@dataclass(frozen=True)
class ImpossibilityReport:
    od: tuple
    detected_without_trip: bool
    detected_with_trip: bool
    detected_without_trip_total_flow: bool
    detected_with_trip_total_flow: bool

    @property
    def separated(self):
        """True when the detector distinguishes the adjacent pair exactly."""
        return (
            not self.detected_without_trip
            and self.detected_with_trip
            and not self.detected_without_trip_total_flow
            and self.detected_with_trip_total_flow
        )


def demo_impossibility(network, base_demand, od, period_minutes=60.0):
    """Separate an adjacent demand pair from standard-formulation solutions.

    Requires the od endpoints to be demand-free in the base matrix (rare
    locations). Adds a single trip (1/T) at od, produces feasible solutions
    for both matrices, and runs the net-flow detector at the destination on
    the per-pair solutions and on total flows alone.
    """
    base_demand = demand_mod.validate_demand_matrix(base_demand)
    o, d = check_pair(od, base_demand.shape[0])
    for endpoint in (o, d):
        if np.any(base_demand[endpoint, :] != 0) or np.any(base_demand[:, endpoint] != 0):
            raise ValueError(
                f"node {endpoint + 1} carries demand; the demo needs isolated endpoints"
            )
    bumped = base_demand.copy()
    bumped[o, d] += 1.0 / period_minutes

    solution_without = standard_feasible_flow(base_demand, network)
    solution_with = standard_feasible_flow(bumped, network)
    return ImpossibilityReport(
        od=(o, d),
        detected_without_trip=detect_od_presence(solution_without, network, d),
        detected_with_trip=detect_od_presence(solution_with, network, d),
        detected_without_trip_total_flow=detect_od_presence(
            solution_without.sum(axis=0), network, d
        ),
        detected_with_trip_total_flow=detect_od_presence(
            solution_with.sum(axis=0), network, d
        ),
    )
