"""One-pass private projected stochastic gradient descent with output
perturbation.

The solver takes one projected gradient step per day of demand data, reading
each day exactly once, then releases the final iterate after adding Gaussian
noise calibrated to the iterate's worst-case sensitivity over request-level
adjacent datasets and projecting back onto the feasible set. Runs are
deterministic given the dataset and the noise seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow_polytope import (
    FlowProjector,
    UnreachablePairError,
    check_feasible_start,
    kept_vertex_rows,
)
from .objective import edge_costs, gradient_rows, regularized_cost, travel_time_cost

STEP_PROJECTION_TOL = 1e-6
FINAL_PROJECTION_TOL = 1e-8


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class PrivateSolution:
    """Output bundle of one private solve.

    cost_trace[k] is the regularized cost of iterate k (0 = the start) and
    travel_time_trace[k] the unregularized travel time, both evaluated at the
    trace demand passed to the solver (each day's own demand when omitted).
    """

    x_pre: np.ndarray
    x_alg: np.ndarray
    sigma: float
    seed: int
    cost_trace: tuple
    travel_time_trace: tuple
    constants: object


def step_size(k, alpha, beta):
    """Step length for iteration k >= 1: min(1 / (alpha k), min(1, 2 alpha) / beta)."""
    if k < 1:
        raise ValueError("iterations are 1-based")
    if alpha <= 0 or beta < alpha:
        raise ValueError("need alpha > 0 and beta >= alpha")
    return min(1.0 / (alpha * k), min(1.0, 2.0 * alpha) / beta)


def sensitivity_bound(constants, n_days):
    """Worst-case final-iterate shift over request-level adjacent datasets.

    s = (C / T) * min(min(1, 2 alpha) / beta, 1 / (alpha N)) where C is the
    cross sensitivity constant and T the operation period.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    a = constants.alpha
    inner = min(min(1.0, 2.0 * a) / constants.beta, 1.0 / (a * n_days))
    return constants.cross_sensitivity / constants.period_minutes * inner


def gaussian_noise_scale(constants, n_days, privacy):
    """Noise standard deviation of the output perturbation: the Gaussian
    mechanism at sensitivity s gives sigma = (s / epsilon) sqrt(2 ln(1.25/delta))."""
    s = sensitivity_bound(constants, n_days)
    return s / privacy.epsilon * math.sqrt(2.0 * math.log(1.25 / privacy.delta))


def sample_gaussian(sigma, dim, seed):
    """dim i.i.d. N(0, sigma^2) draws via Box-Muller on Philox uniforms.

    The generator is counter-based and the transform has no rejection step,
    so equal seeds give bit-identical vectors on any platform. sigma = 0
    returns the zero vector without consuming randomness.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    if sigma == 0.0:
        return np.zeros(dim)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    pairs = (dim + 1) // 2
    u1 = rng.random(pairs)
    np.subtract(1.0, u1, out=u1)  # in (0, 1], keeps log finite
    u2 = rng.random(pairs)
    # the radius sqrt(-2 log u1) and the angle 2 pi u2, each in its draw's array
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    # the cosine half, then as much of the sine half as dim leaves room for
    z = np.empty(dim)
    cos, sin = z[:pairs], z[pairs:]
    np.cos(u2, out=cos)
    cos *= u1
    np.sin(u2[: sin.size], out=sin)
    sin *= u1[: sin.size]
    z *= sigma
    return z


class CostTrace:
    """Step observer of descend that records each iterate's regularized cost
    and travel time, at demand when one is given and at the day's own demand
    otherwise."""

    def __init__(self, latency, alpha, demand=None):
        self.latency, self.alpha, self.demand = latency, alpha, demand
        self.costs, self.travel_times = [], []

    def __call__(self, k, X, demand):
        where = demand if self.demand is None else self.demand
        self.costs.append(regularized_cost(X, where, self.latency, self.alpha))
        self.travel_times.append(travel_time_cost(X, where, self.latency))


def descend(
    dataset,
    network,
    latency,
    constants,
    x0,
    *,
    projector=None,
    step_tol=STEP_PROJECTION_TOL,
    on_step=None,
):
    """Run the N projected gradient steps of the private solver (no noise) and
    return the final iterate.

    Each day's demand is read by exactly one step, in dataset order. x0
    must pass flow_polytope.check_feasible_start. The routable rows that are
    exact 0/1 paths (those of x0 at first, then those kept at the previous
    step) are checked with flow_polytope.kept_vertex_rows at each step; a
    row that passes is handed to the step projection as its vertex, which
    is the exact projection of its step and comes back as it is. The
    step's edge costs (objective.edge_costs) are computed once and serve
    both the certificate and the gradient. When fewer than n^2 / 8 rows
    move, only their gradient rows are formed and the step input is a copy
    of X with those rows replaced; otherwise the whole gradient is formed,
    as the step's array. Every step projects the whole policy with one
    project_policy call, which returns the kept rows after a residual
    product and a box test, and runs Dykstra's method to step_tol on the
    moving rows alone. So a step costs what its moving rows cost, plus the
    certificate and those two tests. on_step, when given, is called as
    on_step(k, X, demand): at k = 0 with the checked start and day 1's
    demand, then after step k with its iterate and day k's demand.
    Demand on a pair with no directed path, on any day, raises
    UnreachablePairError before the first step, naming the first such pair
    in row-major order.
    """
    if projector is None:
        projector = FlowProjector(network)
    X = check_feasible_start(x0, network, projector.reach)
    demanded = np.flatnonzero(dataset.matrices.any(axis=0))
    unserved = demanded[~projector.reach[np.divmod(demanded, network.node_count)]]
    if unserved.size:
        o, d = divmod(int(unserved[0]), network.node_count)
        raise UnreachablePairError(f"no path serves demanded pair ({o + 1}, {d + 1})")
    alpha, beta = constants.alpha, constants.beta
    n = network.node_count
    routable = (projector.reach & ~np.eye(n, dtype=bool)).reshape(n * n)
    routable_count = int(routable.sum())
    # routable rows that are exact vertices: the 0/1 rows of the start, then
    # the rows kept at the previous step
    vertices = np.flatnonzero(routable & ((X == 0.0) | (X == 1.0)).all(axis=1))
    first_day = dataset.day(1)
    if on_step is not None:
        on_step(0, X, first_day)
    for k in range(1, dataset.day_count + 1):
        lam = first_day if k == 1 else dataset.day(k)
        costs = edge_costs(X, lam, latency)  # shared by the gradient and the certificate
        if vertices.size:
            vertices = vertices[kept_vertex_rows(X, vertices, lam, costs, alpha, network)]
        eta = step_size(k, alpha, beta)
        # a kept row's projection is its vertex, which projects to itself,
        # so the step input holds it; the other routable rows take the step
        # X - eta g. When they are few (the rule of kept_vertex_rows), only
        # their rows of g are formed
        if 8 * (routable_count - vertices.size) < n * n:
            moves = routable.copy()
            moves[vertices] = False
            moving = np.flatnonzero(moves)
            step = X.copy()
            g = gradient_rows(X, moving, lam, costs, alpha)
            g *= eta
            step[moving] = np.subtract(X[moving], g, out=g)
        else:
            # the step formed in the gradient's array
            step = gradient_rows(X, slice(None), lam, costs, alpha)
            step *= eta
            np.subtract(X, step, out=step)
            step[vertices] = X[vertices]
        del X  # not held through the projection
        X = projector.project_policy(step, tol=step_tol)
        del step  # not held through on_step and the next gradient
        if on_step is not None:
            on_step(k, X, lam)
    return X


def perturb_and_project(
    x_pre, sigma, seed, network, *, projector=None, final_tol=FINAL_PROJECTION_TOL
):
    """Add N(0, sigma^2 I) to a policy and project back onto the feasible set."""
    if projector is None:
        projector = FlowProjector(network)
    x_pre = np.asarray(x_pre, dtype=float)
    noisy = sample_gaussian(sigma, x_pre.size, seed).reshape(x_pre.shape)
    noisy += x_pre
    return projector.project_policy(noisy, tol=final_tol)


def private_sgd(
    dataset,
    network,
    latency,
    constants,
    privacy,
    x0,
    seed,
    *,
    projector=None,
    step_tol=STEP_PROJECTION_TOL,
    final_tol=FINAL_PROJECTION_TOL,
    trace_demand=None,
):
    """Full private solve: N projected SGD steps, then output perturbation.

    Args:
        dataset: the demand days, consumed once each in order.
        constants: ModelConstants consistent with the network, latency and
            the dataset's rate bound.
        privacy: target (epsilon, delta), to which the noise is calibrated
            by gaussian_noise_scale.
        x0: feasible starting policy.
        seed: seed of the Gaussian output perturbation.
        trace_demand: optional fixed matrix at which iterate costs are
            recorded (defaults to each day's own demand).
    """
    sigma = gaussian_noise_scale(constants, dataset.day_count, privacy)
    if projector is None:
        projector = FlowProjector(network)
    trace = CostTrace(latency, constants.alpha, trace_demand)
    x_pre = descend(
        dataset, network, latency, constants, x0, projector=projector, step_tol=step_tol,
        on_step=trace,
    )
    x_alg = perturb_and_project(
        x_pre, sigma, seed, network, projector=projector, final_tol=final_tol
    )
    return PrivateSolution(
        x_pre=x_pre,
        x_alg=x_alg,
        sigma=sigma,
        seed=seed,
        cost_trace=tuple(trace.costs),
        travel_time_trace=tuple(trace.travel_times),
        constants=constants,
    )
