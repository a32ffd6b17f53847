"""Total-travel-time objective for the affine latency model, its gradient,
and the regularity constants that drive step sizes and noise calibration.

For a policy X (one unit flow per ordered pair, stacked as rows) and demand
rates L, the aggregate edge flow is y = sum_od L(o,d) X[od]. The travel-time
cost is y . (Q y + c) with Q the diagonal slope matrix, and the optimizer
works on the regularized cost with an extra (alpha/2) ||X||^2 term so that
alpha is exactly the strong-convexity modulus. The demand-weighting operator
is never materialized: every operation below is a weighted block sum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLOCK_BYTES = 1 << 20  # rows of the policy that gradient scales per block


@dataclass(frozen=True)
class ModelConstants:
    """Regularity constants of the regularized objective.

    Attributes:
        lambda_max: upper bound on any single arrival rate (requests/minute).
        alpha: strong-convexity modulus (the regularizer weight).
        beta: smoothness bound on the Hessian operator norm.
        cross_sensitivity: bound on the gradient change per unit change of
            one demand entry (the noise-calibration constant).
        gradient_bound: bound on the gradient norm over the feasible set.
        period_minutes: operation-period length T.
    """

    lambda_max: float
    alpha: float
    beta: float
    cross_sensitivity: float
    gradient_bound: float
    period_minutes: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < self.alpha:
            raise ValueError("beta must be at least alpha")
        if self.cross_sensitivity <= 0:
            raise ValueError("cross_sensitivity must be positive")
        if self.gradient_bound < 0 or self.lambda_max < 0:
            raise ValueError("bounds must be nonnegative")
        if self.period_minutes <= 0:
            raise ValueError("period_minutes must be positive")


def _as_policy(x, n, m):
    return np.asarray(x, dtype=float).reshape(n * n, m)


def total_edge_flow(x, demand):
    """Aggregate flow per edge: the demand-rate weighted sum of unit flows."""
    demand = np.asarray(demand, dtype=float)
    n = demand.shape[0]
    X = _as_policy(x, n, np.asarray(x).size // (n * n))
    return demand.reshape(n * n) @ X


def travel_time_cost(x, demand, latency):
    """Total travel time per minute of operation: y . (Q y + c)."""
    y = total_edge_flow(x, demand)
    return float(y @ (latency.slope * y + latency.free_flow))


def regularized_cost(x, demand, latency, alpha):
    """Travel-time cost plus (alpha/2) ||x||^2; alpha = 0 gives the raw cost."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    X = np.asarray(x, dtype=float)
    return travel_time_cost(X, demand, latency) + 0.5 * alpha * float(np.sum(X * X))


def edge_costs(x, demand, latency):
    """Marginal travel time 2 Q y + c of each edge at the aggregate flow y:
    the edge costs that every block of the gradient shares."""
    return 2.0 * latency.slope * total_edge_flow(x, demand) + latency.free_flow


def gradient(x, demand, latency, alpha):
    """Gradient of the regularized cost, stacked like the policy.

    Block (o, d) equals L(o,d) * edge_costs + alpha * X[od], computed in
    O(n^2 m) via one outer product.
    """
    demand = np.asarray(demand, dtype=float)
    n = demand.shape[0]
    X = _as_policy(x, n, np.asarray(x).size // (n * n))
    return gradient_rows(X, slice(None), demand, edge_costs(X, demand, latency), alpha)


def gradient_rows(X, rows, demand, costs, alpha):
    """Rows of the gradient at the stacked policy X, given its shared edge
    costs (edge_costs(X, demand, latency)): L(o,d) * costs + alpha * X[od]
    for each block od of X[rows]. rows is an index array, or slice(None)
    for the whole gradient."""
    X = X[rows]  # a view for a slice, the gathered rows for an index array
    g = np.outer(np.asarray(demand, dtype=float).reshape(-1)[rows], costs)
    # alpha X joins a cache-sized block of rows at a time: a temporary the
    # size of the policy costs more in fresh pages than the sum itself (a
    # 64-node grid gradient took 4.8 ms with it and 2.8 ms without on a
    # 2-vCPU machine)
    block = max(1, _BLOCK_BYTES // max(1, g[:1].nbytes))
    for start in range(0, g.shape[0], block):
        g[start : start + block] += alpha * X[start : start + block]
    return g


def demand_weight_top_eigenvalue(demand, latency):
    """Largest eigenvalue of the demand-weighted quadratic form.

    By the Kronecker structure this is ||vec(L)||^2 * max_e slope[e].
    """
    v = np.asarray(demand, dtype=float).reshape(-1)
    return float(v @ v) * latency.max_slope


def compute_constants(network, latency, lam_max, alpha, period_minutes):
    """Closed-form regularity constants from the network and a demand bound.

    beta is the true Hessian bound 2 n^2 lambda_max^2 max_q + alpha; the
    cross-sensitivity and gradient bounds follow the triangle-inequality
    estimates with ||y|| <= n^2 sqrt(m) lambda_max and ||x_od|| <= sqrt(m).
    """
    if lam_max < 0:
        raise ValueError("lam_max must be nonnegative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = network.node_count
    m = network.edge_count
    q_max = latency.max_slope
    c_norm = float(np.linalg.norm(latency.free_flow))
    beta = 2.0 * n * n * lam_max * lam_max * q_max + alpha
    cross = 2.0 * lam_max * q_max * np.sqrt(m) * n * (n + 1) + c_norm
    grad_bound = (
        2.0 * n * n * lam_max * q_max * (n * n * np.sqrt(m) * lam_max)
        + alpha * n * np.sqrt(m)
        + n * lam_max * c_norm
    )
    return ModelConstants(
        lambda_max=float(lam_max),
        alpha=float(alpha),
        beta=float(beta),
        cross_sensitivity=float(cross),
        gradient_bound=float(grad_bound),
        period_minutes=float(period_minutes),
    )

