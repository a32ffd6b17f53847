"""Non-private reference solver and the standard-formulation leak demo.

Frank-Wolfe exploits that every linearized subproblem over the policy set
splits into per-pair minimum-cost unit flows; the linearization coefficients
are nonnegative here, so each subproblem is solved by a shortest path, and
initial_shortest_path_policy solves all pairs at once. The duality gap at the
last iterate certifies suboptimality for the convex objective.
"""
from __future__ import annotations

import numpy as np

from .flow_polytope import UnreachablePairError, initial_shortest_path_policy
from .objective import edge_costs_and_gradient, regularized_cost


def frank_wolfe_solve(
    demand, network, latency, alpha=0.0, gap_tol=1e-6, max_iters=5000, x0=None
):
    """Minimize the (optionally regularized) travel-time cost at one demand.

    Returns (policy, trace) where trace rows are (iteration, duality gap,
    objective value). Stops once the Frank-Wolfe gap drops to gap_tol or at
    max_iters; the gap is reported either way. Step lengths come from exact
    line search on the quadratic objective, falling back to 2 / (j + 2) when
    the directional curvature vanishes. The start is the free-flow
    shortest-path policy; a caller that already built it passes it as x0.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if gap_tol <= 0:
        raise ValueError("gap_tol must be positive")
    demand = np.asarray(demand, dtype=float)
    n = network.node_count
    demand_vec = demand.reshape(n * n)
    positive = np.nonzero(demand_vec)[0]
    slope = latency.slope

    X = initial_shortest_path_policy(network) if x0 is None else x0
    unserved = positive[~X.any(axis=1)[positive]]  # the start routes every routable pair
    if unserved.size:
        o, d = divmod(int(unserved[0]), n)
        raise UnreachablePairError(f"no path serves demanded pair ({o + 1}, {d + 1})")

    trace = []
    for j in range(max_iters):
        edge_costs, G = edge_costs_and_gradient(X, demand, latency, alpha)
        # at alpha = 0 every block of G is a nonnegative multiple of the
        # shared edge costs, so one tree per origin covers all pairs
        S = initial_shortest_path_policy(network, G if alpha else edge_costs)
        D = S - X
        gap = float(-np.sum(G * D))
        cost = regularized_cost(X, demand, latency, alpha)
        trace.append((j, gap, cost))
        if gap <= gap_tol:
            break
        y_dir = demand_vec @ D
        curvature = float(y_dir @ (slope * y_dir)) + 0.5 * alpha * float(np.sum(D * D))
        if curvature > 0:
            gamma = min(1.0, gap / (2.0 * curvature))
        else:
            gamma = 2.0 / (j + 2.0)
        X = X + gamma * D
    return X, trace


def standard_feasible_flow(demand, network):
    """Feasible solution of the standard demand-scaled flow formulation.

    Block (o, d) carries demand(o, d) units on its path in the free-flow start,
    so the net inflow at each node is exactly demand(o,d) * (1[d] - 1[o]). The
    first demanded pair in row-major order with no path raises an error.
    """
    demand = np.asarray(demand, dtype=float)
    n = demand.shape[0]
    x0 = initial_shortest_path_policy(network)
    demanded = ((demand != 0) & ~np.eye(n, dtype=bool)).reshape(n * n)
    unserved = np.flatnonzero(demanded & ~x0.any(axis=1))
    if unserved.size:
        o, d = divmod(int(unserved[0]), n)
        raise UnreachablePairError(f"no path from {o + 1} to {d + 1}")
    return demand.reshape(n * n, 1) * x0


def detect_od_presence(solution, network, node, tol=1e-12):
    """True iff the node is a net source or sink of the released flows.

    Accepts either the total edge flow (shape (m,)) or a stacked per-pair
    solution (shape (n^2, m)); conservation is checked on the aggregate in
    both cases, which is what makes the standard formulation leak trips.
    """
    solution = np.asarray(solution, dtype=float)
    total = solution if solution.ndim == 1 else solution.sum(axis=0)
    A = network.incidence_matrix()
    return bool(abs(float(A[node] @ total)) > tol)
