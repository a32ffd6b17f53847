"""Non-private reference solver and the standard-formulation leak demo.

Frank-Wolfe exploits that every linearized subproblem over the policy set
splits into per-pair minimum-cost unit flows; the linearization coefficients
are nonnegative here, so each subproblem is solved by a shortest path. The
vertex S is kept as its support, the (row, edge) entries of those paths, so
the duality gap, the exact line search and the cost read the edge flows y
and y_S and the iterate on the support (Jaggi, ICML 2013); no gradient,
vertex or direction array is formed. The duality gap at the last iterate
certifies suboptimality for the convex objective."""
from __future__ import annotations

import math

import numpy as np

from .flow_polytope import (
    UnreachablePairError,
    _tree_support,
    check_feasible_start,
    initial_shortest_path_policy,
    reachability,
)


def frank_wolfe_solve(
    demand, network, latency, alpha=0.0, gap_tol=1e-6, max_iters=5000, x0=None
):
    """Minimize the (optionally regularized) travel-time cost at one demand.

    Returns (policy, trace) where trace rows are (iteration, duality gap,
    objective value). Stops once the Frank-Wolfe gap drops to gap_tol or at
    max_iters; the gap is reported either way. Step lengths come from exact
    line search on the quadratic objective, falling back to 2 / (j + 2) when
    the directional curvature vanishes. The start is the free-flow
    shortest-path policy; a caller that already built it passes it as x0,
    which is copied, never written. A negative or non-finite alpha, gap_tol
    or demand rate raises ValueError, naming the first bad pair (1-based),
    as does an x0 that is not a feasible policy (flow_polytope's
    check_feasible_start).
    """
    if not (0 <= alpha < math.inf):
        raise ValueError("alpha must be nonnegative and finite")
    if not (0 < gap_tol < math.inf):
        raise ValueError("gap_tol must be positive and finite")
    demand = np.asarray(demand, dtype=float)
    n = network.node_count
    demand_vec = demand.reshape(n * n)
    bad = np.flatnonzero(~((demand_vec >= 0) & (demand_vec < math.inf)))
    if bad.size:
        (o, d), rate = divmod(int(bad[0]), n), demand_vec[bad[0]]
        raise ValueError(f"demand of pair ({o + 1}, {d + 1}) is {rate}, not a nonnegative finite rate")
    positive = np.nonzero(demand_vec)[0]
    slope, free_flow = latency.slope, latency.free_flow

    if x0 is None:
        X = initial_shortest_path_policy(network)
    else:
        X = check_feasible_start(x0, network, reachability(network)).copy()
    unserved = positive[~X.any(axis=1)[positive]]  # the start routes every routable pair
    if unserved.size:
        o, d = divmod(int(unserved[0]), n)
        raise UnreachablePairError(f"no path serves demanded pair ({o + 1}, {d + 1})")

    y = demand_vec @ X  # the edge flow L X, updated with X
    trace = []
    for j in range(max_iters):
        edge_costs = 2.0 * slope * y + free_flow
        # the gradient block of pair od is L(o,d) edge_costs + alpha X[od]; at
        # alpha = 0 it is a nonnegative multiple of the shared edge costs, so
        # one tree per origin covers all pairs
        costs = np.outer(demand_vec, edge_costs) + alpha * X if alpha else edge_costs
        rows, edges = _tree_support(network, costs)
        # ||X||^2, summed by numpy itself: BLAS's threaded dot gives other bits
        # at other thread counts
        square = float(np.einsum("ij,ij->", X, X)) if alpha else 0.0
        x_s = X[rows, edges]
        overlap = float(x_s.sum())  # <X, S>; S is 0/1, so ||S||^2 = rows.size
        y_dir = np.bincount(edges, weights=demand_vec[rows], minlength=y.size) - y  # L (S - X)
        gap = float(-(edge_costs @ y_dir)) + alpha * (square - overlap)
        cost = float(y @ (slope * y + free_flow)) + 0.5 * alpha * square
        trace.append((j, gap, cost))
        if gap <= gap_tol:
            break
        # ||S - X||^2 = ||S||^2 - 2 <X, S> + ||X||^2
        curvature = float(y_dir @ (slope * y_dir)) + 0.5 * alpha * (rows.size - 2.0 * overlap + square)
        gamma = min(1.0, gap / (2.0 * curvature)) if curvature > 0 else 2.0 / (j + 2.0)
        # X + gamma (S - X), in place
        X *= 1.0 - gamma
        X[rows, edges] = x_s + gamma * (1.0 - x_s)
        y += gamma * y_dir
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
