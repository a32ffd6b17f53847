"""The feasible set of routing policies: unit (o,d) flows and their product.

A unit (o,d) flow is an edge vector x in [0, 1]^m whose net inflow is -1 at
o, +1 at d and 0 elsewhere. A routing policy stacks one such flow per ordered
vertex pair; policies are stored as arrays of shape (n*n, m) where block
index i corresponds to the pair (i // n, i % n) and diagonal (o == d) blocks
are identically zero. The per-edge upper bound of 1 is part of the feasible
set here: it keeps the set bounded (diameter n * sqrt(m)) in the presence of
directed cycles.

Projection onto a block polytope runs Dykstra's alternating projections
between the conservation subspace and the box [0, 1]^m; all blocks of a
policy are projected simultaneously since the feasible set is a product.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
_PEEL_EPS = 1e-12
_MAX_DYKSTRA_ITERS = 10_000


class UnreachablePairError(ValueError):
    """No directed path exists between the requested endpoints."""


class ProjectionConvergenceError(RuntimeError):
    """Dykstra hit the iteration cap before meeting the tolerance."""

    def __init__(self, residual, iterations):
        super().__init__(
            f"projection did not converge in {iterations} iterations "
            f"(conservation residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


def pair_index(o, d, n):
    """Block position of the ordered pair (o, d) in a stacked policy."""
    return o * n + d


def conservation_rhs(od, node_count):
    """Right-hand side of the unit-flow conservation equations (net inflow)."""
    o, d = od
    b = np.zeros(node_count)
    b[o] -= 1.0
    b[d] += 1.0
    return b


def conservation_residual(x, od, network):
    """Infinity norm of the net-inflow error of a block against its unit RHS."""
    A = network.incidence_matrix()
    return float(np.max(np.abs(A @ np.asarray(x, dtype=float) - conservation_rhs(od, network.node_count))))


def reachability(network):
    """Boolean (n, n) matrix: reach[o, d] iff a directed o -> d path exists."""
    n = network.node_count
    reach = np.zeros((n, n), dtype=bool)
    heads = network.heads
    for src in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[src] = True
        stack = [src]
        while stack:
            u = stack.pop()
            for e in network.out_edges(u):
                v = heads[e]
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        reach[src] = seen
    return reach


class FlowProjector:
    """Euclidean projection onto unit-flow polytopes of one network.

    The conservation equations share one reduced incidence matrix across all
    od pairs, so its normal matrix is factored once and reused; the projector
    is read-only after construction and safe to share.
    """

    def __init__(self, network):
        self.network = network
        n, m = network.node_count, network.edge_count
        A = network.incidence_matrix()
        self._A_reduced = A[: n - 1]
        gram = self._A_reduced @ self._A_reduced.T
        # pseudo-inverse: the (n-1) x (n-1) normal matrix is tiny, and this
        # also covers graphs whose underlying undirected graph is disconnected
        self._gram_solve = np.linalg.pinv(gram)
        self._reach = reachability(network)

    def rhs_for_pairs(self, pairs):
        n = self.network.node_count
        B = np.zeros((n - 1, len(pairs)))
        for col, (o, d) in enumerate(pairs):
            if o < n - 1:
                B[o, col] -= 1.0
            if d < n - 1:
                B[d, col] += 1.0
        return B

    def _affine_project(self, X, B):
        # rows of X onto {x : A_reduced x = b}, one b per row
        R = self._A_reduced @ X.T - B
        return X - (self._A_reduced.T @ (self._gram_solve @ R)).T

    def project_rows(self, V, pairs, tol=DEFAULT_TOL):
        """Project each row of V onto the unit-flow polytope of its pair.

        Returns an array of the same shape. Each block iterates Dykstra until
        its own successive change drops to tol/10 and its conservation
        residual to tol; converged blocks are frozen so stragglers do not
        re-run the whole batch. Raises UnreachablePairError if a pair has no
        directed path, and ProjectionConvergenceError at the iteration cap.
        """
        if tol <= 0:
            raise ValueError("tol must be positive")
        for o, d in pairs:
            if o == d:
                raise ValueError("project_rows expects pairs with o != d")
            if not self._reach[o, d]:
                raise UnreachablePairError(
                    f"no path from {o + 1} to {d + 1}: the flow polytope is empty"
                )
        V = np.asarray(V, dtype=float)
        out = np.empty_like(V)
        active = np.arange(V.shape[0])
        X = V.copy()
        B = self.rhs_for_pairs(pairs)
        correction = np.zeros_like(X)  # Dykstra increment for the box only;
        # the conservation set is affine, so its increment can be dropped.
        previous = X
        worst_residual = np.inf
        for iteration in range(1, _MAX_DYKSTRA_ITERS + 1):
            Y = self._affine_project(X, B)
            Z = Y + correction
            X = np.clip(Z, 0.0, 1.0)
            correction = Z - X
            residual = np.max(np.abs(self._A_reduced @ X.T - B), axis=0)
            if iteration > 1:
                change = np.max(np.abs(X - previous), axis=1)
                done = (change <= tol / 10.0) & (residual <= tol)
                if np.any(done):
                    out[active[done]] = X[done]
                    keep = ~done
                    active = active[keep]
                    if active.size == 0:
                        return out
                    X = X[keep]
                    B = B[:, keep]
                    correction = correction[keep]
            previous = X
            worst_residual = float(np.max(residual))
        raise ProjectionConvergenceError(worst_residual, _MAX_DYKSTRA_ITERS)

    def project_block(self, v, od, tol=DEFAULT_TOL):
        return self.project_rows(np.asarray(v, dtype=float)[None, :], [od], tol=tol)[0]

    def reachable(self, o, d):
        return bool(self._reach[o, d])

    def routable_pairs(self):
        """Ordered (o, d) pairs with o != d and a directed path between them."""
        n = self.network.node_count
        return [
            (o, d)
            for o in range(n)
            for d in range(n)
            if o != d and self._reach[o, d]
        ]

    def project_policy(self, x, tol=DEFAULT_TOL):
        """Blockwise projection of a stacked policy.

        Diagonal blocks map to zero, as do blocks of pairs with no directed
        path (their unit-flow polytope is empty, so they are pinned to the
        zero flow and carry no demand in any valid model).
        """
        n, m = self.network.node_count, self.network.edge_count
        X = np.asarray(x, dtype=float).reshape(n * n, m)
        pairs = self.routable_pairs()
        rows = [pair_index(o, d, n) for o, d in pairs]
        out = np.zeros((n * n, m))
        out[rows] = self.project_rows(X[rows], pairs, tol=tol)
        return out


def project_unit_flow(v, od, network, tol=DEFAULT_TOL):
    """Euclidean projection of an edge vector onto the unit (o, d) flow polytope."""
    o, d = od
    if o == d:
        raise ValueError("od pair must have distinct endpoints")
    return FlowProjector(network).project_block(v, od, tol=tol)


def project_policy(x, network, tol=DEFAULT_TOL, projector=None):
    """Euclidean projection of a full policy onto the product polytope.

    Accepts a (n*n, m) array or its flattening; returns shape (n*n, m).
    """
    if projector is None:
        projector = FlowProjector(network)
    return projector.project_policy(x, tol=tol)


def shortest_path_tree(source, edge_costs, network):
    """Deterministic Dijkstra from one source under nonnegative edge costs.

    Ties in path cost are broken by the lexicographically smallest edge-index
    sequence. Returns (distances, predecessor edge per node, path sequences),
    with unreachable nodes carrying distance inf and sequence None.
    """
    edge_costs = np.asarray(edge_costs, dtype=float)
    if np.any(edge_costs < 0):
        raise ValueError("edge costs must be nonnegative")
    n = network.node_count
    dist = np.full(n, np.inf)
    pred_edge = np.full(n, -1, dtype=np.intp)
    sequences = [None] * n
    done = np.zeros(n, dtype=bool)
    heap = [(0.0, (), source)]
    dist[source] = 0.0
    sequences[source] = ()
    while heap:
        d_u, seq_u, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        dist[u] = d_u
        sequences[u] = seq_u
        for e in network.out_edges(u):
            v = network.heads[e]
            if done[v]:
                continue
            cand = d_u + edge_costs[e]
            seq_v = seq_u + (e,)
            if cand < dist[v] or (cand == dist[v] and (sequences[v] is None or seq_v < sequences[v])):
                dist[v] = cand
                sequences[v] = seq_v
                pred_edge[v] = e
                heapq.heappush(heap, (cand, seq_v, v))
    return dist, pred_edge, sequences


def shortest_path_flow(od, edge_costs, network):
    """0/1 indicator of a minimum-cost simple o -> d path (a polytope vertex)."""
    o, d = od
    if o == d:
        raise ValueError("od pair must have distinct endpoints")
    dist, _, sequences = shortest_path_tree(o, edge_costs, network)
    if not np.isfinite(dist[d]):
        raise UnreachablePairError(f"no path from {o + 1} to {d + 1}")
    flow = np.zeros(network.edge_count)
    flow[list(sequences[d])] = 1.0
    return flow


def initial_shortest_path_policy(network, edge_costs=None):
    """All-or-nothing policy: every od block on its cheapest path.

    Defaults to free-flow times as costs. Diagonal blocks stay zero, as do
    blocks of unreachable pairs (matching the projector's convention).
    """
    if edge_costs is None:
        edge_costs = network.free_flow_time
    n = network.node_count
    policy = np.zeros((n * n, network.edge_count))
    for o in range(n):
        dist, _, sequences = shortest_path_tree(o, edge_costs, network)
        for d in range(n):
            if d == o or not np.isfinite(dist[d]):
                continue
            policy[pair_index(o, d, n), list(sequences[d])] = 1.0
    return policy


@dataclass(frozen=True)
class PathDistribution:
    """A unit flow expressed as weighted o -> d paths plus a leftover circulation."""

    od: tuple
    paths: tuple  # tuples of edge indices
    weights: tuple
    circulation: np.ndarray

    @property
    def circulation_mass(self):
        return float(np.sum(self.circulation))

    def reconstruct(self, edge_count):
        x = self.circulation.copy()
        for path, w in zip(self.paths, self.weights):
            x[list(path)] += w
        return x


def _trace_path(residual, od, network):
    # depth-first search over edges holding more than the peel threshold,
    # choosing the smallest edge index first; visited set keeps paths simple
    o, d = od
    stack = [(o, ())]
    seen = {o}
    while stack:
        u, path = stack.pop()
        if u == d:
            return path
        # push larger indices first so the smallest is explored first
        for e in reversed(network.out_edges(u)):
            if residual[e] > _PEEL_EPS and network.heads[e] not in seen:
                seen.add(network.heads[e])
                stack.append((network.heads[e], path + (e,)))
    return None


def decompose_flow(x, od, network):
    """Peel a feasible unit flow into at most m weighted simple paths.

    The bottleneck edge of each traced path is subtracted until no o -> d
    path remains above the peel threshold or the extracted weight reaches 1;
    whatever mass is left is reported as the circulation.
    """
    residual = np.asarray(x, dtype=float).copy()
    paths = []
    weights = []
    extracted = 0.0
    for _ in range(network.edge_count):
        if extracted >= 1.0 - 1e-9:
            break
        path = _trace_path(residual, od, network)
        if path is None:
            break
        bottleneck = float(np.min(residual[list(path)]))
        w = min(bottleneck, 1.0 - extracted)
        residual[list(path)] -= w
        paths.append(path)
        weights.append(w)
        extracted += w
    return PathDistribution(
        od=tuple(od),
        paths=tuple(paths),
        weights=tuple(weights),
        circulation=np.clip(residual, 0.0, None),
    )
