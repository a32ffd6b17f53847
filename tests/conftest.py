"""Shared fixtures: small networks, random feasible flows, and the
independent brute-force oracles used to cross-check the numerical code."""
from __future__ import annotations

import heapq
from itertools import product

import numpy as np
import pytest

from privroute.net_model import LatencyModel, Network
from privroute.flow_polytope import initial_shortest_path_policy, pair_index, reachability
from privroute.objective import gradient, regularized_cost, total_edge_flow


@pytest.fixture
def triangle():
    """Edges e0=(1,2), e1=(2,3), e2=(1,3); the spec's running example."""
    return Network(
        node_count=3,
        tails=[0, 1, 0],
        heads=[1, 2, 2],
        free_flow_time=[1.0, 1.0, 3.0],
        capacity=[1.0, 1.0, 1.0],
    )


@pytest.fixture
def triangle_latency():
    return LatencyModel(slope=[1.0, 1.0, 1.0], free_flow=[1.0, 1.0, 3.0])


@pytest.fixture
def two_node():
    return Network(
        node_count=2, tails=[0], heads=[1], free_flow_time=[5.0], capacity=[10.0]
    )


@pytest.fixture
def diamond4():
    """Strongly connected 4-node network with 10 edges."""
    edges = [(0, 1), (1, 0), (1, 3), (3, 1), (0, 2), (2, 0), (2, 3), (3, 2), (1, 2), (2, 1)]
    return Network(
        node_count=4,
        tails=[e[0] for e in edges],
        heads=[e[1] for e in edges],
        free_flow_time=[1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 1.0, 1.2, 1.2],
        capacity=[10.0] * 10,
    )


@pytest.fixture
def ring5():
    """5-node bidirectional ring; used by the sensitivity audit tests."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [((i + 1) % 5, i) for i in range(5)]
    return Network(
        node_count=5,
        tails=[e[0] for e in edges],
        heads=[e[1] for e in edges],
        free_flow_time=[1.0, 1.5, 2.0, 1.0, 1.5, 1.5, 1.0, 2.0, 1.5, 1.0],
        capacity=[10.0] * 10,
    )


@pytest.fixture
def ring5_demand():
    demand = np.zeros((5, 5))
    demand[0, 2] = 1.5
    demand[2, 0] = 1.0
    demand[1, 4] = 2.0
    demand[4, 1] = 1.0
    demand[0, 3] = 0.8
    demand[3, 1] = 1.2
    return demand


@pytest.fixture(scope="session")
def sioux_falls():
    from privroute.harness import ExperimentConfig, load_instance

    return load_instance(ExperimentConfig())


def network_to_tntp(network):
    """TNTP net-format text of a Network (1-based node ids): the parser's
    round-trip partner."""
    lines = [
        f"<NUMBER OF NODES> {network.node_count}",
        f"<NUMBER OF LINKS> {network.edge_count}",
        "<END OF METADATA>",
        "",
        "~ init_node term_node capacity length free_flow_time b power speed toll type ;",
    ]
    for e in range(network.edge_count):
        lines.append(
            "\t{}\t{}\t{:.17g}\t{:.17g}\t{:.17g}\t0\t0\t0\t0\t1\t;".format(
                int(network.tails[e]) + 1,
                int(network.heads[e]) + 1,
                float(network.capacity[e]),
                float(network.free_flow_time[e]),
                float(network.free_flow_time[e]),
            )
        )
    return "\n".join(lines) + "\n"


def is_adjacent(first, second):
    """True iff two datasets of one shape and period differ in exactly one
    entry of one day, by at most 1/T (one request)."""
    assert first.matrices.shape == second.matrices.shape
    assert first.period_minutes == second.period_minutes
    diff = first.matrices - second.matrices
    changed = np.argwhere(diff != 0)
    if changed.shape[0] != 1:
        return False
    t, o, d = changed[0]
    return abs(diff[t, o, d]) <= 1.0 / first.period_minutes + 1e-12


def conservation_rhs(od, node_count):
    """Right-hand side of the unit-flow conservation equations (net inflow)."""
    o, d = od
    b = np.zeros(node_count)
    b[o] -= 1.0
    b[d] += 1.0
    return b


def conservation_residual(x, od, network):
    """Infinity norm of a block's net-inflow error against its unit
    right-hand side, over all n nodes."""
    A = network.incidence_matrix()
    b = conservation_rhs(od, network.node_count)
    return float(np.max(np.abs(A @ np.asarray(x, dtype=float) - b)))


def reconstruct(distribution):
    """The edge flow a PathDistribution stands for: its weighted paths plus
    its circulation."""
    x = distribution.circulation.copy()
    for path, w in zip(distribution.paths, distribution.weights):
        x[list(path)] += w
    return x


def make_random_network(rng, n, extra_edges=3):
    """Strongly connected random network: bidirectional ring plus chords."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    existing = set(edges)
    attempts = 0
    while extra_edges > 0 and attempts < 100:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (u, v) not in existing:
            existing.add((u, v))
            edges.append((u, v))
            extra_edges -= 1
    m = len(edges)
    return Network(
        node_count=n,
        tails=[e[0] for e in edges],
        heads=[e[1] for e in edges],
        free_flow_time=rng.uniform(0.5, 3.0, size=m),
        capacity=rng.uniform(5.0, 20.0, size=m),
    )


def enumerate_simple_paths(network, origin, destination):
    """All simple origin -> destination paths as edge-index tuples (DFS)."""
    paths = []
    stack = [(origin, (), frozenset([origin]))]
    while stack:
        node, path, seen = stack.pop()
        if node == destination:
            paths.append(path)
            continue
        for e in network.out_edges(node):
            head = network.heads[e]
            if head not in seen:
                stack.append((head, path + (e,), seen | {head}))
    return paths


def random_unit_flow(network, od, rng, max_paths=4):
    """Random convex combination of simple od paths (exactly feasible)."""
    paths = enumerate_simple_paths(network, od[0], od[1])
    if not paths:
        raise ValueError("pair not connected")
    k = min(max_paths, len(paths))
    chosen = rng.choice(len(paths), size=k, replace=False)
    weights = rng.random(k) + 0.05
    weights = weights / weights.sum()
    x = np.zeros(network.edge_count)
    for idx, w in zip(chosen, weights):
        x[list(paths[idx])] += w
    return np.clip(x, 0.0, 1.0)


def random_policy(network, rng, max_paths=4):
    """Random feasible policy: path mixtures for every routable pair."""
    n = network.node_count
    reach = reachability(network)
    policy = np.zeros((n * n, network.edge_count))
    for o in range(n):
        for d in range(n):
            if o != d and reach[o, d]:
                policy[pair_index(o, d, n)] = random_unit_flow(network, (o, d), rng, max_paths)
    return policy


def integer_grid(k, rng):
    """k x k bidirectional grid with integer costs 1..3, so that many paths
    tie exactly."""
    edges = []
    for u in range(k * k):
        r, c = divmod(u, k)
        for v in ([u + 1] if c + 1 < k else []) + ([u + k] if r + 1 < k else []):
            edges += [(u, v), (v, u)]
    order = rng.permutation(len(edges))  # edge indices unrelated to node order
    edges = [edges[i] for i in order]
    return Network(
        node_count=k * k,
        tails=[e[0] for e in edges],
        heads=[e[1] for e in edges],
        free_flow_time=rng.integers(1, 4, len(edges)).astype(float),
        capacity=np.ones(len(edges)),
    )


def tuple_shortest_path_tree(source, edge_costs, network):
    """Dijkstra that carries every tentative path as a tuple of edge indices
    and breaks cost ties by comparing those tuples: the reference for the
    predecessor-array form. Returns (distances, predecessor edge per node,
    path sequences), unreachable nodes carrying inf and None."""
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


def tuple_shortest_path_policy(network, edge_costs):
    """All-or-nothing policy written pair by pair from the tuple paths of
    tuple_shortest_path_tree."""
    n = network.node_count
    policy = np.zeros((n * n, network.edge_count))
    for o in range(n):
        dist, _, sequences = tuple_shortest_path_tree(o, edge_costs, network)
        for d in range(n):
            if d == o or not np.isfinite(dist[d]):
                continue
            policy[pair_index(o, d, n), list(sequences[d])] = 1.0
    return policy


def dense_frank_wolfe(demand, network, latency, alpha, gap_tol, max_iters):
    """Frank-Wolfe on whole policy arrays: the gradient G, the vertex S and the
    direction D are built every iteration, and the gap, the line search and
    the cost are read from them. The reference for the support form of
    frank_wolfe_solve; returns the same (policy, trace)."""
    demand = np.asarray(demand, dtype=float)
    demand_vec = demand.reshape(-1)
    slope = latency.slope
    X = initial_shortest_path_policy(network)
    trace = []
    for j in range(max_iters):
        edge_costs = 2.0 * slope * total_edge_flow(X, demand) + latency.free_flow
        G = gradient(X, demand, latency, alpha)
        S = initial_shortest_path_policy(network, G if alpha else edge_costs)
        D = S - X
        gap = float(-np.sum(G * D))
        trace.append((j, gap, regularized_cost(X, demand, latency, alpha)))
        if gap <= gap_tol:
            break
        y_dir = demand_vec @ D
        curvature = float(y_dir @ (slope * y_dir)) + 0.5 * alpha * float(np.sum(D * D))
        gamma = min(1.0, gap / (2.0 * curvature)) if curvature > 0 else 2.0 / (j + 2.0)
        X = X + gamma * D
    return X, trace


def qp_projection_oracle(v, od, network):
    """Brute-force Euclidean projection onto a unit-flow polytope.

    Enumerates every active-set assignment of the box constraints (each
    coordinate at 0, at 1, or free), solves the equality-constrained
    least-squares stationarity system on the free coordinates, and returns
    the feasible candidate closest to v. The true projection always appears
    under its own active set, and no other feasible candidate can be closer,
    so the minimum over candidates is exact. Only viable for small m.
    """
    v = np.asarray(v, dtype=float)
    m = network.edge_count
    A = network.incidence_matrix()[: network.node_count - 1]
    b = conservation_rhs(od, network.node_count)[: network.node_count - 1]
    best = None
    best_obj = np.inf
    for assignment in product((0, 1, 2), repeat=m):
        fixed1 = [i for i, a in enumerate(assignment) if a == 1]
        free = [i for i, a in enumerate(assignment) if a == 2]
        x = np.zeros(m)
        x[fixed1] = 1.0
        b_eff = b - (A[:, fixed1].sum(axis=1) if fixed1 else np.zeros_like(b))
        if free:
            A_free = A[:, free]
            gram = A_free @ A_free.T
            nu, *_ = np.linalg.lstsq(gram, A_free @ v[free] - b_eff, rcond=None)
            x[free] = v[free] - A_free.T @ nu
            if np.max(np.abs(A_free @ x[free] - b_eff)) > 1e-8:
                continue
            if np.min(x[free]) < -1e-9 or np.max(x[free]) > 1 + 1e-9:
                continue
        elif np.max(np.abs(b_eff)) > 1e-8:
            continue
        obj = float(np.sum((x - v) ** 2))
        if obj < best_obj:
            best_obj = obj
            best = x
    if best is None:
        raise RuntimeError("polytope appears empty under enumeration")
    return best


def dykstra_reference(V, pairs, network, tol):
    """Primal Dykstra projection of each row of V onto its pair's unit-flow
    polytope, with the freeze rule and cap of FlowProjector.project_rows.

    Alternates the affine projection onto the conservation equations with
    the clip to [0, 1]^m, carrying Dykstra's increment for the box only (the
    increment of an affine set cancels). The reference the dual-form
    projector is checked against.
    """
    from privroute.flow_polytope import _MAX_DYKSTRA_ITERS

    n = network.node_count
    A = network.incidence_matrix()[: n - 1]
    gram_solve = np.linalg.pinv(A @ A.T)
    B = np.zeros((n - 1, len(pairs)))
    for col, (o, d) in enumerate(pairs):
        if o < n - 1:
            B[o, col] -= 1.0
        if d < n - 1:
            B[d, col] += 1.0
    V = np.asarray(V, dtype=float)
    out = np.empty_like(V)
    active = np.arange(V.shape[0])
    X = V.copy()
    correction = np.zeros_like(X)
    previous = X
    for iteration in range(1, _MAX_DYKSTRA_ITERS + 1):
        Y = X - (A.T @ (gram_solve @ (A @ X.T - B))).T
        Z = Y + correction
        X = np.clip(Z, 0.0, 1.0)
        correction = Z - X
        residual = np.max(np.abs(A @ X.T - B), axis=0)
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
    raise RuntimeError("reference Dykstra hit the iteration cap")
