import hashlib
import os
import sys

import numpy as np
import pytest

from privroute import flow_polytope
from privroute.flow_polytope import (
    FlowProjector,
    ProjectionConvergenceError,
    UnreachablePairError,
    all_pairs_distances,
    decompose_flow,
    initial_shortest_path_policy,
    kept_vertex_rows,
    pair_index,
    project_unit_flow,
    reachability,
    shortest_path_flow,
    shortest_path_tree,
)
from privroute.baseline import frank_wolfe_solve
from privroute.net_model import Network
from privroute.objective import total_edge_flow
from conftest import (
    conservation_residual,
    conservation_rhs,
    dykstra_reference,
    enumerate_simple_paths,
    integer_grid,
    make_random_network,
    qp_projection_oracle,
    random_policy,
    random_unit_flow,
    reconstruct,
    tuple_shortest_path_policy,
    tuple_shortest_path_tree,
)


def test_projection_feasible_point_unchanged(triangle):
    x = np.array([0.25, 0.25, 0.75])  # on the (1,3) flow line
    out = project_unit_flow(x, (0, 2), triangle, tol=1e-10)
    assert np.max(np.abs(out - x)) < 1e-12


def test_projection_triangle_matches_oracle(triangle):
    v = np.array([1.0, 0.0, 0.0])
    out = project_unit_flow(v, (0, 2), triangle, tol=1e-10)
    oracle = qp_projection_oracle(v, (0, 2), triangle)
    assert np.linalg.norm(out - oracle) < 1e-6
    # closed form: the polytope is {(a, a, 1-a)}, minimized at a = 2/3
    assert out == pytest.approx([2 / 3, 2 / 3, 1 / 3], abs=1e-9)


def test_projection_single_point_polytope(two_node):
    for v in ([0.0], [5.0], [-2.0]):
        out = project_unit_flow(np.array(v), (0, 1), two_node, tol=1e-10)
        assert out == pytest.approx([1.0], abs=1e-9)


def test_projection_idempotent_and_nonexpansive(diamond4):
    rng = np.random.default_rng(0)
    projector = FlowProjector(diamond4)
    for _ in range(20):
        u = rng.normal(size=diamond4.edge_count)
        v = rng.normal(size=diamond4.edge_count)
        pu = projector.project_rows(u[None, :], [(0, 3)], tol=1e-10)[0]
        pv = projector.project_rows(v[None, :], [(0, 3)], tol=1e-10)[0]
        ppu = projector.project_rows(pu[None, :], [(0, 3)], tol=1e-10)[0]
        assert np.linalg.norm(ppu - pu) < 1e-10
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9


def test_projection_unreachable_pair_raises(triangle):
    with pytest.raises(UnreachablePairError):
        project_unit_flow(np.zeros(3), (2, 0), triangle, tol=1e-8)


def test_project_policy_blockwise_equals_per_block(diamond4):
    rng = np.random.default_rng(1)
    projector = FlowProjector(diamond4)
    x = rng.normal(scale=0.6, size=(16, diamond4.edge_count))
    out = projector.project_policy(x, tol=1e-9)
    for o in range(4):
        for d in range(4):
            block = pair_index(o, d, 4)
            if o == d:
                assert np.all(out[block] == 0)
            else:
                single = projector.project_rows(x[block][None, :], [(o, d)], tol=1e-9)[0]
                assert np.linalg.norm(out[block] - single) < 1e-7


def test_project_policy_zero_noise_identity(diamond4):
    rng = np.random.default_rng(2)
    x = random_policy(diamond4, rng)
    out = FlowProjector(diamond4).project_policy(x, tol=1e-10)
    assert np.max(np.abs(out - x)) < 1e-9


def test_project_policy_noisy_residuals_within_tol(diamond4):
    rng = np.random.default_rng(3)
    x = random_policy(diamond4, rng) + rng.normal(scale=0.3, size=(16, diamond4.edge_count))
    out = FlowProjector(diamond4).project_policy(x, tol=1e-8)
    for o in range(4):
        for d in range(4):
            if o == d:
                continue
            res = conservation_residual(out[pair_index(o, d, 4)], (o, d), diamond4)
            assert res <= 1e-8
    assert np.min(out) >= -1e-12 and np.max(out) <= 1 + 1e-12


def _routable_rows(projector):
    n = projector.network.node_count
    pairs = projector.routable_pairs()
    return pairs, [pair_index(o, d, n) for o, d in pairs]


def _noisy_policies(sioux_falls):
    # a noisy Sioux Falls policy and a noisy random 7-node one
    rng = np.random.default_rng(4)
    sioux = sioux_falls.network
    random_net = make_random_network(rng, 7)
    sioux_x = initial_shortest_path_policy(sioux)
    random_x = random_policy(random_net, rng)
    return [
        (sioux, sioux_x + rng.normal(scale=1e-2, size=sioux_x.shape)),
        (random_net, random_x + rng.normal(scale=0.3, size=random_x.shape)),
    ]


def _assert_reduced_residuals_within(out, pairs, network, tol):
    # the stopping rule's residual: the equations of all nodes but the last
    n = network.node_count
    A = network.incidence_matrix()[: n - 1]
    for od, block in zip(pairs, out):
        assert np.max(np.abs(A @ block - conservation_rhs(od, n)[: n - 1])) <= tol


def test_dual_projection_matches_primal_dykstra(sioux_falls, monkeypatch):
    # the plain dual iteration produces Dykstra's iterates: same points up to
    # rounding, hence the same freeze decisions
    monkeypatch.setattr(flow_polytope, "_MOMENTUM_AFTER", flow_polytope._MAX_DYKSTRA_ITERS)
    tol = 1e-8
    for network, x in _noisy_policies(sioux_falls):
        projector = FlowProjector(network)
        pairs, rows = _routable_rows(projector)
        out = projector.project_rows(x[rows], pairs, tol=tol)
        reference = dykstra_reference(x[rows], pairs, network, tol)
        assert np.max(np.abs(out - reference)) <= 1e-12
        _assert_reduced_residuals_within(out, pairs, network, tol)


def test_momentum_projection_closer_than_plain_dykstra(sioux_falls, monkeypatch):
    # both outputs are exact projections for the right-hand side they reach;
    # the momentum phase ends nearer the true projection at the same tol
    tol = 1e-8
    for network, x in _noisy_policies(sioux_falls):
        projector = FlowProjector(network)
        pairs, rows = _routable_rows(projector)
        out = projector.project_rows(x[rows], pairs, tol=tol)
        exact = projector.project_rows(x[rows], pairs, tol=1e-13)
        reference = dykstra_reference(x[rows], pairs, network, tol)
        assert np.max(np.abs(out - exact)) <= np.max(np.abs(reference - exact))
        _assert_reduced_residuals_within(out, pairs, network, tol)
        with monkeypatch.context() as plain:
            plain.setattr(flow_polytope, "_MOMENTUM_AFTER", flow_polytope._MAX_DYKSTRA_ITERS)
            assert not np.array_equal(out, projector.project_rows(x[rows], pairs, tol=tol))


def _noisy_sioux_policy(sioux_falls):
    # a noisy Sioux Falls policy with its projector, routable pairs and rows
    network = sioux_falls.network
    projector = FlowProjector(network)
    pairs, rows = _routable_rows(projector)
    x = initial_shortest_path_policy(network)
    return projector, pairs, rows, x + np.random.default_rng(4).normal(scale=1e-2, size=x.shape)


@pytest.mark.parametrize("tol", [1e-6, 1e-8])  # the step and release tolerances
def test_dropped_node_residual_within_n_minus_1_tol(sioux_falls, tol):
    # the stopping rule reads the n - 1 reduced equations; the last node's
    # net-inflow error is minus their sum, so it is held to (n - 1) * tol
    projector, pairs, rows, x = _noisy_sioux_policy(sioux_falls)
    network = projector.network
    n = network.node_count
    out = projector.project_rows(x[rows], pairs, tol=tol)
    A = network.incidence_matrix()[: n - 1]
    for od, block in zip(pairs, out):
        assert np.max(np.abs(A @ block - conservation_rhs(od, n)[: n - 1])) <= tol
        assert conservation_residual(block, od, network) <= (n - 1) * tol


def test_chunked_projection_matches_reference(sioux_falls, monkeypatch):
    projector, pairs, rows, x = _noisy_sioux_policy(sioux_falls)
    V = x[rows]
    tol = 1e-8
    whole = projector.project_rows(V, pairs, tol=tol)
    # 552 rows in chunks of 100: five full chunks and a short one
    monkeypatch.setattr(flow_polytope, "_CHUNK_BYTES", 100 * x.shape[1] * x.itemsize)
    chunked = projector.project_policy(x, tol=tol)[rows]
    # momentum is kept per row, so chunking moves no row
    assert np.max(np.abs(chunked - whole)) <= 1e-15
    monkeypatch.setattr(flow_polytope, "_MOMENTUM_AFTER", flow_polytope._MAX_DYKSTRA_ITERS)
    plain = projector.project_rows(V, pairs, tol=tol)
    reference = dykstra_reference(V, pairs, projector.network, tol)
    assert np.max(np.abs(plain - reference)) <= 1e-12


def test_project_policy_chunks_match_project_rows(sioux_falls, monkeypatch):
    # project_policy hands project_rows one chunk at a time: bit for bit the
    # scatter of one project_rows call per chunk, and within rounding of one
    # call on all routable rows, whose BLAS batch shapes differ
    projector, pairs, rows, x = _noisy_sioux_policy(sioux_falls)
    kept = x.copy()
    whole = np.zeros_like(x)
    whole[rows] = projector.project_rows(x[rows], pairs, tol=1e-8)
    # 552 rows in chunks of 100: five full chunks and a short one
    monkeypatch.setattr(flow_polytope, "_CHUNK_BYTES", 100 * x.shape[1] * x.itemsize)
    expected = np.zeros_like(x)
    for start in range(0, len(rows), 100):
        chunk = rows[start : start + 100]
        expected[chunk] = projector.project_rows(x[chunk], pairs[start : start + 100], tol=1e-8)
    out = projector.project_policy(x, tol=1e-8)
    assert np.array_equal(out, expected)
    assert np.max(np.abs(out - whole)) <= 1e-15
    assert np.array_equal(x, kept)


def test_project_rows_returns_feasible_rows_without_iterating(sioux_falls, monkeypatch):
    # exactly feasible rows (0/1 paths and an exact half-half mix) come back
    # as they are; the other rows run as the batch a call without them runs
    projector, pairs, rows, x = _noisy_sioux_policy(sioux_falls)
    pairs, rows = np.array(pairs), np.array(rows)
    x0 = initial_shortest_path_policy(sioux_falls.network)
    mixed = x[rows]
    feasible = np.arange(0, len(rows), 3)
    mixed[feasible] = x0[rows[feasible]]
    # a second path, cheapest under reversed free-flow times, on the first
    # pair where it differs
    other = initial_shortest_path_policy(
        sioux_falls.network, sioux_falls.network.free_flow_time[::-1].copy())
    split = next(i for i in range(1, len(rows), 3) if (other[rows[i]] != x0[rows[i]]).any())
    mixed[split] = 0.5 * (x0[rows[split]] + other[rows[split]])
    feasible = np.union1d(feasible, [split])
    others = np.setdiff1d(np.arange(len(rows)), feasible)
    out = projector.project_rows(mixed, pairs, tol=1e-8)
    assert np.array_equal(out[feasible], mixed[feasible])
    assert np.array_equal(out[others], projector.project_rows(mixed[others], pairs[others], tol=1e-8))
    # one row among feasible ones runs as a call with it alone does, whose
    # residual comes from a one-row product
    for i in others[:12]:
        batch = np.union1d(feasible, [i])
        out = projector.project_rows(mixed[batch], pairs[batch], tol=1e-8)
        assert np.array_equal(out[batch == i], projector.project_rows(mixed[[i]], pairs[[i]], tol=1e-8))
    # no row can freeze in one iteration, so with a cap of one only a batch
    # of feasible rows returns
    monkeypatch.setattr(flow_polytope, "_MAX_DYKSTRA_ITERS", 1)
    kept = projector.project_rows(mixed[feasible], pairs[feasible], tol=1e-8)
    assert np.array_equal(kept, mixed[feasible])
    with pytest.raises(ProjectionConvergenceError):
        projector.project_rows(mixed, pairs, tol=1e-8)


def test_project_rows_returns_a_batch_of_feasible_rows_unchanged(sioux_falls):
    # with overwrite_V the result is V itself, without it a new array; V
    # holds its rows either way
    projector = FlowProjector(sioux_falls.network)
    pairs, rows = _routable_rows(projector)
    paths = initial_shortest_path_policy(sioux_falls.network)[rows]
    for overwrite_V in (False, True):
        V = paths.copy()
        out = projector.project_rows(V, pairs, overwrite_V=overwrite_V)
        assert np.array_equal(out, paths) and np.array_equal(V, paths)
        assert np.shares_memory(out, V) == overwrite_V


def test_project_rows_names_a_non_finite_row_among_feasible_rows(sioux_falls):
    # feasible rows are checked by the box test alone, and a row that fails
    # it is checked for finiteness: the first bad pair is still named, alone
    # among feasible rows or beside a row that iterates
    projector = FlowProjector(sioux_falls.network)
    pairs, rows = _routable_rows(projector)
    paths = initial_shortest_path_policy(sioux_falls.network)[rows]
    o, d = pairs[9]
    for moved in ([], [3], [3, 30]):
        for overwrite_V in (False, True):
            V = paths.copy()
            V[moved, 0] = 0.5
            V[9, 3] = np.nan
            if moved:
                V[20, 1] = np.inf
            with pytest.raises(ValueError, match=rf"non-finite entry in the row of pair \({o + 1}, {d + 1}\)"):
                projector.project_rows(V, pairs, overwrite_V=overwrite_V)


def test_project_rows_names_an_unreachable_pair_before_a_non_finite_row(triangle):
    # triangle: 1 -> 2 -> 3 and 1 -> 3, so no path leads back to 1
    projector = FlowProjector(triangle)
    V = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(UnreachablePairError, match="no path from 3 to 1"):
        projector.project_rows(V, [(0, 1), (0, 1), (0, 2), (2, 0)])


@pytest.mark.parametrize(
    "od, shown",
    [((-1, 2), "(0, 3)"), ((0, -1), "(1, 0)"), ((-3, 2), "(-2, 3)"), ((0, 3), "(1, 4)")],
    ids=["minus-1-to-3", "1-to-minus-1", "minus-3-to-3", "1-to-4"],
)
def test_project_unit_flow_rejects_a_node_outside_the_network(triangle, od, shown):
    # a negative id would be read from the end of the array, so (-1, 2)
    # would be projected as the pair (3, 3)
    with pytest.raises(ValueError, match=rf"od endpoints \{shown[:-1]}\) must lie in 1\.\.3"):
        project_unit_flow(np.full(3, 0.5), od, triangle)


def test_project_rows_names_the_first_pair_outside_the_network(triangle):
    # in row order, before the unreachable pair (3, 1) of the last row
    V = np.full((4, 3), 0.5)
    with pytest.raises(ValueError, match=r"\(1, 4\) must lie in 1\.\.3"):
        FlowProjector(triangle).project_rows(V, [(0, 2), (0, 3), (-1, 0), (2, 0)])


@pytest.mark.parametrize("source", [-1, 3])
def test_shortest_path_tree_rejects_a_source_outside_the_network(triangle, source):
    with pytest.raises(ValueError, match=rf"source {source + 1} is not a node in 1\.\.3"):
        shortest_path_tree(source, triangle.free_flow_time, triangle)


@pytest.mark.parametrize(
    "od, shown", [((-1, 2), "(0, 3)"), ((0, 3), "(1, 4)")], ids=["minus-1-to-3", "1-to-4"])
def test_shortest_path_flow_rejects_a_node_outside_the_network(triangle, od, shown):
    # (-1, 2) walked back from node 2 toward node -1, which it never reaches
    with pytest.raises(ValueError, match=rf"\{shown[:-1]}\) must lie in 1\.\.3"):
        shortest_path_flow(od, triangle.free_flow_time, triangle)


def test_all_pairs_distances_match_dijkstra():
    rng = np.random.default_rng(12)
    for _ in range(5):
        net = make_random_network(rng, int(rng.integers(3, 9)))
        costs = rng.uniform(0.0, 2.0, net.edge_count)
        dist = all_pairs_distances(costs, net)
        for o in range(net.node_count):
            assert np.allclose(dist[o], shortest_path_tree(o, costs, net)[0], rtol=1e-12)


def _diamond(costs):
    # edges 0 -> 1 -> 3 and 0 -> 2 -> 3, plus 1 -> 2 and 2 -> 1 between them
    edges = [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2), (2, 1)]
    return Network(
        node_count=4, tails=[e[0] for e in edges], heads=[e[1] for e in edges],
        free_flow_time=costs, capacity=[1.0] * len(edges),
    )


def _vertex_step(net, path, rate, alpha):
    """Whether kept_vertex_rows keeps row (0, 3) of a policy holding the 0/1
    row path, with the (0, 3) rate and free-flow edge costs, and the exact
    projection of the step p - g at that row, g = rate * costs + alpha * p."""
    costs = net.free_flow_time
    X = np.zeros((16, net.edge_count))
    p = np.zeros(net.edge_count)
    p[list(path)] = 1.0
    X[3] = p
    demand = np.zeros((4, 4))
    demand[0, 3] = rate
    kept = kept_vertex_rows(X, demand, costs, alpha, net)
    step = p - (rate * costs + alpha * p)
    moved = FlowProjector(net).project_rows(step[None], [(0, 3)], tol=1e-12)
    return kept.tolist() == [3], moved[0], p


def test_kept_vertex_row_is_its_projection():
    # 0 -> 1 -> 3 costs 2, 0 -> 2 -> 3 costs 2.1, 0 -> 1 -> 2 -> 3 costs 3:
    # a margin of 0.1 holds the path against alpha |p| = 0.02
    kept, moved, p = _vertex_step(_diamond([1.0, 1.0, 1.1, 1.0, 1.0, 1.0]), [0, 1], 1.0, 0.01)
    assert kept
    assert np.max(np.abs(moved - p)) <= 1e-12


@pytest.mark.parametrize(
    "costs, path, rate, alpha",
    [
        # a free-flow tie: 0 -> 2 -> 3 is as cheap, so node 3 has two tight in-edges
        ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [0, 1], 1.0, 0.01),
        # the margin 0.1 does not hold the path against alpha |p| = 2
        ([1.0, 1.0, 1.1, 1.0, 1.0, 1.0], [0, 1], 1.0, 1.0),
        # no demand that day: only the regularizer acts, and it spreads the row
        ([1.0, 1.0, 1.1, 1.0, 1.0, 1.0], [0, 1], 0.0, 0.01),
        # a 0/1 row carrying the cycle 1 -> 2 -> 1 beside its path: 2 -> 1 is not tight
        ([1.0, 1.0, 3.0, 1.0, 1.0, 1.0], [0, 1, 4, 5], 1.0, 0.01),
    ],
    ids=["tie", "margin", "no-demand", "cycle"],
)
def test_vertex_row_that_moves_is_not_kept(costs, path, rate, alpha):
    # each case breaks one condition of the certificate, and its step
    # really leaves the vertex
    kept, moved, p = _vertex_step(_diamond(costs), path, rate, alpha)
    assert not kept
    assert np.max(np.abs(moved - p)) > 1e-3


def test_kept_vertex_rows_gathered_match_the_whole_policy_product(sioux_falls):
    # Sioux Falls x0 at day-like demand: its 552 0/1 rows take the product
    # over the whole policy; with all but every 12th row zeroed, the rows
    # left are gathered. They keep what the whole policy keeps of them
    network = sioux_falls.network
    n = network.node_count
    _, rows = _routable_rows(FlowProjector(network))
    X = initial_shortest_path_policy(network)
    demand = np.random.default_rng(3).uniform(0.0, 0.2, (n, n))
    costs = 2.0 * network.free_flow_time
    whole = kept_vertex_rows(X, demand, costs, 0.05, network)
    few = rows[::12]
    X_few = np.zeros_like(X)
    X_few[few] = X[few]
    assert 8 * len(few) < n * n <= 8 * len(rows)
    expected = whole[np.isin(whole, few)]
    assert 0 < expected.size < len(few)
    assert np.array_equal(kept_vertex_rows(X_few, demand, costs, 0.05, network), expected)


def test_kept_vertex_rows_without_a_0_1_row_skip_the_distances(sioux_falls, monkeypatch):
    # a policy with no 0/1 row keeps none, and computes no distance matrix
    network = sioux_falls.network
    n = network.node_count
    X = initial_shortest_path_policy(network)
    X[X == 1.0] = 0.75
    monkeypatch.setattr(flow_polytope, "all_pairs_distances", None)
    kept = kept_vertex_rows(X, np.ones((n, n)), network.free_flow_time, 0.05, network)
    assert kept.size == 0 and kept.dtype == np.intp


def test_vertex_row_with_a_free_cycle_through_its_origin_is_not_kept():
    # 0 -> 3 plus the zero-cost cycle 0 -> 1 -> 0: every edge of the row is
    # on a zero reduced cost, but an edge into the origin lies on no simple
    # path from it, and the cycle only adds regularization cost
    edges = [(0, 3), (0, 1), (1, 0), (1, 3)]
    net = Network(
        node_count=4, tails=[e[0] for e in edges], heads=[e[1] for e in edges],
        free_flow_time=[1.0, 0.0, 0.0, 5.0], capacity=[1.0] * 4,
    )
    kept, moved, p = _vertex_step(net, [0, 1, 2], 1.0, 0.01)
    assert not kept
    assert np.max(np.abs(moved - p)) > 1e-3
    kept, moved, p = _vertex_step(net, [0], 1.0, 0.01)
    assert kept
    assert np.max(np.abs(moved - p)) <= 1e-12


def test_project_policy_on_edgeless_network():
    # no edge and no routable pair: one empty chunk, and no division by m
    network = Network(node_count=3, tails=[], heads=[], free_flow_time=[], capacity=[])
    assert FlowProjector(network).project_policy(np.zeros((9, 0))).shape == (9, 0)


def test_project_policy_convergence_error_aggregates_chunks(diamond4, monkeypatch):
    # the noisy rows of test_convergence_error_names_unconverged_pairs, none
    # of which settles in two iterations, with every even row replaced by a
    # feasible one, which does: one error for the whole policy, naming the
    # stuck odd rows of every chunk
    monkeypatch.setattr(flow_polytope, "_MAX_DYKSTRA_ITERS", 2)
    projector = FlowProjector(diamond4)
    pairs, rows = _routable_rows(projector)
    x = np.random.default_rng(6).normal(scale=0.6, size=(16, diamond4.edge_count))
    x[rows[::2]] = random_policy(diamond4, np.random.default_rng(7))[rows][::2]
    kept = x.copy()
    stuck = pairs[1::2]
    with pytest.raises(ProjectionConvergenceError) as whole:
        projector.project_policy(x, tol=1e-12)
    monkeypatch.setattr(flow_polytope, "_CHUNK_BYTES", 3 * x.shape[1] * x.itemsize)
    with pytest.raises(ProjectionConvergenceError) as chunked:
        projector.project_policy(x, tol=1e-12)
    for err in (whole.value, chunked.value):
        assert err.iterations == 2
        assert err.unconverged == len(stuck)
        assert err.pairs == tuple((o + 1, d + 1) for o, d in stuck[:5])
    assert chunked.value.residual == pytest.approx(whole.value.residual, rel=1e-12)
    assert np.array_equal(x, kept)


def test_project_policy_names_first_non_finite_pair(diamond4, monkeypatch):
    # checked chunk by chunk, the first bad pair in row order is still named
    projector = FlowProjector(diamond4)
    pairs, rows = _routable_rows(projector)
    x = random_policy(diamond4, np.random.default_rng(5))
    x[rows[7], 0] = np.nan
    x[rows[4], 2] = np.inf
    monkeypatch.setattr(flow_polytope, "_CHUNK_BYTES", 3 * x.shape[1] * x.itemsize)
    o, d = pairs[4]
    with pytest.raises(ValueError, match=rf"non-finite entry in the row of pair \({o + 1}, {d + 1}\)"):
        projector.project_policy(x)


def test_momentum_convergence_error_aggregates_chunks(sioux_falls, monkeypatch):
    # momentum from the second iteration, and a cap at which about a third
    # of the rows, spread over every chunk, are still active
    monkeypatch.setattr(flow_polytope, "_MOMENTUM_AFTER", 1)
    monkeypatch.setattr(flow_polytope, "_MAX_DYKSTRA_ITERS", 40)
    projector, pairs, _, x = _noisy_sioux_policy(sioux_falls)
    with pytest.raises(ProjectionConvergenceError) as whole:
        projector.project_policy(x, tol=1e-8)
    monkeypatch.setattr(flow_polytope, "_CHUNK_BYTES", 100 * x.shape[1] * x.itemsize)
    with pytest.raises(ProjectionConvergenceError) as chunked:
        projector.project_policy(x, tol=1e-8)
    assert 0 < whole.value.unconverged < len(pairs)
    assert chunked.value.iterations == whole.value.iterations == 40
    assert chunked.value.unconverged == whole.value.unconverged
    assert chunked.value.pairs == whole.value.pairs
    assert chunked.value.residual == pytest.approx(whole.value.residual, rel=1e-12)


def test_project_policy_convergence_error_aggregates_chunks_at_two_workers(diamond4, monkeypatch):
    monkeypatch.setattr(flow_polytope, "_chunk_workers", lambda: 2)
    test_project_policy_convergence_error_aggregates_chunks(diamond4, monkeypatch)


def test_project_policy_names_first_non_finite_pair_at_two_workers(diamond4, monkeypatch):
    # the later chunk's NaN may be seen first; the first bad row is still named
    monkeypatch.setattr(flow_polytope, "_chunk_workers", lambda: 2)
    test_project_policy_names_first_non_finite_pair(diamond4, monkeypatch)


def test_momentum_convergence_error_aggregates_chunks_at_two_workers(sioux_falls, monkeypatch):
    monkeypatch.setattr(flow_polytope, "_chunk_workers", lambda: 2)
    test_momentum_convergence_error_aggregates_chunks(sioux_falls, monkeypatch)


def test_project_policy_threads_match_one_thread(sioux_falls, monkeypatch):
    # more threads than cores, 23 chunks and a short switch interval: every
    # chunk is projected once, into its own rows, bit for bit as on one thread
    projector, _, _, x = _noisy_sioux_policy(sioux_falls)
    monkeypatch.setattr(flow_polytope, "_CHUNK_BYTES", 24 * x.shape[1] * x.itemsize)
    monkeypatch.setattr(flow_polytope, "_chunk_workers", lambda: 1)
    serial = projector.project_policy(x, tol=1e-6)
    monkeypatch.setattr(flow_polytope, "_chunk_workers", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [projector.project_policy(x, tol=1e-6) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for out in threaded:
        assert np.array_equal(out, serial)


def test_one_chunk_policy_stays_on_the_calling_thread(sioux_falls, monkeypatch):
    # Sioux Falls fits one chunk: at two workers no pool is made for it
    def no_pool(threads):
        raise AssertionError("a one-chunk policy left the calling thread")

    monkeypatch.setattr(flow_polytope, "_chunk_workers", lambda: 2)
    monkeypatch.setattr(flow_polytope, "_chunk_pool", no_pool)
    projector, pairs, rows, x = _noisy_sioux_policy(sioux_falls)
    out = projector.project_policy(x, tol=1e-6)
    assert np.array_equal(out[rows], projector.project_rows(x[rows], pairs, tol=1e-6))


@pytest.mark.parametrize(
    "env, workers",
    [
        ({}, 1),  # OpenBLAS runs one thread per CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({"OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "one"}, 1),
        ({"OPENBLAS_NUM_THREADS": "64"}, 1),
    ],
    ids=["unset", "openblas", "omp", "openblas-first", "first-integer", "zero", "word", "oversized"],
)
def test_chunk_workers_leave_blas_its_cpus(env, workers, monkeypatch):
    # two CPUs, divided by the threads OpenBLAS reads from the environment
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert flow_polytope._chunk_workers() == workers


def test_project_rows_empty_input(diamond4):
    out = FlowProjector(diamond4).project_rows(np.empty((0, diamond4.edge_count)), [])
    assert out.shape == (0, diamond4.edge_count)


def test_project_rows_rejects_non_finite_input(diamond4):
    projector = FlowProjector(diamond4)
    pairs, rows = _routable_rows(projector)
    x = random_policy(diamond4, np.random.default_rng(5))[rows]
    x[4, 2] = np.inf
    x[7, 0] = np.nan
    o, d = pairs[4]
    with pytest.raises(ValueError, match=rf"non-finite entry in the row of pair \({o + 1}, {d + 1}\)"):
        projector.project_rows(x, pairs)
    x[4, 2] = 0.0
    o, d = pairs[7]
    with pytest.raises(ValueError, match=rf"pair \({o + 1}, {d + 1}\)"):
        projector.project_rows(x, pairs)


def test_convergence_error_names_unconverged_pairs(diamond4, monkeypatch):
    monkeypatch.setattr(flow_polytope, "_MAX_DYKSTRA_ITERS", 2)
    projector = FlowProjector(diamond4)
    pairs, rows = _routable_rows(projector)
    rng = np.random.default_rng(6)
    x = rng.normal(scale=0.6, size=(16, diamond4.edge_count))
    with pytest.raises(ProjectionConvergenceError) as caught:
        projector.project_rows(x[rows], pairs, tol=1e-12)
    err = caught.value
    assert err.iterations == 2
    assert err.unconverged == len(pairs)  # no block settles in two iterations
    first = tuple((o + 1, d + 1) for o, d in pairs[:5])
    assert err.pairs == first
    shown = ", ".join(f"({o}, {d})" for o, d in first)
    assert f"{len(pairs)} unconverged pairs: {shown}, ..." in str(err)


def test_shortest_path_flow_triangle_examples(triangle):
    assert np.array_equal(
        shortest_path_flow((0, 2), np.array([1.0, 1.0, 3.0]), triangle), [1.0, 1.0, 0.0]
    )
    assert np.array_equal(
        shortest_path_flow((0, 2), np.array([1.0, 1.0, 1.0]), triangle), [0.0, 0.0, 1.0]
    )
    with pytest.raises(UnreachablePairError):
        shortest_path_flow((2, 0), np.ones(3), triangle)
    with pytest.raises(ValueError):
        shortest_path_flow((0, 2), np.array([-1.0, 1.0, 1.0]), triangle)


def test_shortest_path_flow_vs_enumeration():
    rng = np.random.default_rng(4)
    for trial in range(25):
        net = make_random_network(rng, 6, extra_edges=4)
        costs = rng.uniform(0.1, 5.0, size=net.edge_count)
        o, d = 0, 3
        flow = shortest_path_flow((o, d), costs, net)
        assert set(np.unique(flow)).issubset({0.0, 1.0})
        assert conservation_residual(flow, (o, d), net) == 0.0
        returned_cost = float(costs @ flow)
        best = min(sum(costs[e] for e in path) for path in enumerate_simple_paths(net, o, d))
        assert returned_cost <= best + 1e-12


def test_shortest_path_lexicographic_tie_break():
    # two equal-cost 1->3 routes; the smaller edge-index sequence wins
    net = make_random_network(np.random.default_rng(0), 4, extra_edges=0)
    costs = np.ones(net.edge_count)
    flow = shortest_path_flow((0, 2), costs, net)
    expected = np.zeros(net.edge_count)
    expected[[net.edge_index(0, 1), net.edge_index(1, 2)]] = 1.0
    assert np.array_equal(flow, expected)


def test_diameter_bound_on_random_pairs(diamond4):
    rng = np.random.default_rng(5)
    n, m = diamond4.node_count, diamond4.edge_count
    for _ in range(20):
        a = random_policy(diamond4, rng)
        b = random_policy(diamond4, rng)
        assert np.linalg.norm(a - b) <= n * np.sqrt(m) + 1e-9


def test_decompose_triangle_split(triangle):
    dist = decompose_flow(np.array([0.5, 0.5, 0.5]), (0, 2), triangle)
    recon = reconstruct(dist)
    assert dict(zip(dist.paths, dist.weights)) == {(0, 1): pytest.approx(0.5), (2,): pytest.approx(0.5)}
    assert np.sum(dist.circulation) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(recon - [0.5, 0.5, 0.5])) < 1e-12


def test_decompose_vertex_is_single_path(triangle):
    dist = decompose_flow(np.array([1.0, 1.0, 0.0]), (0, 2), triangle)
    assert len(dist.paths) == 1
    assert dist.weights[0] == pytest.approx(1.0)


def test_decompose_random_flows_reconstruct():
    rng = np.random.default_rng(6)
    for _ in range(20):
        net = make_random_network(rng, 6, extra_edges=4)
        x = random_unit_flow(net, (0, 4), rng)
        dist = decompose_flow(x, (0, 4), net)
        assert abs(sum(dist.weights) - 1.0) < 1e-9
        assert np.max(np.abs(reconstruct(dist) - x)) < 1e-9
        assert len(dist.paths) <= net.edge_count
        for path in dist.paths:
            assert net.tails[path[0]] == 0
            assert net.heads[path[-1]] == 4
            visited = [net.tails[path[0]]] + [net.heads[e] for e in path]
            assert len(visited) == len(set(visited))  # simple path


def test_decompose_reports_circulation():
    # unit path flow plus a 2-cycle off the path: peel keeps the unit,
    # reports the cycle mass separately
    net = make_random_network(np.random.default_rng(1), 4, extra_edges=0)
    x = np.zeros(net.edge_count)
    x[[net.edge_index(0, 1), net.edge_index(1, 2)]] = 1.0
    x[[net.edge_index(2, 3), net.edge_index(3, 2)]] = 0.4
    dist = decompose_flow(x, (0, 2), net)
    assert abs(sum(dist.weights) - 1.0) < 1e-9
    assert np.sum(dist.circulation) == pytest.approx(0.8)


def test_initial_shortest_path_policy(triangle):
    x = initial_shortest_path_policy(triangle)
    assert np.array_equal(x[pair_index(0, 2, 3)], [1.0, 1.0, 0.0])  # cost 2 beats 3
    assert np.all(x[pair_index(2, 0, 3)] == 0)  # unreachable stays zero
    assert np.all(x[pair_index(0, 0, 3)] == 0)


def assert_support_is_policy(network, costs, policy):
    """The support walk lists each nonzero entry of the all-or-nothing policy
    exactly once: Frank-Wolfe reads ||S||^2 as its length."""
    rows, edges = flow_polytope._tree_support(network, np.asarray(costs, dtype=float))
    scattered = np.zeros_like(policy)
    np.add.at(scattered, (rows, edges), 1.0)
    assert np.array_equal(scattered, policy)


def assert_matches_tuple_dijkstra(network, costs):
    """Trees, pair flows and the all-or-nothing policy are bitwise those of
    the tuple-sequence reference, from every source."""
    n, m = network.node_count, network.edge_count
    policy = initial_shortest_path_policy(network, costs)
    assert np.array_equal(policy, tuple_shortest_path_policy(network, costs))
    assert_support_is_policy(network, costs, policy)
    for o in range(n):
        dist, pred_edge = shortest_path_tree(o, costs, network)
        ref_dist, ref_pred, sequences = tuple_shortest_path_tree(o, costs, network)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(pred_edge, ref_pred)
        for d in range(n):
            if d != o and np.isfinite(ref_dist[d]):
                expected = np.zeros(m)
                expected[list(sequences[d])] = 1.0
                assert np.array_equal(shortest_path_flow((o, d), costs, network), expected)


def test_shortest_paths_match_tuple_reference_on_sioux_falls(sioux_falls):
    # free-flow times, then the marginal costs 2 Q y + c of the first five
    # Frank-Wolfe iterates
    network, latency = sioux_falls.network, sioux_falls.latency
    assert_matches_tuple_dijkstra(network, network.free_flow_time)
    for iterations in range(5):
        X, _ = frank_wolfe_solve(
            sioux_falls.mean_demand, network, latency, gap_tol=1e-12, max_iters=iterations
        )
        costs = 2.0 * latency.slope * total_edge_flow(X, sioux_falls.mean_demand) + latency.free_flow
        assert_matches_tuple_dijkstra(network, costs)


def test_shortest_paths_match_tuple_reference_on_random_networks():
    rng = np.random.default_rng(11)
    net = make_random_network(rng, 9, extra_edges=8)
    assert_matches_tuple_dijkstra(net, net.free_flow_time)
    for _ in range(20):
        grid = integer_grid(int(rng.integers(2, 6)), rng)
        assert_matches_tuple_dijkstra(grid, grid.free_flow_time)


def test_shortest_paths_zero_cost_edge_settles_smaller_path_first():
    # nodes 1 and 2 both sit at distance 1 from node 0; the zero-cost edge
    # 2 -> 1 gives node 1 the path (e0, e2), smaller than (e1,), only if node
    # 2 is settled first although its index is larger
    net = Network(
        node_count=3, tails=[0, 0, 2], heads=[2, 1, 1],
        free_flow_time=[1.0, 1.0, 0.0], capacity=[1.0, 1.0, 1.0],
    )
    costs = net.free_flow_time
    assert np.array_equal(shortest_path_flow((0, 1), costs, net), [1.0, 0.0, 1.0])
    assert_matches_tuple_dijkstra(net, costs)


def test_initial_policy_digest_on_sioux_falls(sioux_falls):
    # pins x0 bit for bit: a change to the shortest-path code that moves it
    # must show here and be recorded
    x0 = initial_shortest_path_policy(sioux_falls.network)
    digest = hashlib.sha256(x0.astype("<f8").tobytes()).hexdigest()
    assert digest == "5e07b139c048a12264a5fec4d5155a6a3a0d293e3ff762ca0ba19edb430cf0ff"


def test_regularized_frank_wolfe_digest_on_sioux_falls(sioux_falls):
    # pins 15 alpha = 100 iterations, whose linear steps build one tree per
    # block, bit for bit: policy and (iteration, gap, cost) trace
    X, trace = frank_wolfe_solve(
        sioux_falls.mean_demand, sioux_falls.network, sioux_falls.latency,
        alpha=100.0, gap_tol=1e-300, max_iters=15,
    )
    assert len(trace) == 15
    digest = hashlib.sha256(X.astype("<f8").tobytes())
    digest.update(np.array(trace, dtype="<f8").tobytes())
    assert digest.hexdigest() == "22aba3c60efa7be9b994e77b575d33a8ff39ac374a9163dcb7430ebb474d6e66"


def bfs_reachability(network):
    """Brute-force oracle: one breadth-first search per source over an
    adjacency list built from the edge arrays."""
    n = network.node_count
    successors = [[] for _ in range(n)]
    for u, v in zip(network.tails.tolist(), network.heads.tolist()):
        successors[u].append(v)
    reach = np.zeros((n, n), dtype=bool)
    for source in range(n):
        reach[source, source] = True
        frontier = [source]
        while frontier:
            frontier = [v for u in frontier for v in successors[u] if not reach[source, v]]
            reach[source, frontier] = True
    return reach


def random_sparse_digraph(rng, n, m):
    """n nodes and up to m distinct directed edges drawn uniformly, no
    self-loops; the edge list may come out empty."""
    pairs = sorted({(int(u), int(v)) for u, v in rng.integers(n, size=(m, 2)) if u != v})
    return Network(
        node_count=n,
        tails=[u for u, _ in pairs],
        heads=[v for _, v in pairs],
        free_flow_time=np.ones(len(pairs)),
        capacity=np.ones(len(pairs)),
    )


def test_reachability_matches_bfs():
    # seeded sparse digraphs, most with unreachable pairs, then two components
    # with no edge between them: a one-way 3-path and a 2-cycle
    rng = np.random.default_rng(5)
    networks = []
    for _ in range(60):
        n = int(rng.integers(2, 20))
        networks.append(random_sparse_digraph(rng, n, int(rng.integers(1, 2 * n))))
    networks.append(Network(
        node_count=5, tails=[0, 1, 3, 4], heads=[1, 2, 4, 3],
        free_flow_time=np.ones(4), capacity=np.ones(4),
    ))
    unreachable = 0
    for net in networks:
        reach = reachability(net)
        assert reach.dtype == bool
        assert np.array_equal(reach, bfs_reachability(net))
        unreachable += int((~reach).sum())
    assert unreachable > 0
    expected = np.eye(5, dtype=bool)
    expected[0, [1, 2]] = expected[1, 2] = expected[3, 4] = expected[4, 3] = True
    assert np.array_equal(reach, expected)


def test_per_block_costs_match_per_pair_flows():
    # one cost row per block, integer valued so that paths tie and zero-cost
    # edges occur, on seeded sparse digraphs with unreachable pairs
    rng = np.random.default_rng(17)
    unreachable = 0
    for _ in range(30):
        n = int(rng.integers(2, 9))
        net = random_sparse_digraph(rng, n, int(rng.integers(1, 3 * n)))
        costs = rng.integers(0, 3, (n * n, net.edge_count)).astype(float)
        policy = initial_shortest_path_policy(net, costs)
        assert_support_is_policy(net, costs, policy)
        reach = reachability(net)
        for o in range(n):
            for d in range(n):
                row = pair_index(o, d, n)
                if o != d and reach[o, d]:
                    assert np.array_equal(policy[row], shortest_path_flow((o, d), costs[row], net))
                else:
                    unreachable += o != d
                    assert not policy[row].any()
    assert unreachable > 0


def test_conservation_rhs(triangle):
    b = conservation_rhs((0, 2), 3)
    assert np.array_equal(b, [-1.0, 0.0, 1.0])
