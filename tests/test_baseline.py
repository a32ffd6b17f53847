import tracemalloc

import numpy as np
import pytest

from privroute.baseline import detect_od_presence, frank_wolfe_solve, standard_feasible_flow
from privroute.flow_polytope import (
    FlowProjector,
    UnreachablePairError,
    initial_shortest_path_policy,
    pair_index,
)
from privroute.harness import ExperimentConfig, Pipeline
from privroute.net_model import LatencyModel, affine_latency_from
from privroute.objective import gradient, regularized_cost, travel_time_cost
from conftest import conservation_residual, dense_frank_wolfe, integer_grid, random_policy


def triangle_demand(rate=1.0):
    demand = np.zeros((3, 3))
    demand[0, 2] = rate
    return demand


def test_frank_wolfe_triangle_closed_form(triangle, triangle_latency):
    # with a unit of demand split a on the two-hop path, cost(a) = 3a^2 - 3a + 4,
    # minimized at a = 1/2 with value 13/4
    x, trace = frank_wolfe_solve(
        triangle_demand(), triangle, triangle_latency, alpha=0.0, gap_tol=1e-12, max_iters=10000
    )
    block = x[pair_index(0, 2, 3)]
    assert block == pytest.approx([0.5, 0.5, 0.5], abs=1e-6)
    assert travel_time_cost(x, triangle_demand(), triangle_latency) == pytest.approx(13 / 4, abs=1e-9)


def test_frank_wolfe_zero_demand(triangle, triangle_latency):
    x, trace = frank_wolfe_solve(
        np.zeros((3, 3)), triangle, triangle_latency, alpha=0.0, gap_tol=1e-9, max_iters=50
    )
    assert travel_time_cost(x, np.zeros((3, 3)), triangle_latency) == 0.0
    assert trace[-1][1] <= 1e-9


def test_frank_wolfe_gap_certificate(diamond4):
    # congested enough that the solver actually iterates before certifying
    lat = LatencyModel(slope=np.full(10, 0.3), free_flow=diamond4.free_flow_time)
    demand = np.zeros((4, 4))
    demand[0, 3] = 1.5
    demand[3, 0] = 1.0
    gap_tol = 1e-8
    x, trace = frank_wolfe_solve(demand, diamond4, lat, alpha=0.0, gap_tol=gap_tol, max_iters=50000)
    assert len(trace) > 3
    assert trace[-1][1] <= gap_tol
    # the gap upper-bounds suboptimality: every feasible point costs at least cost - gap
    rng = np.random.default_rng(0)
    cost = travel_time_cost(x, demand, lat)
    for _ in range(10):
        other = random_policy(diamond4, rng)
        assert travel_time_cost(other, demand, lat) >= cost - gap_tol - 1e-9


def test_frank_wolfe_regularized_matches_projected_gradient(diamond4):
    # independent projected-gradient solve as oracle on a small instance;
    # mild congestion keeps the regularized optimum in the relative interior,
    # where line-search Frank-Wolfe converges linearly
    lat = LatencyModel(slope=np.full(10, 0.01), free_flow=diamond4.free_flow_time)
    demand = np.zeros((4, 4))
    demand[0, 3] = 1.2
    demand[2, 1] = 0.7
    alpha = 0.5
    x_fw, trace = frank_wolfe_solve(demand, diamond4, lat, alpha=alpha, gap_tol=1e-11, max_iters=200000)
    assert trace[-1][1] <= 1e-11

    projector = FlowProjector(diamond4)
    x = initial_shortest_path_policy(diamond4)
    step = 0.05
    for _ in range(3000):
        x = projector.project_policy(x - step * gradient(x, demand, lat, alpha), tol=1e-10)
    c_fw = regularized_cost(x_fw, demand, lat, alpha)
    c_pg = regularized_cost(x, demand, lat, alpha)
    assert abs(c_fw - c_pg) / c_pg < 1e-6


def test_frank_wolfe_regularized_on_one_way_triangle(triangle, triangle_latency):
    # (2, 1), (3, 1) and (3, 2) have no path: their rows stay zero while the
    # three routable rows, demanded or not, stay unit flows
    demand = triangle_demand(1.0)
    demand[1, 2] = 0.5
    gap_tol = 1e-9
    x, trace = frank_wolfe_solve(
        demand, triangle, triangle_latency, alpha=0.5, gap_tol=gap_tol, max_iters=100000
    )
    assert trace[-1][1] <= gap_tol
    for o in range(3):
        for d in range(3):
            block = x[pair_index(o, d, 3)]
            if o < d:
                assert conservation_residual(block, (o, d), triangle) < 1e-12
                assert np.all((block >= 0.0) & (block <= 1.0))
            else:
                assert not block.any(), (o, d)


def test_frank_wolfe_unreachable_demand(triangle, triangle_latency):
    demand = np.zeros((3, 3))
    demand[2, 0] = 1.0  # no 3 -> 1 path in the triangle
    with pytest.raises(UnreachablePairError):
        frank_wolfe_solve(demand, triangle, triangle_latency, alpha=0.0, gap_tol=1e-6)


def test_frank_wolfe_names_first_unserved_pair(triangle, triangle_latency):
    # nodes 2 and 3 reach no earlier node; the first unserved pair in
    # row-major order is (2, 1), ahead of (3, 1), whatever the demand sizes
    demand = np.zeros((3, 3))
    demand[0, 2] = 1.0
    demand[2, 0] = 5.0
    demand[1, 0] = 0.5
    with pytest.raises(UnreachablePairError, match=r"^no path serves demanded pair \(2, 1\)$"):
        frank_wolfe_solve(demand, triangle, triangle_latency, alpha=0.0, gap_tol=1e-6)


def test_standard_feasible_flow_triangle(triangle):
    demand = triangle_demand(1.0 / 60.0)
    flows = standard_feasible_flow(demand, triangle)
    assert np.allclose(flows[pair_index(0, 2, 3)], np.array([1.0, 1.0, 0.0]) / 60.0)
    # conservation with demand scaling: net inflow at destination equals the rate
    A = triangle.incidence_matrix()
    residual = A @ flows[pair_index(0, 2, 3)]
    assert residual == pytest.approx([-1 / 60, 0.0, 1 / 60], abs=1e-15)
    assert np.all(standard_feasible_flow(np.zeros((3, 3)), triangle) == 0)


def test_standard_feasible_flow_names_first_unreachable_pair(triangle):
    # the one-way triangle has no path into node 1; (2, 1) precedes (3, 1)
    # in row-major order
    demand = np.zeros((3, 3))
    demand[2, 0] = demand[1, 0] = 1.0
    with pytest.raises(UnreachablePairError, match=r"^no path from 2 to 1$"):
        standard_feasible_flow(demand, triangle)


def test_detect_od_presence_triangle(triangle):
    demand = triangle_demand(1.0 / 60.0)
    flows = standard_feasible_flow(demand, triangle)
    assert detect_od_presence(flows, triangle, node=2)
    assert detect_od_presence(flows.sum(axis=0), triangle, node=2)
    empty = standard_feasible_flow(np.zeros((3, 3)), triangle)
    assert not detect_od_presence(empty, triangle, node=2)


def test_detect_od_presence_robust_to_circulations(diamond4):
    # adding circulations preserves node imbalances, so detection always fires
    rng = np.random.default_rng(1)
    demand = np.zeros((4, 4))
    demand[0, 3] = 0.5
    flows = standard_feasible_flow(demand, diamond4)
    total = flows.sum(axis=0)
    for _ in range(10):
        circ = np.zeros(diamond4.edge_count)
        # 2-cycles between node pairs are circulations
        u, v = rng.choice(4, size=2, replace=False)
        try:
            circ[[diamond4.edge_index(int(u), int(v)), diamond4.edge_index(int(v), int(u))]] = rng.uniform(0, 1)
        except KeyError:
            continue
        assert detect_od_presence(total + circ, diamond4, node=3)
        assert not detect_od_presence(total + circ, diamond4, node=1)


def test_frank_wolfe_cap_out_reports_gap(triangle, triangle_latency):
    x, trace = frank_wolfe_solve(
        triangle_demand(), triangle, triangle_latency, alpha=0.0, gap_tol=1e-14, max_iters=1
    )
    assert len(trace) == 1
    assert trace[-1][1] > 0  # gap reported even on cap-out


def diamond4_instance(diamond4):
    lat = LatencyModel(slope=np.full(10, 0.3), free_flow=diamond4.free_flow_time)
    demand = np.zeros((4, 4))
    demand[0, 3] = 1.5
    demand[3, 0] = 1.0
    demand[1, 2] = 0.7
    return demand, diamond4, lat


def grid_instance():
    # integer free-flow times and demands on a 3 x 3 grid: many exact ties
    rng = np.random.default_rng(3)
    grid = integer_grid(3, rng)
    lat = LatencyModel(slope=rng.integers(1, 4, grid.edge_count) / 10.0, free_flow=grid.free_flow_time)
    demand = rng.integers(0, 3, (9, 9)).astype(float)
    np.fill_diagonal(demand, 0.0)
    return demand, grid, lat


def assert_traces_close(trace, reference, rel):
    assert [row[0] for row in trace] == [row[0] for row in reference]
    assert np.allclose(np.array(trace)[:, 1:], np.array(reference)[:, 1:], rtol=rel, atol=0.0)


@pytest.mark.parametrize("case", ["sioux_falls", "grid", "diamond4"])
def test_frank_wolfe_matches_dense_reference(case, sioux_falls, diamond4):
    # the support form reads the gap, the line search and the cost from edge
    # flows; it must follow the dense loop's iterates and stop at the same
    # iteration under solve_baseline's relative tolerance
    if case == "sioux_falls":
        demand, network, latency = sioux_falls.mean_demand, sioux_falls.network, sioux_falls.latency
    elif case == "grid":
        demand, network, latency = grid_instance()
    else:
        demand, network, latency = diamond4_instance(diamond4)
    x, trace = frank_wolfe_solve(demand, network, latency, gap_tol=1e-300, max_iters=8)
    x_ref, trace_ref = dense_frank_wolfe(demand, network, latency, 0.0, 1e-300, 8)
    assert np.abs(x - x_ref).max() <= 1e-12
    assert_traces_close(trace, trace_ref, 1e-9)
    gap_tol = 1e-4 * travel_time_cost(initial_shortest_path_policy(network), demand, latency)
    _, trace = frank_wolfe_solve(demand, network, latency, gap_tol=gap_tol, max_iters=30000)
    _, trace_ref = dense_frank_wolfe(demand, network, latency, 0.0, gap_tol, 30000)
    assert len(trace) == len(trace_ref) > 1


def test_regularized_frank_wolfe_matches_dense_reference(sioux_falls, diamond4, triangle,
                                                         triangle_latency):
    # alpha = 100: the per-block linear steps tie on zero-demand blocks, whose
    # cost is alpha X[od] alone, so last-bit differences may pick another
    # vertex later on. The first iterates agree; after that both solves must
    # certify, and their bounds [cost - gap, cost] on the optimum must overlap
    # up to rounding.
    demand, network, latency = sioux_falls.mean_demand, sioux_falls.network, sioux_falls.latency
    x, trace = frank_wolfe_solve(demand, network, latency, alpha=100.0, gap_tol=1e-300, max_iters=3)
    x_ref, trace_ref = dense_frank_wolfe(demand, network, latency, 100.0, 1e-300, 3)
    assert np.abs(x - x_ref).max() <= 1e-12
    assert_traces_close(trace, trace_ref, 1e-12)
    gap_tol = 1e-9
    for demand, network, latency in [
        diamond4_instance(diamond4),
        (triangle_demand(), triangle, triangle_latency),
    ]:
        _, trace = frank_wolfe_solve(demand, network, latency, alpha=100.0, gap_tol=gap_tol,
                                     max_iters=100000)
        _, trace_ref = dense_frank_wolfe(demand, network, latency, 100.0, gap_tol, 100000)
        (_, gap, cost), (_, gap_ref, cost_ref) = trace[-1], trace_ref[-1]
        assert gap <= gap_tol and gap_ref <= gap_tol
        slack = 1e-12 * cost_ref  # a gap at the optimum rounds to +-1e-14 here
        assert cost - gap <= cost_ref + slack and cost_ref - gap_ref <= cost + slack


def test_frank_wolfe_leaves_x0_untouched(sioux_falls):
    # the solver updates its iterate in place; the caller's start, which the
    # Pipeline shares between scenarios, must not change
    x0 = initial_shortest_path_policy(sioux_falls.network)
    before = x0.tobytes()
    x, _ = frank_wolfe_solve(
        sioux_falls.mean_demand, sioux_falls.network, sioux_falls.latency,
        gap_tol=1e-300, max_iters=3, x0=x0,
    )
    assert x0.tobytes() == before and not np.array_equal(x, x0)
    pipeline = Pipeline(ExperimentConfig(n_days=2), sioux_falls)
    before = pipeline.x0.tobytes()
    dataset, _ = pipeline.sample()
    pipeline.baseline(dataset)
    assert pipeline.x0.tobytes() == before


@pytest.mark.parametrize(
    "scale, message",
    [
        (-1.0, r"^x0 violates the per-edge \[0, 1\] bounds$"),
        (3.0, r"^x0 violates the per-edge \[0, 1\] bounds$"),
        (0.5, r"^x0 block \(1, 2\) is not a unit flow$"),
        (np.nan, r"^x0 violates the per-edge \[0, 1\] bounds$"),
    ],
    ids=["negated", "tripled", "halved", "nan"],
)
def test_frank_wolfe_rejects_infeasible_start(sioux_falls, scale, message):
    # a negated start returned after one iteration with a negative cost, and
    # a tripled one ran all its iterations; a caller's start obeys the rule
    # that descend applies
    x0 = scale * initial_shortest_path_policy(sioux_falls.network)
    with pytest.raises(ValueError, match=message):
        frank_wolfe_solve(
            sioux_falls.mean_demand, sioux_falls.network, sioux_falls.latency,
            gap_tol=1e-6, max_iters=50, x0=x0,
        )


def _frank_wolfe_peak(sioux_falls, alpha):
    # tracemalloc peak of five Frank-Wolfe iterations, in policy arrays
    x0 = initial_shortest_path_policy(sioux_falls.network)
    tracemalloc.start()
    try:
        frank_wolfe_solve(
            sioux_falls.mean_demand, sioux_falls.network, sioux_falls.latency,
            alpha=alpha, gap_tol=1e-300, max_iters=5, x0=x0,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / x0.nbytes


def test_frank_wolfe_memory_is_one_policy_array(sioux_falls):
    # the iterate is the only policy-sized array the alpha = 0 loop holds; a
    # gradient, vertex or direction array would push the peak past 2.5
    assert _frank_wolfe_peak(sioux_falls, 0.0) <= 2.5


def test_regularized_frank_wolfe_memory(sioux_falls):
    # at alpha > 0 the per-block costs and their alpha X term are policy
    # sized; the trees read one cost row at a time, so neither a copy of
    # the off-diagonal rows nor a Python float per entry (10 arrays) is held
    assert _frank_wolfe_peak(sioux_falls, 100.0) <= 6.0


@pytest.mark.parametrize(
    "rate, message",
    [
        (np.nan, r"^demand of pair \(1, 3\) is nan, not a nonnegative finite rate$"),
        (-1.0, r"^demand of pair \(1, 3\) is -1.0, not a nonnegative finite rate$"),
        (np.inf, r"^demand of pair \(1, 3\) is inf, not a nonnegative finite rate$"),
    ],
)
def test_frank_wolfe_rejects_bad_demand(triangle, triangle_latency, rate, message):
    # a NaN rate ran every iteration to a trace of NaN gaps, and a negative
    # one reported a gap that certifies nothing; the first bad pair in
    # row-major order is named
    demand = triangle_demand(rate)
    demand[2, 1] = -2.0
    with pytest.raises(ValueError, match=message):
        frank_wolfe_solve(demand, triangle, triangle_latency, gap_tol=1e-6)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"gap_tol": np.nan}, "gap_tol must be positive and finite"),
        ({"gap_tol": 0.0}, "gap_tol must be positive and finite"),
        ({"alpha": np.nan}, "alpha must be nonnegative and finite"),
        ({"alpha": -1.0}, "alpha must be nonnegative and finite"),
    ],
)
def test_frank_wolfe_rejects_bad_parameters(triangle, triangle_latency, kwargs, message):
    with pytest.raises(ValueError, match=message):
        frank_wolfe_solve(triangle_demand(), triangle, triangle_latency, **{"gap_tol": 1e-6, **kwargs})
