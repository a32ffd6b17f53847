import numpy as np
import pytest

from privroute.net_model import LatencyModel
from privroute.objective import (
    ModelConstants,
    compute_constants,
    demand_weight_top_eigenvalue,
    gradient,
    regularized_cost,
    total_edge_flow,
    travel_time_cost,
)
from privroute.flow_polytope import pair_index
from conftest import make_random_network, random_policy


def single_block_demand(n, o, d, rate):
    demand = np.zeros((n, n))
    demand[o, d] = rate
    return demand


def generic_cost_oracle(x, demand, latency):
    """Independent evaluation: sum over edges of y_e * f_e(y_e)."""
    n = demand.shape[0]
    X = np.asarray(x).reshape(n * n, -1)
    y = np.zeros(X.shape[1])
    for i in range(n * n):
        y += demand.reshape(-1)[i] * X[i]
    return sum(
        y_e * (latency.slope[e] * y_e + latency.free_flow[e]) for e, y_e in enumerate(y)
    )


def test_total_edge_flow_single_block(triangle):
    x = np.zeros((9, 3))
    x[pair_index(0, 2, 3)] = [0.5, 0.5, 0.5]
    y = total_edge_flow(x, single_block_demand(3, 0, 2, 2.0))
    assert np.array_equal(y, [1.0, 1.0, 1.0])
    assert np.all(total_edge_flow(x, np.zeros((3, 3))) == 0)


def test_total_edge_flow_bilinear(diamond4):
    rng = np.random.default_rng(0)
    x = random_policy(diamond4, rng)
    d1 = rng.uniform(0, 2, size=(4, 4))
    d2 = rng.uniform(0, 2, size=(4, 4))
    np.fill_diagonal(d1, 0)
    np.fill_diagonal(d2, 0)
    combined = total_edge_flow(x, d1 + d2)
    assert np.allclose(combined, total_edge_flow(x, d1) + total_edge_flow(x, d2))


def test_travel_time_cost_hand_example(triangle, triangle_latency):
    x = np.zeros((9, 3))
    x[pair_index(0, 2, 3)] = [0.5, 0.5, 0.5]
    demand = single_block_demand(3, 0, 2, 2.0)
    # y = (1,1,1): cost = 1*2 + 1*2 + 1*4 = 8
    assert travel_time_cost(x, demand, triangle_latency) == pytest.approx(8.0)
    assert travel_time_cost(x, np.zeros((3, 3)), triangle_latency) == 0.0


def test_travel_time_cost_matches_generic_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        net = make_random_network(rng, 4, extra_edges=2)
        lat = LatencyModel(
            slope=rng.uniform(0, 1, net.edge_count), free_flow=rng.uniform(0, 3, net.edge_count)
        )
        x = random_policy(net, rng)
        demand = rng.uniform(0, 3, size=(4, 4))
        np.fill_diagonal(demand, 0)
        ours = travel_time_cost(x, demand, lat)
        oracle = generic_cost_oracle(x, demand, lat)
        assert abs(ours - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_regularized_cost_cases(triangle, triangle_latency):
    zero = np.zeros((9, 3))
    demand = single_block_demand(3, 0, 2, 2.0)
    assert regularized_cost(zero, demand, triangle_latency, alpha=3.0) == 0.0
    x = np.zeros((9, 3))
    x[pair_index(0, 2, 3)] = [0.5, 0.5, 0.5]
    assert regularized_cost(x, demand, triangle_latency, alpha=0.0) == pytest.approx(
        travel_time_cost(x, demand, triangle_latency)
    )
    assert regularized_cost(x, demand, triangle_latency, alpha=2.0) == pytest.approx(
        travel_time_cost(x, demand, triangle_latency) + float(np.sum(x * x))
    )
    with pytest.raises(ValueError):
        regularized_cost(x, demand, triangle_latency, alpha=-1.0)


def test_gradient_zero_demand_is_regularizer(diamond4):
    rng = np.random.default_rng(2)
    lat = LatencyModel(slope=np.full(10, 0.3), free_flow=diamond4.free_flow_time)
    x = random_policy(diamond4, rng)
    g = gradient(x, np.zeros((4, 4)), lat, alpha=0.7)
    assert np.allclose(g, 0.7 * x)


def test_gradient_at_zero_policy(triangle, triangle_latency):
    demand = single_block_demand(3, 0, 2, 2.0)
    g = gradient(np.zeros((9, 3)), demand, triangle_latency, alpha=1.0)
    assert np.allclose(g[pair_index(0, 2, 3)], 2.0 * triangle_latency.free_flow)
    assert np.all(g[pair_index(1, 2, 3)] == 0)


def central_difference_gradient(x, demand, latency, alpha, step=1e-5):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = step
        up = regularized_cost((flat + bump).reshape(x.shape), demand, latency, alpha)
        down = regularized_cost((flat - bump).reshape(x.shape), demand, latency, alpha)
        out[i] = (up - down) / (2 * step)
    return grad


def test_gradient_matches_finite_differences(triangle, triangle_latency):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0, 1, size=(9, 3))
        demand = rng.uniform(0, 2, size=(3, 3))
        np.fill_diagonal(demand, 0)
        g = gradient(x, demand, triangle_latency, alpha=0.5)
        fd = central_difference_gradient(x, demand, triangle_latency, 0.5)
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(g - fd)) / denom < 1e-5


def test_compute_constants_triangle_formula(triangle, triangle_latency):
    consts = compute_constants(triangle, triangle_latency, lam_max=2.0, alpha=1.0, period_minutes=60.0)
    # 2 * lam * q_max * sqrt(m) * n (n+1) + ||c||
    expected_cross = 2 * 2 * 1 * np.sqrt(3) * 3 * 4 + np.sqrt(11.0)
    assert consts.cross_sensitivity == pytest.approx(expected_cross)
    assert expected_cross == pytest.approx(86.455, abs=5e-4)
    assert consts.beta == pytest.approx(2 * 9 * 4 * 1 + 1)
    expected_grad = 2 * 9 * 2 * 1 * (9 * np.sqrt(3) * 2) + 1 * 3 * np.sqrt(3) + 3 * 2 * np.sqrt(11)
    assert consts.gradient_bound == pytest.approx(expected_grad)


def test_compute_constants_zero_demand(triangle, triangle_latency):
    consts = compute_constants(triangle, triangle_latency, lam_max=0.0, alpha=2.0, period_minutes=60.0)
    assert consts.beta == pytest.approx(2.0)
    assert consts.cross_sensitivity == pytest.approx(np.sqrt(11.0))


def test_gradient_bound_holds_on_samples(diamond4):
    rng = np.random.default_rng(4)
    lat = LatencyModel(slope=np.full(10, 0.2), free_flow=diamond4.free_flow_time)
    lam_max = 2.0
    consts = compute_constants(diamond4, lat, lam_max, alpha=1.0, period_minutes=60.0)
    for _ in range(10):
        x = random_policy(diamond4, rng)
        demand = rng.uniform(0, lam_max, size=(4, 4))
        np.fill_diagonal(demand, 0)
        g = gradient(x, demand, lat, alpha=1.0)
        assert np.linalg.norm(g) <= consts.gradient_bound


def test_eigenvalue_identity_dense(diamond4):
    rng = np.random.default_rng(5)
    for n in (3, 4):
        net = make_random_network(rng, n, extra_edges=1)
        m = net.edge_count
        lat = LatencyModel(
            slope=rng.uniform(0.05, 1.0, size=m), free_flow=rng.uniform(0.5, 2.0, size=m)
        )
        demand = rng.uniform(0, 3, size=(n, n))
        np.fill_diagonal(demand, 0)
        vec = demand.reshape(-1)
        B = np.kron(vec[None, :], np.eye(m))  # (m, n^2 m)
        H = B.T @ np.diag(lat.slope) @ B
        dense_top = float(np.max(np.linalg.eigvalsh(H)))
        closed = demand_weight_top_eigenvalue(demand, lat)
        assert abs(dense_top - closed) / closed < 1e-9


def test_strong_convexity_and_smoothness(diamond4):
    rng = np.random.default_rng(6)
    lat = LatencyModel(slope=np.full(10, 0.3), free_flow=diamond4.free_flow_time)
    alpha = 0.8
    lam_max = 2.5
    consts = compute_constants(diamond4, lat, lam_max, alpha, 60.0)
    for _ in range(50):
        x = random_policy(diamond4, rng)
        x2 = random_policy(diamond4, rng)
        demand = rng.uniform(0, lam_max, size=(4, 4))
        np.fill_diagonal(demand, 0)
        fx = regularized_cost(x, demand, lat, alpha)
        fx2 = regularized_cost(x2, demand, lat, alpha)
        g = gradient(x, demand, lat, alpha)
        inner = float(np.sum(g * (x2 - x)))
        dist2 = float(np.sum((x2 - x) ** 2))
        assert fx2 >= fx + inner + 0.5 * alpha * dist2 - 1e-9
        assert fx2 <= fx + inner + 0.5 * consts.beta * dist2 + 1e-9


def test_cross_derivative_bounded(diamond4):
    rng = np.random.default_rng(7)
    lat = LatencyModel(slope=np.full(10, 0.3), free_flow=diamond4.free_flow_time)
    lam_max = 2.0
    consts = compute_constants(diamond4, lat, lam_max, alpha=1.0, period_minutes=60.0)
    for _ in range(10):
        x = random_policy(diamond4, rng)
        demand = rng.uniform(0, lam_max - 0.1, size=(4, 4))
        np.fill_diagonal(demand, 0)
        o, d = 1, 3
        for delta in (1e-4, 1e-6):
            bumped = demand.copy()
            bumped[o, d] += delta
            g0 = gradient(x, demand, lat, alpha=1.0)
            g1 = gradient(x, bumped, lat, alpha=1.0)
            rate = np.linalg.norm(g1 - g0) / delta
            assert rate <= consts.cross_sensitivity


def test_model_constants_validation():
    with pytest.raises(ValueError):
        ModelConstants(lambda_max=1, alpha=0, beta=1, cross_sensitivity=1, gradient_bound=1, period_minutes=60)
    with pytest.raises(ValueError):
        ModelConstants(lambda_max=1, alpha=2, beta=1, cross_sensitivity=1, gradient_bound=1, period_minutes=60)
