import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from privroute.demand import DemandDataset, make_adjacent, sample_dataset
from privroute.dp_sgd import (
    CostTrace,
    PrivacyParams,
    descend,
    gaussian_noise_scale,
    perturb_and_project,
    private_sgd,
    sample_gaussian,
    sensitivity_bound,
    step_size,
)
from privroute import dp_sgd, flow_polytope
from privroute.baseline import frank_wolfe_solve
from privroute.flow_polytope import (
    FlowProjector,
    UnreachablePairError,
    initial_shortest_path_policy,
    pair_index,
    shortest_path_tree,
)
from privroute.net_model import LatencyModel, affine_latency_from
from privroute.harness import ExperimentConfig, Pipeline, resolve_constants
from privroute.objective import (
    ModelConstants,
    compute_constants,
    edge_costs,
    gradient,
    regularized_cost,
)
from conftest import integer_grid


def fixed_demand_dataset(demand, n_days, period=60.0):
    return DemandDataset(matrices=np.repeat(demand[None], n_days, axis=0), period_minutes=period)


def triangle_demand():
    demand = np.zeros((3, 3))
    demand[0, 2] = 1.0
    return demand


def test_step_size_examples():
    assert step_size(1, alpha=1.0, beta=2.0) == pytest.approx(0.5)
    assert step_size(10, alpha=1.0, beta=2.0) == pytest.approx(0.1)
    assert step_size(1, alpha=0.1, beta=2.0) == pytest.approx(0.1)  # min(1, 2a)/b branch
    with pytest.raises(ValueError):
        step_size(0, 1.0, 2.0)


def test_step_size_monotone():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha = rng.uniform(0.01, 3.0)
        beta = alpha * rng.uniform(1.0, 50.0)
        steps = [step_size(k, alpha, beta) for k in (1, 2, 5, 10, 100, 10_000)]
        assert all(a >= b for a, b in zip(steps, steps[1:]))


def make_constants(cross, alpha, beta, period=60.0):
    return ModelConstants(
        lambda_max=1.0,
        alpha=alpha,
        beta=beta,
        cross_sensitivity=cross,
        gradient_bound=0.0,
        period_minutes=period,
    )


def test_noise_scale_derived_example():
    consts = make_constants(cross=1.0, alpha=1.0, beta=2.0)
    # s = (1/60) * min(min(1,2)/2, 1/10) = 1/600
    assert sensitivity_bound(consts, 10) == pytest.approx(1.0 / 600.0)
    sigma = gaussian_noise_scale(consts, 10, PrivacyParams(0.1, 0.1))
    assert sigma == pytest.approx((1.0 / 600.0) / 0.1 * math.sqrt(2 * math.log(12.5)))


def test_noise_scale_inverse_in_n_and_epsilon():
    consts = make_constants(cross=5.0, alpha=1.0, beta=2.0)
    # once 1/(alpha N) < min(1,2a)/beta, sigma is proportional to 1/N
    s1 = gaussian_noise_scale(consts, 100, PrivacyParams(0.1, 0.1))
    s2 = gaussian_noise_scale(consts, 200, PrivacyParams(0.1, 0.1))
    assert s1 / s2 == pytest.approx(2.0)
    double_eps = gaussian_noise_scale(consts, 100, PrivacyParams(0.2, 0.1))
    assert s1 / double_eps == pytest.approx(2.0)


def test_sample_gaussian_zero_sigma():
    assert np.array_equal(sample_gaussian(0.0, 100, seed=1), np.zeros(100))


def test_sample_gaussian_moments():
    z = sample_gaussian(1.0, 1_000_000, seed=42)
    assert abs(z.mean()) < 4 / math.sqrt(1_000_000)
    assert abs(z.var() - 1.0) < 0.01


def test_sample_gaussian_reproducible():
    a = sample_gaussian(2.0, 1000, seed=7)
    b = sample_gaussian(2.0, 1000, seed=7)
    assert np.array_equal(a, b)
    c = sample_gaussian(2.0, 1000, seed=8)
    assert not np.array_equal(a, c)


def test_sample_gaussian_bits_are_pinned():
    # an odd length keeps one cosine draw more than sine draws; the noise is
    # formed in place, and its bits must not move with that
    z = sample_gaussian(0.37, 1001, seed=11)
    assert z.shape == (1001,)
    digest = hashlib.sha256(z.tobytes()).hexdigest()
    assert digest == "4c3a067d0ee7ad44064660eca323a04efafbb9f6caadb0d3a4fe18fc3b17c604"


def test_private_sgd_memory_peak_on_grid():
    # one 8 x 8 grid solve: the release, the peak, holds x_pre, the noisy
    # policy and the projection's output plus chunk buffers; full-size copies
    # around the projection, the step and the noise read 7.5 policy arrays
    rng = np.random.default_rng(5)
    grid = integer_grid(8, rng)
    latency = affine_latency_from(grid, 2.0)
    mean = rng.uniform(0.0, 0.05, (64, 64))
    np.fill_diagonal(mean, 0.0)
    dataset = sample_dataset(mean, 3, 60.0, seed=1)
    constants = compute_constants(grid, latency, float(dataset.matrices.max()), 2e-4, 60.0)
    x0 = initial_shortest_path_policy(grid)
    projector = FlowProjector(grid)
    tracemalloc.start()
    try:
        private_sgd(
            dataset, grid, latency, constants, PrivacyParams(0.1, 0.1), x0, 0, projector=projector
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * x0.nbytes


def test_private_sgd_bits_are_pinned_on_grid():
    # the solve of test_private_sgd_memory_peak_on_grid: 4,032 routable rows,
    # projected in 7 chunks
    rng = np.random.default_rng(5)
    grid = integer_grid(8, rng)
    latency = affine_latency_from(grid, 2.0)
    mean = rng.uniform(0.0, 0.05, (64, 64))
    np.fill_diagonal(mean, 0.0)
    dataset = sample_dataset(mean, 3, 60.0, seed=1)
    constants = compute_constants(grid, latency, float(dataset.matrices.max()), 2e-4, 60.0)
    solution = private_sgd(
        dataset, grid, latency, constants, PrivacyParams(0.1, 0.1),
        initial_shortest_path_policy(grid), 0,
    )
    digests = [hashlib.sha256(x.tobytes()).hexdigest() for x in (solution.x_pre, solution.x_alg)]
    assert digests == [
        "f323e69d52b764b1f78d36ba1fd9a493d434ccdd6015e35ffd890fe472bc9630",
        "7d3d4a55a913e6f0d6ff3f3db19380ce3724fa7e38063dfee2bd7d79633922f5",
    ]


def test_private_sgd_bits_are_pinned_on_sioux_falls():
    # the default solve on the benchmark's first Sioux Falls dataset, where
    # 502 of the 552 routable rows stay on their vertex at every step
    config = ExperimentConfig()
    pipeline = Pipeline(config)
    instance = pipeline.instance
    seed = int(np.random.SeedSequence((1, 1)).generate_state(1)[0] >> 1)
    dataset = sample_dataset(instance.mean_demand, config.n_days, config.period_minutes, seed=seed)
    solution = private_sgd(
        dataset, instance.network, instance.latency,
        resolve_constants(config, instance, dataset), PrivacyParams(config.epsilon, config.delta),
        pipeline.x0, 0, projector=pipeline.projector, step_tol=config.step_tol,
        final_tol=config.final_tol,
    )
    digests = [hashlib.sha256(x.tobytes()).hexdigest() for x in (solution.x_pre, solution.x_alg)]
    assert digests == [
        "108165b22873ca5af3f825d5b5d3da33109d0fd08964d8315c8c87f9e0e190f8",
        "0f5e35d30eede99e2c4dc8fe21551c056c8e7130d19071e321ddb86b01daafed",
    ]


def test_private_sgd_memory_peak_on_grid_at_two_workers(monkeypatch):
    # two chunks in flight, within the same 5 policy arrays
    monkeypatch.setattr(flow_polytope, "_chunk_workers", lambda: 2)
    test_private_sgd_memory_peak_on_grid()


def test_private_sgd_bits_are_pinned_on_grid_at_two_workers(monkeypatch):
    monkeypatch.setattr(flow_polytope, "_chunk_workers", lambda: 2)
    test_private_sgd_bits_are_pinned_on_grid()


def test_kept_vertex_rows_are_exact_on_the_default_descent(monkeypatch):
    # the default Sioux Falls descent: at every step, the rows it keeps on
    # their vertex are what a 1e-12 projection of their step returns, and
    # each vertex is a cheapest path under its own gradient row
    pipeline = Pipeline(ExperimentConfig())
    network, latency = pipeline.instance.network, pipeline.instance.latency
    dataset, _ = pipeline.sample()
    constants = resolve_constants(pipeline.config, pipeline.instance, dataset)
    alpha, n = constants.alpha, network.node_count
    kept_vertex_rows = dp_sgd.kept_vertex_rows
    calls = []

    def recorded(X, rows, demand, costs, alpha, network):
        kept = kept_vertex_rows(X, rows, demand, costs, alpha, network)
        calls.append((X.copy(), np.asarray(rows)[kept], demand))
        return kept

    monkeypatch.setattr(dp_sgd, "kept_vertex_rows", recorded)
    x_pre = pipeline.descend(dataset, constants)
    assert len(calls) == dataset.day_count
    for k, (X, rows, demand) in enumerate(calls, start=1):
        assert rows.size >= 500
        g = gradient(X, demand, latency, alpha)[rows]
        step = X[rows] - step_size(k, alpha, constants.beta) * g
        pairs = np.column_stack(np.divmod(rows, n))
        exact = pipeline.projector.project_rows(step, pairs, tol=1e-12)
        assert np.max(np.abs(exact - X[rows])) <= 1e-12
        for row, p, g_row in zip(rows.tolist(), X[rows], g):
            o, d = divmod(row, n)
            dist = shortest_path_tree(o, g_row, network)[0]
            assert g_row @ p <= dist[d] * (1 + 1e-12)
    assert np.array_equal(x_pre[rows], X[rows])


def test_descend_without_kept_rows_is_the_plain_loop(sioux_falls):
    # at alpha = 1e3 the regularizer pulls every row off its vertex at the
    # first step, so the descent is gradient, step and project_policy, bit for bit
    config = ExperimentConfig()
    pipeline = Pipeline(config, sioux_falls)
    network, latency = sioux_falls.network, sioux_falls.latency
    dataset, _ = pipeline.sample()
    constants = resolve_constants(config, sioux_falls, dataset, alpha=1e3)
    X = pipeline.x0
    for k in range(1, dataset.day_count + 1):
        step = step_size(k, constants.alpha, constants.beta) * gradient(
            X, dataset.day(k), latency, constants.alpha)
        X = pipeline.projector.project_policy(X - step, tol=config.step_tol)
    assert np.array_equal(pipeline.descend(dataset, constants), X)


def test_descend_with_kept_rows_is_the_reference_loop(sioux_falls):
    # at the default alpha most rows stay on their vertex, and the descent,
    # which forms the step only on the rows that move, is bit for bit the
    # loop that forms it on every row and resets the kept rows to X
    config = ExperimentConfig()
    pipeline = Pipeline(config, sioux_falls)
    network, latency = sioux_falls.network, sioux_falls.latency
    dataset, _ = pipeline.sample()
    constants = resolve_constants(config, sioux_falls, dataset)
    alpha, n = constants.alpha, network.node_count
    routable = (pipeline.projector.reach & ~np.eye(n, dtype=bool)).reshape(n * n)
    X = pipeline.x0
    vertices = np.flatnonzero(routable & ((X == 0.0) | (X == 1.0)).all(axis=1))
    for k in range(1, dataset.day_count + 1):
        demand = dataset.day(k)
        costs = edge_costs(X, demand, latency)
        vertices = vertices[flow_polytope.kept_vertex_rows(X, vertices, demand, costs, alpha, network)]
        assert vertices.size >= 500
        step = X - step_size(k, alpha, constants.beta) * gradient(X, demand, latency, alpha)
        step[vertices] = X[vertices]
        X = pipeline.projector.project_policy(step, tol=config.step_tol)
    assert np.array_equal(pipeline.descend(dataset, constants), X)


def test_solver_leaves_its_arguments_unchanged(ring5, ring5_demand):
    latency = affine_latency_from(ring5, 2.0)
    dataset = sample_dataset(ring5_demand, 3, 60.0, seed=2)
    constants = compute_constants(ring5, latency, float(dataset.matrices.max()), 1.0, 60.0)
    x0 = initial_shortest_path_policy(ring5)
    kept = x0.copy()
    x_pre = descend(dataset, ring5, latency, constants, x0)
    assert np.array_equal(x0, kept)
    kept = x_pre.copy()
    perturb_and_project(x_pre, 0.3, 7, ring5)
    assert np.array_equal(x_pre, kept)


def test_private_sgd_deterministic(triangle, triangle_latency):
    ds = sample_dataset(triangle_demand(), 10, 60.0, seed=3)
    consts = compute_constants(triangle, triangle_latency, 1.2, alpha=0.5, period_minutes=60.0)
    x0 = initial_shortest_path_policy(triangle)
    runs = [
        private_sgd(ds, triangle, triangle_latency, consts, PrivacyParams(0.5, 0.1), x0, seed=11)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].x_pre, runs[1].x_pre)
    assert np.array_equal(runs[0].x_alg, runs[1].x_alg)
    assert runs[0].cost_trace == runs[1].cost_trace
    assert runs[0].sigma == runs[1].sigma
    # recorded noise scale matches the calibration for the recorded inputs
    assert runs[0].sigma == gaussian_noise_scale(consts, ds.day_count, PrivacyParams(0.5, 0.1))
    # the released policy is feasible to the final projection tolerance
    A = triangle.incidence_matrix()
    residual = runs[0].x_alg[pair_index(0, 2, 3)] @ A.T - np.array([-1.0, 0.0, 1.0])
    assert np.max(np.abs(residual)) <= 1e-8
    assert runs[0].x_alg.min() >= -1e-12 and runs[0].x_alg.max() <= 1 + 1e-12


def test_one_pass_reads_each_day_once(triangle, triangle_latency):
    counts = {}

    class CountingDataset(DemandDataset):
        def day(self, t):
            counts[t] = counts.get(t, 0) + 1
            return super().day(t)

    ds = CountingDataset(
        matrices=np.repeat(triangle_demand()[None], 8, axis=0), period_minutes=60.0
    )
    consts = compute_constants(triangle, triangle_latency, 1.0, alpha=0.5, period_minutes=60.0)
    descend(ds, triangle, triangle_latency, consts, initial_shortest_path_policy(triangle))
    assert counts == {t: 1 for t in range(1, 9)}


def test_on_step_sees_each_iterate_in_order(ring5, ring5_demand):
    lat = affine_latency_from(ring5, 2.0)
    ds = sample_dataset(ring5_demand, 6, 60.0, seed=4)
    consts = compute_constants(ring5, lat, float(ds.matrices.max()), alpha=1.0, period_minutes=60.0)
    x0 = initial_shortest_path_policy(ring5)
    seen = []
    x = descend(ds, ring5, lat, consts, x0, on_step=lambda k, X, demand: seen.append((k, X, demand)))
    assert [k for k, _, _ in seen] == list(range(ds.day_count + 1))
    assert np.array_equal(seen[0][1], x0)
    assert np.array_equal(seen[-1][1].view(np.uint64), x.view(np.uint64))
    # k = 0 sees day 1's demand, step k its own day's
    days = [ds.day(1)] + [ds.day(k) for k in range(1, ds.day_count + 1)]
    assert all(np.array_equal(demand, day) for (_, _, demand), day in zip(seen, days))
    # the hook observes: the final iterate is the one an unobserved run returns
    assert np.array_equal(descend(ds, ring5, lat, consts, x0), x)


def test_single_step_zero_demand_matches_formula(triangle, triangle_latency):
    # with zero demand the gradient is alpha * x, so one step contracts by (1 - eta alpha)
    alpha = 1.0
    consts = compute_constants(triangle, triangle_latency, 0.0, alpha=alpha, period_minutes=60.0)
    ds = fixed_demand_dataset(np.zeros((3, 3)), 1)
    x0 = initial_shortest_path_policy(triangle)
    projector = FlowProjector(triangle)
    x_pre = descend(ds, triangle, triangle_latency, consts, x0, projector=projector)
    eta = step_size(1, alpha, consts.beta)
    expected = projector.project_policy((1 - eta * alpha) * x0, tol=1e-6)
    assert np.allclose(x_pre, expected, atol=1e-9)


def test_sgd_reaches_frank_wolfe_cost(triangle, triangle_latency):
    # same regularized objective, fixed demand: the one-pass solver should
    # land within 1% of the Frank-Wolfe optimum given enough days
    alpha, n_days = 0.5, 200
    demand = triangle_demand()
    ds = fixed_demand_dataset(demand, n_days)
    consts = compute_constants(triangle, triangle_latency, 1.0, alpha, 60.0)
    x0 = initial_shortest_path_policy(triangle)
    x_pre = descend(ds, triangle, triangle_latency, consts, x0)
    x_fw, _ = frank_wolfe_solve(demand, triangle, triangle_latency, alpha=alpha, gap_tol=1e-10, max_iters=10000)
    c_sgd = regularized_cost(x_pre, demand, triangle_latency, alpha)
    c_fw = regularized_cost(x_fw, demand, triangle_latency, alpha)
    assert abs(c_sgd - c_fw) / c_fw < 0.01


def test_cost_trace_nonincreasing_on_fixed_demand(ring5, ring5_demand):
    lat = affine_latency_from(ring5, 2.0)
    ds = fixed_demand_dataset(ring5_demand, 30)
    consts = compute_constants(ring5, lat, float(ring5_demand.max()), alpha=1.0, period_minutes=60.0)
    x0 = initial_shortest_path_policy(ring5)
    trace = CostTrace(lat, consts.alpha)
    descend(ds, ring5, lat, consts, x0, on_step=trace)
    diffs = np.diff(trace.costs)
    assert np.all(diffs <= 1e-8)


def test_contraction_between_two_starts(ring5, ring5_demand):
    # one gradient step with safe step sizes contracts distances between runs
    lat = affine_latency_from(ring5, 2.0)
    ds = fixed_demand_dataset(ring5_demand, 15)
    consts = compute_constants(ring5, lat, float(ring5_demand.max()), alpha=1.0, period_minutes=60.0)
    projector = FlowProjector(ring5)
    x_a = initial_shortest_path_policy(ring5)
    rng = np.random.default_rng(1)
    x_b = projector.project_policy(x_a + rng.normal(scale=0.3, size=x_a.shape), tol=1e-10)

    # the observer sees the start at k = 0, then each projected iterate
    outs_a, outs_b = [], []
    descend(ds, ring5, lat, consts, x_a, projector=projector,
            on_step=lambda k, X, demand: outs_a.append(X))
    descend(ds, ring5, lat, consts, x_b, projector=projector,
            on_step=lambda k, X, demand: outs_b.append(X))
    dists = [np.linalg.norm(xa - xb) for xa, xb in zip(outs_a, outs_b)]
    assert len(dists) == 1 + ds.day_count
    for before, after in zip(dists, dists[1:]):
        assert after <= before + 1e-6
    assert dists[-1] < dists[0]


def test_empirical_sensitivity_bound_quick(ring5, ring5_demand):
    lat = affine_latency_from(ring5, 2.0)
    projector = FlowProjector(ring5)
    x0 = initial_shortest_path_policy(ring5)
    rng = np.random.default_rng(9)
    n_days = 10
    for _ in range(5):
        ds = sample_dataset(ring5_demand, n_days, 60.0, seed=int(rng.integers(2**31)))
        day = int(rng.integers(1, n_days + 1))
        pairs = projector.routable_pairs()
        od = pairs[int(rng.integers(len(pairs)))]
        adj = make_adjacent(ds, day, od, "add")
        lam = max(float(ds.matrices.max()), float(adj.matrices.max()))
        consts = compute_constants(ring5, lat, lam, alpha=1.0, period_minutes=60.0)
        a = descend(ds, ring5, lat, consts, x0, projector=projector)
        b = descend(adj, ring5, lat, consts, x0, projector=projector)
        dist = np.linalg.norm(a - b)
        bound = sensitivity_bound(consts, n_days)
        assert dist <= bound + 10 * n_days * 1e-6


def test_noise_stage_seed_only_affects_output(triangle, triangle_latency):
    ds = sample_dataset(triangle_demand(), 5, 60.0, seed=1)
    consts = compute_constants(triangle, triangle_latency, 1.2, alpha=0.5, period_minutes=60.0)
    x0 = initial_shortest_path_policy(triangle)
    one = private_sgd(ds, triangle, triangle_latency, consts, PrivacyParams(0.5, 0.2), x0, seed=1)
    two = private_sgd(ds, triangle, triangle_latency, consts, PrivacyParams(0.5, 0.2), x0, seed=2)
    assert np.array_equal(one.x_pre, two.x_pre)
    assert not np.array_equal(one.x_alg, two.x_alg)


def test_infeasible_start_rejected(triangle, triangle_latency):
    ds = sample_dataset(triangle_demand(), 3, 60.0, seed=1)
    consts = compute_constants(triangle, triangle_latency, 1.2, alpha=0.5, period_minutes=60.0)
    with pytest.raises(ValueError, match="unit flow"):
        private_sgd(
            ds, triangle, triangle_latency, consts, PrivacyParams(0.5, 0.2),
            np.zeros((9, 3)), seed=1,
        )


def test_infeasible_start_names_first_bad_block(diamond4):
    # break each block together with the last one: the error names the
    # first broken block in row-major order
    lat = affine_latency_from(diamond4, 2.0)
    ds = fixed_demand_dataset(np.zeros((4, 4)), 1)
    consts = compute_constants(diamond4, lat, 1.0, alpha=0.5, period_minutes=60.0)
    x0 = initial_shortest_path_policy(diamond4)

    def broken(blocks):
        x = x0.copy()
        for block in blocks:
            if x[block].any():
                x[block] = 0.0  # a routable pair loses its path
            else:
                x[block, 0] = 1.0  # a diagonal block gains flow
        return x

    for block in range(16):
        o, d = divmod(block, 4)
        with pytest.raises(ValueError, match=rf"x0 block \({o + 1}, {d + 1}\) is not a unit flow"):
            descend(ds, diamond4, lat, consts, broken({block, 15}))


def test_descend_names_first_unserved_pair_over_all_days(triangle, triangle_latency):
    # nodes 2 and 3 reach no earlier node: (3, 1) is demanded on day 1 and
    # (2, 1) on day 3 only, and (2, 1) comes first in row-major order
    matrices = np.zeros((3, 3, 3))
    matrices[:, 0, 2] = 1.0
    matrices[0, 2, 0] = 5.0
    matrices[2, 1, 0] = 0.5
    ds = DemandDataset(matrices=matrices, period_minutes=60.0)
    consts = compute_constants(triangle, triangle_latency, 5.0, alpha=0.5, period_minutes=60.0)
    steps = []
    with pytest.raises(UnreachablePairError, match=r"^no path serves demanded pair \(2, 1\)$"):
        descend(
            ds, triangle, triangle_latency, consts, initial_shortest_path_policy(triangle),
            on_step=lambda k, X, demand: steps.append(k),
        )
    assert steps == []


def test_perturb_and_project_zero_noise_is_projection(diamond4):
    lat = LatencyModel(slope=np.full(10, 0.2), free_flow=diamond4.free_flow_time)
    x = initial_shortest_path_policy(diamond4)
    out = perturb_and_project(x, 0.0, seed=1, network=diamond4)
    assert np.max(np.abs(out - x)) < 1e-9


def test_release_carries_no_state_from_descent(ring5, ring5_demand):
    # every projection starts from zero multipliers: a projector that has
    # just run the descent releases bit for bit what a fresh one does
    latency = affine_latency_from(ring5, 2.0)
    dataset = sample_dataset(ring5_demand, 5, 60.0, seed=11)
    constants = compute_constants(ring5, latency, float(dataset.matrices.max()), 1.0, 60.0)
    used = FlowProjector(ring5)
    x_pre = descend(
        dataset, ring5, latency, constants, initial_shortest_path_policy(ring5), projector=used
    )
    released = perturb_and_project(x_pre, 0.3, 7, ring5, projector=used)
    fresh = perturb_and_project(x_pre, 0.3, 7, ring5, projector=FlowProjector(ring5))
    assert np.array_equal(released, fresh)


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(0.0, 0.1)
    with pytest.raises(ValueError):
        PrivacyParams(0.1, 1.0)


def test_non_finite_privacy_and_noise_rejected():
    with pytest.raises(ValueError, match="finite"):
        PrivacyParams(math.inf, 0.1)
    with pytest.raises(ValueError):
        PrivacyParams(math.nan, 0.1)
