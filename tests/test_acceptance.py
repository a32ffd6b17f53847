"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities. Tolerances are pinned here and match the stated
bands; configurations are fixed (seeds included) so the suite is
deterministic end to end.
"""
import dataclasses
import time

import numpy as np

from privroute.audit import audit_sensitivity, demo_impossibility
from privroute.baseline import frank_wolfe_solve
from privroute.cli import main as cli_main
from privroute.demand import average_demand, lambda_max, sample_dataset
from privroute.dp_sgd import (
    PrivacyParams,
    descend,
    gaussian_noise_scale,
    perturb_and_project,
)
from privroute.flow_polytope import (
    FlowProjector,
    initial_shortest_path_policy,
    pair_index,
    project_unit_flow,
    shortest_path_flow,
)
from privroute.harness import (
    ExperimentConfig,
    Instance,
    Pipeline,
    load_instance,
    run_convergence,
    run_privacy_cost,
)
from privroute.net_model import LatencyModel, Network, affine_latency_from
from privroute.objective import (
    compute_constants,
    demand_weight_top_eigenvalue,
    gradient,
    regularized_cost,
    travel_time_cost,
)
from conftest import make_random_network, qp_projection_oracle, random_policy


def report(number, name, detail):
    print(f"\nACCEPTANCE {number} ({name}): PASS - {detail}")


def five_node_instance():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [((i + 1) % 5, i) for i in range(5)]
    net = Network(
        node_count=5,
        tails=[e[0] for e in edges],
        heads=[e[1] for e in edges],
        free_flow_time=[1.0, 1.5, 2.0, 1.0, 1.5, 1.5, 1.0, 2.0, 1.5, 1.0],
        capacity=[10.0] * 10,
    )
    demand = np.zeros((5, 5))
    demand[0, 2] = 1.5
    demand[2, 0] = 1.0
    demand[1, 4] = 2.0
    demand[4, 1] = 1.0
    demand[0, 3] = 0.8
    demand[3, 1] = 1.2
    return net, affine_latency_from(net, 2.0), demand


def test_criterion_1_sensitivity_bound():
    net, lat, demand = five_node_instance()
    started = time.time()
    worst = {}
    for n_days in (10, 50):
        config = Pipeline(
            ExperimentConfig(n_days=n_days, alpha=1.0, period_minutes=60.0, dataset_seed=2024),
            Instance(net, lat, demand),
        )
        rep = audit_sensitivity(config, trials=20)
        assert rep.passed, f"sensitivity bound violated at N={n_days}: max ratio {rep.max_ratio}"
        worst[n_days] = rep.max_ratio
    elapsed = time.time() - started
    assert elapsed < 60.0, f"audit took {elapsed:.1f}s, over the stated minute"
    report(
        1,
        "sensitivity bound",
        f"40/40 adjacent pairs within bound; max ratios N=10: {worst[10]:.3g}, "
        f"N=50: {worst[50]:.3g}; {elapsed:.1f}s",
    )


def test_criterion_2_convergence_to_baseline(tmp_path):
    config = ExperimentConfig()  # Sioux Falls defaults: N grid up to 50, eps=delta=0.1
    path = run_convergence(config, tmp_path / "conv")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    finals = {}
    for n, iteration, ratio in rows:
        finals[int(n)] = float(ratio)  # last row per N wins
    final_ratio = finals[50]
    assert 1.0 <= final_ratio <= 1.05, f"final cost ratio {final_ratio} outside [1.00, 1.05]"
    report(2, "convergence to baseline", f"Sioux Falls N=50 final cost ratio {final_ratio:.5f}")


def test_criterion_3_privacy_cost(tmp_path):
    config = ExperimentConfig()  # grids {0.01,0.1,0.5} x {0.1,0.5}, 10 noise seeds
    path = run_privacy_cost(config, tmp_path / "pc")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    table = {(float(e), float(d)): float(v) for e, d, v in rows}
    assert len(table) == 6
    worst = max(table.values())
    assert worst <= 1.0, f"worst privacy cost {worst}% exceeds 1%"
    for delta in (0.1, 0.5):
        series = [table[(eps, delta)] for eps in (0.01, 0.1, 0.5)]
        assert series[0] >= series[1] >= series[2], f"not monotone in epsilon at delta={delta}: {series}"
    report(
        3,
        "privacy cost",
        "all six (epsilon, delta) cells <= 1% and monotone in epsilon; worst "
        f"{worst:.3g}%",
    )


def _population_optimum(net, lat, mean, alpha, period):
    """Frank-Wolfe on the exact Poisson-population objective to gap 1e-10.

    The population cost adds the per-pair variance term sum_i (mean_i / T) *
    x_i' Q x_i to the mean-demand cost, which is what sampled days actually
    average to under the Poisson model.
    """
    var_w = mean.reshape(-1) / period
    projector = FlowProjector(net)
    X = initial_shortest_path_policy(net)
    pairs = projector.routable_pairs()
    n = net.node_count
    gap = np.inf
    for j in range(500_000):
        G = gradient(X, mean, lat, alpha) + 2.0 * var_w[:, None] * (lat.slope * X)
        S = np.zeros_like(X)
        for o, d in pairs:
            block = pair_index(o, d, n)
            S[block] = shortest_path_flow((o, d), G[block], net)
        D = S - X
        gap = float(-np.sum(G * D))
        if gap <= 1e-10:
            break
        y_dir = mean.reshape(-1) @ D
        curvature = (
            float(y_dir @ (lat.slope * y_dir))
            + float(np.sum(var_w[:, None] * D * (lat.slope * D)))
            + 0.5 * alpha * float(np.sum(D * D))
        )
        gamma = min(1.0, gap / (2.0 * curvature)) if curvature > 0 else 2.0 / (j + 2.0)
        X = X + gamma * D
    assert gap <= 1e-10, f"population Frank-Wolfe stalled at gap {gap}"
    return X, projector


def test_criterion_4_error_scaling():
    edges = [(0, 1), (1, 0), (1, 3), (3, 1), (0, 2), (2, 0), (2, 3), (3, 2), (1, 2), (2, 1)]
    net = Network(
        node_count=4,
        tails=[e[0] for e in edges],
        heads=[e[1] for e in edges],
        free_flow_time=[1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 1.0, 1.2, 1.2],
        capacity=[10.0] * 10,
    )
    lat = LatencyModel(slope=np.full(10, 0.002), free_flow=net.free_flow_time)
    mean = np.zeros((4, 4))
    mean[0, 3] = 6.0
    mean[3, 0] = 4.5
    mean[1, 2] = 3.0
    mean[2, 1] = 3.0
    mean[0, 2] = 2.4
    alpha, period = 0.3, 1.0  # short period maximizes day-to-day variability
    privacy = PrivacyParams(10.0, 0.1)

    x_star, projector = _population_optimum(net, lat, mean, alpha, period)
    n_values = (25, 100, 400)
    means = []
    for n_days in n_values:
        dists = []
        for seed in range(20):
            ds = sample_dataset(mean, n_days, period, seed=1000 + seed)
            consts = compute_constants(net, lat, lambda_max(ds), alpha, period)
            x_pre = descend(ds, net, lat, consts, x_star, projector=projector)
            sigma = gaussian_noise_scale(consts, n_days, privacy)
            x_alg = perturb_and_project(x_pre, sigma, seed, net, projector=projector)
            dists.append(float(np.linalg.norm(x_alg - x_star)))
        means.append(float(np.mean(dists)))
    slope = float(np.polyfit(np.log(n_values), np.log(means), 1)[0])
    assert means[0] > means[1] > means[2], f"error not decreasing: {means}"
    assert -0.9 <= slope <= -0.25, f"log-log slope {slope} outside [-0.9, -0.25]"
    report(
        4,
        "error scaling",
        f"mean ||x_alg - x*|| at N={n_values}: "
        + ", ".join("%.4f" % v for v in means)
        + f"; slope {slope:.3f} in [-0.9, -0.25]",
    )


def test_criterion_5_distinguisher():
    net, lat, _ = five_node_instance()
    triangle = Network(
        node_count=3, tails=[0, 1, 0], heads=[1, 2, 2],
        free_flow_time=[1.0, 1.0, 3.0], capacity=[1.0, 1.0, 1.0],
    )
    background = np.zeros((5, 5))
    background[1, 3] = 2.0
    background[3, 1] = 1.0
    runs = 0
    for _ in range(5):  # deterministic: identical outcome every run
        for network, base, od in (
            (triangle, np.zeros((3, 3)), (0, 2)),
            (net, background, (0, 2)),
        ):
            rep = demo_impossibility(network, base, od, period_minutes=60.0)
            assert rep.detected_with_trip and not rep.detected_without_trip
            assert rep.detected_with_trip_total_flow and not rep.detected_without_trip_total_flow
            assert rep.separated
            runs += 1
    report(
        5,
        "impossibility distinguisher",
        f"{runs}/{runs} runs separated the adjacent pair exactly, including the "
        "total-flow-only release",
    )


def test_criterion_6_projection_oracle_equivalence():
    rng = np.random.default_rng(6)
    triangle = Network(
        node_count=3, tails=[0, 1, 0], heads=[1, 2, 2],
        free_flow_time=[1.0, 1.0, 3.0], capacity=[1.0, 1.0, 1.0],
    )
    five_edge = Network(
        node_count=3,
        tails=[0, 1, 0, 1, 2],
        heads=[1, 2, 2, 0, 1],
        free_flow_time=np.ones(5),
        capacity=np.ones(5),
    )
    checked = 0
    worst = 0.0
    for net, od_choices in ((triangle, [(0, 2), (0, 1)]), (five_edge, [(0, 2), (0, 1), (2, 1)])):
        for _ in range(30):
            od = od_choices[int(rng.integers(len(od_choices)))]
            v = rng.normal(scale=1.5, size=net.edge_count)
            ours = project_unit_flow(v, od, net, tol=1e-9)
            oracle = qp_projection_oracle(v, od, net)
            worst = max(worst, float(np.linalg.norm(ours - oracle)))
            checked += 1
    assert checked >= 50
    assert worst <= 1e-6, f"projection deviates from the QP oracle by {worst}"
    report(
        6,
        "projection oracle equivalence",
        f"{checked} random 3- and 5-edge polytopes; worst deviation {worst:.2e} <= 1e-6",
    )


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    for n in (3, 5):
        for _ in range(50):
            net = make_random_network(rng, n, extra_edges=2)
            m = net.edge_count
            lat = LatencyModel(
                slope=rng.uniform(0.05, 1.0, size=m), free_flow=rng.uniform(0.2, 3.0, size=m)
            )
            x = rng.uniform(0.0, 1.0, size=(n * n, m))
            demand = rng.uniform(0.0, 2.0, size=(n, n))
            np.fill_diagonal(demand, 0.0)
            alpha = float(rng.uniform(0.1, 2.0))
            g = gradient(x, demand, lat, alpha)
            step = 1e-5
            fd = np.zeros_like(g)
            flat = x.reshape(-1)
            fd_flat = fd.reshape(-1)
            for i in range(flat.size):
                bump = np.zeros_like(flat)
                bump[i] = step
                up = regularized_cost((flat + bump).reshape(x.shape), demand, lat, alpha)
                down = regularized_cost((flat - bump).reshape(x.shape), demand, lat, alpha)
                fd_flat[i] = (up - down) / (2 * step)
            rel = float(np.max(np.abs(g - fd)) / max(1.0, float(np.max(np.abs(fd)))))
            worst = max(worst, rel)
            checked += 1
    assert checked >= 100
    assert worst <= 1e-5, f"gradient-vs-finite-difference relative error {worst}"
    report(
        7,
        "gradient correctness",
        f"{checked} random instances on n in {{3, 5}}; worst relative error {worst:.2e} <= 1e-5",
    )


def test_criterion_8_assumption_suite():
    rng = np.random.default_rng(8)
    edges = [(0, 1), (1, 0), (1, 3), (3, 1), (0, 2), (2, 0), (2, 3), (3, 2), (1, 2), (2, 1)]
    net = Network(
        node_count=4,
        tails=[e[0] for e in edges],
        heads=[e[1] for e in edges],
        free_flow_time=[1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 1.0, 1.2, 1.2],
        capacity=[10.0] * 10,
    )
    lat = LatencyModel(slope=rng.uniform(0.05, 0.4, size=10), free_flow=net.free_flow_time)
    alpha, lam_max = 0.7, 2.5
    consts = compute_constants(net, lat, lam_max, alpha, 60.0)
    pairs_checked = 0
    for _ in range(1000):
        x = random_policy(net, rng)
        x2 = random_policy(net, rng)
        demand = rng.uniform(0, lam_max, size=(4, 4))
        np.fill_diagonal(demand, 0.0)
        fx = regularized_cost(x, demand, lat, alpha)
        fx2 = regularized_cost(x2, demand, lat, alpha)
        inner = float(np.sum(gradient(x, demand, lat, alpha) * (x2 - x)))
        dist2 = float(np.sum((x2 - x) ** 2))
        assert fx2 >= fx + inner + 0.5 * alpha * dist2 - 1e-9
        assert fx2 <= fx + inner + 0.5 * consts.beta * dist2 + 1e-9
        pairs_checked += 1

    worst_eig = 0.0
    for n in (3, 4):
        for _ in range(5):
            net_small = make_random_network(rng, n, extra_edges=1)
            m = net_small.edge_count
            lat_small = LatencyModel(
                slope=rng.uniform(0.05, 1.0, size=m), free_flow=rng.uniform(0.5, 2.0, size=m)
            )
            demand = rng.uniform(0.0, 3.0, size=(n, n))
            np.fill_diagonal(demand, 0.0)
            B = np.kron(demand.reshape(1, -1), np.eye(m))
            dense = float(np.max(np.linalg.eigvalsh(B.T @ np.diag(lat_small.slope) @ B)))
            closed = demand_weight_top_eigenvalue(demand, lat_small)
            worst_eig = max(worst_eig, abs(dense - closed) / closed)
    assert worst_eig <= 1e-9
    report(
        8,
        "assumption suite",
        f"strong convexity and smoothness held on {pairs_checked} random pairs; "
        f"eigenvalue identity worst relative error {worst_eig:.2e} <= 1e-9",
    )


def test_criterion_9_average_demand_approximation():
    config = ExperimentConfig()
    instance = load_instance(config)
    worst = 0.0
    for seed in (11, 12, 13):
        ds = sample_dataset(instance.mean_demand, 10, config.period_minutes, seed=seed)
        avg = average_demand(ds)
        x0_cost = travel_time_cost(
            initial_shortest_path_policy(instance.network), avg, instance.latency
        )
        x_base, _ = frank_wolfe_solve(
            avg, instance.network, instance.latency, alpha=0.0,
            gap_tol=1e-6 * x0_cost, max_iters=config.max_fw_iters,
        )
        at_average = travel_time_cost(x_base, avg, instance.latency)
        day_costs = [
            travel_time_cost(x_base, ds.matrices[t], instance.latency) for t in range(ds.day_count)
        ]
        mean_cost = float(np.mean(day_costs))
        rel = abs(at_average - mean_cost) / mean_cost
        worst = max(worst, rel)
    assert worst < 1e-4, f"average-demand approximation error {worst}"
    report(
        9,
        "average-demand approximation",
        f"three sampled Sioux Falls datasets (N=10): worst relative error {worst:.2e} < 1e-4",
    )


def test_criterion_10_determinism(tmp_path):
    config = ExperimentConfig()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config.to_json())
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["solve-private", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
    assert cli_main(["solve-private", "--config", str(cfg_path), "--out-dir", str(out2)]) == 0
    files = ["policy.csv", "cost_trace.csv", "solve_private_metadata.json"]
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), f"{name} differs"

    exp1, exp2 = tmp_path / "e1", tmp_path / "e2"
    small = dataclasses.replace(config, n_grid=(5,), n_days=5)
    run_convergence(small, exp1)
    run_convergence(small, exp2)
    assert (exp1 / "convergence.csv").read_bytes() == (exp2 / "convergence.csv").read_bytes()
    report(
        10,
        "determinism",
        "repeated CLI solve-private and convergence runs produced byte-identical artifacts",
    )
