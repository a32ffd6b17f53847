"""Command-line interface.

Exit codes: 0 success, 1 input/usage error, 2 numerical failure
(projection or solver non-convergence).
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .audit import audit_sensitivity, demo_impossibility
from .flow_polytope import ProjectionConvergenceError, decompose_flow
from .harness import (
    ExperimentConfig,
    Pipeline,
    load_instance,
    output_dir,
    paths_to_csv,
    policy_from_csv,
    policy_to_csv,
    run_convergence,
    run_privacy_cost,
    run_sensitivity_sweep,
    write_csv,
    write_metadata,
)


def _load_config(args):
    if args.config is None:
        config = ExperimentConfig()
    else:
        config = ExperimentConfig.from_json(Path(args.config).read_text())
    if args.seed is not None:
        config = dataclasses.replace(config, dataset_seed=args.seed)
    return config


def _cmd_solve_private(args, config, out_dir):
    pipeline = Pipeline(config)
    solution = pipeline.solve_private(*pipeline.sample())
    policy_to_csv(solution.x_alg, pipeline.instance.network, out_dir / "policy.csv")
    write_csv(
        out_dir / "cost_trace.csv",
        ["iteration", "regularized_cost", "travel_time"],
        [(k, c, t) for k, (c, t) in enumerate(zip(solution.cost_trace, solution.travel_time_trace))],
    )
    write_metadata(
        out_dir,
        "solve_private",
        config,
        sigma=solution.sigma,
        noise_seed=solution.seed,
        epsilon=config.epsilon,
        delta=config.delta,
        constants=vars(solution.constants),
        tolerances={"step": config.step_tol, "final": config.final_tol},
    )
    print(f"private policy written to {out_dir / 'policy.csv'} (sigma={solution.sigma:.6g})")
    return 0


def _cmd_solve_baseline(args, config, out_dir):
    pipeline = Pipeline(config)
    policy, trace = pipeline.baseline(pipeline.sample()[0], alpha=args.alpha)
    policy_to_csv(policy, pipeline.instance.network, out_dir / "policy.csv")
    write_csv(out_dir / "gap_trace.csv", ["iteration", "gap", "cost"], trace)
    write_metadata(out_dir, "solve_baseline", config, alpha=args.alpha, iterations=len(trace))
    print(f"baseline policy written to {out_dir / 'policy.csv'} (final gap={trace[-1][1]:.6g})")
    return 0


def _cmd_audit(args, config, out_dir):
    report = audit_sensitivity(Pipeline(config), trials=args.trials)
    report.to_csv(out_dir / "sensitivity_audit.csv")
    write_metadata(out_dir, "audit", config, trials=args.trials, max_ratio=report.max_ratio,
                   passed=report.passed, strict_passed=report.strict_passed)
    print(
        f"audit {'PASS' if report.passed else 'FAIL'}: max ratio {report.max_ratio:.4g} "
        f"(slack {report.slack:.3g}) strict={'PASS' if report.strict_passed else 'FAIL'}"
    )
    return 0 if report.passed else 2


def _cmd_demo_impossibility(args, config, out_dir):
    instance = load_instance(config)
    od = (args.origin - 1, args.destination - 1)
    base = np.zeros_like(instance.mean_demand)
    report = demo_impossibility(instance.network, base, od, config.period_minutes)
    write_csv(
        out_dir / "impossibility.csv",
        ["release", "without_trip_detected", "with_trip_detected"],
        [
            ("per_od_solution", report.detected_without_trip, report.detected_with_trip),
            (
                "total_flow_only",
                report.detected_without_trip_total_flow,
                report.detected_with_trip_total_flow,
            ),
        ],
    )
    write_metadata(out_dir, "impossibility", config, od=[args.origin, args.destination],
                   separated=report.separated)
    print(f"distinguisher separated the adjacent pair: {report.separated}")
    return 0 if report.separated else 2


def _cmd_experiment(args, config, out_dir):
    runner = {
        "convergence": run_convergence,
        "privacy-cost": run_privacy_cost,
        "sweep": run_sensitivity_sweep,
    }[args.kind]
    runner(config, out_dir)
    print(f"experiment '{args.kind}' artifacts written under {args.out_dir}")
    return 0


def _cmd_decompose(args, config, out_dir):
    network = load_instance(config).network
    n = network.node_count
    policy = policy_from_csv(args.policy, network)
    incidence = network.incidence_matrix()
    # the release's conservation tolerance over n - 1 equations, plus what
    # decompose_flow leaves on each edge below its peel threshold
    allowance = (n - 1) * config.final_tol + network.edge_count * 1e-12
    distributions = []
    for block in np.flatnonzero(policy.any(axis=1)).tolist():
        o, d = divmod(block, n)
        # net inflow less that of a unit o -> d flow; decompose_flow would
        # leave any excess in the circulation, which is not written
        excess = incidence @ policy[block]
        excess[o] += 1.0
        excess[d] -= 1.0
        v = int(np.argmax(np.abs(excess)))
        if abs(excess[v]) > allowance:
            raise ValueError(
                f"{args.policy}: pair ({o + 1}, {d + 1}): net inflow at node {v + 1} differs "
                f"from a unit flow's by {float(excess[v])!r}"
            )
        dist = decompose_flow(policy[block], (o, d), network)
        if 1.0 - sum(dist.weights) > allowance:
            raise ValueError(
                f"{args.policy}: pair ({o + 1}, {d + 1}): paths carry {sum(dist.weights)!r} "
                "of its unit flow"
            )
        distributions.append(dist)
    paths_to_csv(distributions, network, out_dir / "path_distributions.csv")
    write_metadata(out_dir, "decompose", config, policy=str(args.policy), blocks=len(distributions))
    print(f"path distributions written to {out_dir / 'path_distributions.csv'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="privroute",
        description="Differentially private network routing policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a config JSON (defaults to built-in Sioux Falls)")
        p.add_argument("--seed", type=int, help="override the dataset seed")
        p.add_argument("--out-dir", required=True, help="directory for output artifacts")

    p = sub.add_parser("solve-private", help="run the private solver and write the policy")
    common(p)
    p.set_defaults(func=_cmd_solve_private)

    p = sub.add_parser("solve-baseline", help="run the Frank-Wolfe baseline")
    common(p)
    p.add_argument("--alpha", type=float, default=0.0, help="regularizer weight (default 0)")
    p.set_defaults(func=_cmd_solve_baseline)

    p = sub.add_parser("audit", help="empirical sensitivity audit")
    common(p)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("demo-impossibility", help="standard-formulation leak demonstration")
    common(p)
    p.add_argument("--origin", type=int, default=1, help="1-based origin node")
    p.add_argument("--destination", type=int, default=3, help="1-based destination node")
    p.set_defaults(func=_cmd_demo_impossibility)

    p = sub.add_parser("experiment", help="run one of the packaged experiments")
    p.add_argument("kind", choices=["convergence", "privacy-cost", "sweep"])
    common(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("decompose", help="export path distributions of a policy CSV")
    common(p)
    p.add_argument("--policy", required=True, help="policy CSV produced by a solve command")
    p.set_defaults(func=_cmd_decompose)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args, _load_config(args), output_dir(args.out_dir))
    except (ValueError, OSError) as exc:  # TNTPFormatError and JSONDecodeError included
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ProjectionConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
