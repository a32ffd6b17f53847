"""Differentially private network routing policies.

The package solves the routing-policy form of traffic assignment (one unit
flow per ordered origin-destination pair, demand appearing only in the
objective) with a noise-calibrated projected stochastic gradient method,
and ships a non-private Frank-Wolfe baseline, a privacy sensitivity auditor,
and an experiment harness.
"""
from .net_model import (
    LatencyModel,
    Network,
    TNTPFormatError,
    affine_latency_from,
    parse_tntp_network,
    parse_tntp_trips,
)
from .demand import (
    DemandDataset,
    average_demand,
    lambda_max,
    make_adjacent,
    sample_dataset,
)
from .flow_polytope import (
    FlowProjector,
    PathDistribution,
    ProjectionConvergenceError,
    UnreachablePairError,
    decompose_flow,
    initial_shortest_path_policy,
    pair_index,
    project_unit_flow,
    shortest_path_flow,
)
from .objective import (
    ModelConstants,
    compute_constants,
    demand_weight_top_eigenvalue,
    gradient,
    regularized_cost,
    total_edge_flow,
    travel_time_cost,
)
from .dp_sgd import (
    PrivacyParams,
    PrivateSolution,
    gaussian_noise_scale,
    private_sgd,
    sample_gaussian,
    sensitivity_bound,
    step_size,
)
from .baseline import detect_od_presence, frank_wolfe_solve, standard_feasible_flow
from .audit import (
    ImpossibilityReport,
    SensitivityReport,
    audit_sensitivity,
    demo_impossibility,
)
from .harness import (
    ExperimentConfig,
    load_instance,
    resolve_constants,
    run_convergence,
    run_privacy_cost,
    run_sensitivity_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "LatencyModel",
    "Network",
    "TNTPFormatError",
    "affine_latency_from",
    "parse_tntp_network",
    "parse_tntp_trips",
    "DemandDataset",
    "average_demand",
    "lambda_max",
    "make_adjacent",
    "sample_dataset",
    "FlowProjector",
    "PathDistribution",
    "ProjectionConvergenceError",
    "UnreachablePairError",
    "decompose_flow",
    "initial_shortest_path_policy",
    "pair_index",
    "project_unit_flow",
    "shortest_path_flow",
    "ModelConstants",
    "compute_constants",
    "demand_weight_top_eigenvalue",
    "gradient",
    "regularized_cost",
    "total_edge_flow",
    "travel_time_cost",
    "PrivacyParams",
    "PrivateSolution",
    "gaussian_noise_scale",
    "private_sgd",
    "sample_gaussian",
    "sensitivity_bound",
    "step_size",
    "detect_od_presence",
    "frank_wolfe_solve",
    "standard_feasible_flow",
    "ImpossibilityReport",
    "SensitivityReport",
    "audit_sensitivity",
    "demo_impossibility",
    "ExperimentConfig",
    "load_instance",
    "resolve_constants",
    "run_convergence",
    "run_privacy_cost",
    "run_sensitivity_sweep",
]
