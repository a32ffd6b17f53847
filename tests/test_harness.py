import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from privroute.audit import audit_sensitivity
from privroute.cli import main as cli_main
from privroute.dp_sgd import PrivacyParams, private_sgd, sensitivity_bound
from privroute.harness import (
    ExperimentConfig,
    Instance,
    Pipeline,
    load_instance,
    policy_from_csv,
    policy_to_csv,
    resolve_constants,
    run_convergence,
    run_privacy_cost,
    run_sensitivity_sweep,
)
from privroute.objective import ModelConstants

TINY_NET = """
<NUMBER OF NODES> 4
<NUMBER OF LINKS> 10
<END OF METADATA>
~ init term capacity length fft b power speed toll type ;
1 2 10.0 1.0 1.0 0 0 0 0 1 ;
2 1 10.0 1.0 1.0 0 0 0 0 1 ;
2 4 10.0 1.5 1.5 0 0 0 0 1 ;
4 2 10.0 1.5 1.5 0 0 0 0 1 ;
1 3 10.0 2.0 2.0 0 0 0 0 1 ;
3 1 10.0 2.0 2.0 0 0 0 0 1 ;
3 4 10.0 1.0 1.0 0 0 0 0 1 ;
4 3 10.0 1.0 1.0 0 0 0 0 1 ;
2 3 10.0 1.2 1.2 0 0 0 0 1 ;
3 2 10.0 1.2 1.2 0 0 0 0 1 ;
"""

TINY_TRIPS = """
<NUMBER OF ZONES> 4
<TOTAL OD FLOW> 390.0
<END OF METADATA>
Origin 1
 4 : 120.0; 3 : 60.0;
Origin 4
 1 : 90.0;
Origin 2
 3 : 120.0;
"""


@pytest.fixture
def tiny_config(tmp_path):
    net = tmp_path / "net.tntp"
    trips = tmp_path / "trips.tntp"
    net.write_text(TINY_NET)
    trips.write_text(TINY_TRIPS)
    return ExperimentConfig(
        net_path=str(net),
        trips_path=str(trips),
        n_days=5,
        alpha=0.05,
        n_grid=(3, 5),
        epsilon_grid=(0.1, 0.5),
        delta_grid=(0.1,),
        alpha_grid=(0.05, 0.5),
        factor_grid=(2.0,),
        scale_grid=(1.0,),
        sweep_alpha=0.5,
        noise_seeds=(0, 1),
        dataset_seed=99,
    )


def test_config_json_round_trip(tiny_config):
    text = tiny_config.to_json()
    back = ExperimentConfig.from_json(text)
    assert dataclasses.asdict(back) == dataclasses.asdict(tiny_config)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # noise_scale_override was removed, so that every release is calibrated;
    # a config that still sets it fails at load instead of being ignored
    for text in ('{"nonsense": 1}', '{"noise_scale_override": 0}'):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json(text)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"noise_scale_override": 0}')
    assert cli_main(["solve-private", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "input error: unknown config keys: ['noise_scale_override']" in capsys.readouterr().err


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=())
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json('{"convention": "closed-form"}')
    with pytest.raises(ValueError):
        ExperimentConfig(sensitivity_factor=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(delta=1.5)
    # a grid entry obeys its scalar field's rule, checked before any run
    for name, value in [
        ("factor_grid", 0.5),
        ("scale_grid", -1),
        ("alpha_grid", 0),
        ("epsilon_grid", -1),
        ("delta_grid", 1.5),
        ("n_grid", 0),
        ("noise_seeds", -1),
    ]:
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: (value,)})


def test_load_instance_applies_knobs(tiny_config):
    instance = load_instance(tiny_config)
    assert instance.network.node_count == 4
    assert instance.mean_demand[0, 3] == pytest.approx(2.0)  # 120/60
    doubled = load_instance(dataclasses.replace(tiny_config, demand_scale=2.0))
    assert doubled.mean_demand[0, 3] == pytest.approx(4.0)
    flat = load_instance(dataclasses.replace(tiny_config, sensitivity_factor=1.0))
    assert np.all(flat.latency.slope == 0)


def test_run_convergence_artifacts(tiny_config, tmp_path):
    out = tmp_path / "conv"
    path = run_convergence(tiny_config, out)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,iteration,cost_ratio"
    # N values 3 and 5, each with N + 1 iterations recorded
    assert len(lines) == 1 + (3 + 1) + (5 + 1)
    assert (out / "convergence_regularized.csv").exists()
    assert (out / "convergence_metadata.json").exists()
    ratios = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(r >= 1.0 - 1e-9 for r in ratios)


def test_run_privacy_cost_artifacts(tiny_config, tmp_path):
    path = run_privacy_cost(tiny_config, tmp_path / "pc")
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,delta,increase_percent"
    assert len(lines) == 1 + 2  # two epsilons, one delta
    eps_order = [float(l.split(",")[0]) for l in lines[1:]]
    assert eps_order == sorted(eps_order)


def test_run_sweep_single_point_degenerates(tiny_config, tmp_path):
    paths = run_sensitivity_sweep(tiny_config, tmp_path / "sw")
    latency_lines = (tmp_path / "sw" / "sweep_latency.csv").read_text().splitlines()
    assert latency_lines[0] == "parameter,iteration,cost_ratio"
    assert len(latency_lines) == 1 + (tiny_config.n_days + 1)  # single grid point
    alpha_lines = (tmp_path / "sw" / "sweep_alpha.csv").read_text().splitlines()
    assert len(alpha_lines) == 1 + 2 * (tiny_config.n_days + 1)


def test_zero_congestion_ratio_is_one(tiny_config, tmp_path):
    # factor 1 kills all slopes: the objective is linear, the shortest-path
    # start is optimal, and the ratio stays at 1 for every iterate
    config = dataclasses.replace(
        tiny_config, sensitivity_factor=1.0, alpha=1e-9, n_grid=(4,), n_days=4
    )
    path = run_convergence(config, tmp_path / "flat")
    ratios = [float(l.split(",")[2]) for l in path.read_text().splitlines()[1:]]
    assert all(abs(r - 1.0) < 1e-6 for r in ratios)


def test_convergence_ratio_nonincreasing_on_fixed_demand(tmp_path, tiny_config, monkeypatch):
    # regularized-numerator trace is a descent trace under the formula
    # constants when every day carries the same demand
    import privroute.demand as demand_mod

    fixed = np.zeros((4, 4))
    fixed[0, 3] = 2.0
    fixed[1, 2] = 1.0

    def fixed_sampler(mean, n_days, period, seed):
        return demand_mod.DemandDataset(
            matrices=np.repeat(fixed[None], n_days, axis=0), period_minutes=period
        )

    monkeypatch.setattr(demand_mod, "sample_dataset", fixed_sampler)
    config = dataclasses.replace(tiny_config, alpha=0.5, n_grid=(6,), n_days=6)
    run_convergence(config, tmp_path / "mono")
    lines = (tmp_path / "mono" / "convergence_regularized.csv").read_text().splitlines()[1:]
    ratios = [float(l.split(",")[2]) for l in lines]
    assert all(a >= b - 1e-10 for a, b in zip(ratios, ratios[1:]))


def _settle_iteration(ratios, band=0.005):
    final = ratios[-1]
    for k in range(len(ratios)):
        if all(abs(r - final) <= band * final for r in ratios[k:]):
            return k
    return len(ratios) - 1


@pytest.mark.slow
def test_sweep_orderings_on_sioux_falls(tmp_path):
    """The three qualitative sweep effects, at the calibrated default scale:
    larger regularizers settle in fewer iterations; steeper latency ends with
    the lowest final ratio; higher demand ends closest to the baseline."""
    from privroute.harness import run_sensitivity_sweep
    import csv
    from collections import defaultdict

    config = ExperimentConfig()
    run_sensitivity_sweep(config, tmp_path / "sw")

    def by_param(name):
        groups = defaultdict(list)
        with open(tmp_path / "sw" / name, newline="") as fh:
            for row in csv.DictReader(fh):
                groups[float(row["parameter"])].append(float(row["cost_ratio"]))
        return groups

    alpha_groups = by_param("sweep_alpha.csv")
    settles = [_settle_iteration(alpha_groups[a]) for a in sorted(alpha_groups)]
    assert settles[0] >= settles[1] >= settles[2], f"alpha settle ordering broken: {settles}"

    latency_groups = by_param("sweep_latency.csv")
    finals = [latency_groups[f][-1] for f in sorted(latency_groups)]
    assert finals[0] > finals[1] > finals[2], f"latency final ratios not decreasing: {finals}"

    demand_groups = by_param("sweep_demand.csv")
    finals = [demand_groups[s][-1] for s in sorted(demand_groups)]
    assert finals[0] > finals[1] > finals[2], f"demand final ratios not decreasing: {finals}"


def test_experiments_reproduce_byte_identical(tiny_config, tmp_path):
    a = run_privacy_cost(tiny_config, tmp_path / "a")
    b = run_privacy_cost(tiny_config, tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()
    meta_a = (tmp_path / "a" / "privacy_cost_metadata.json").read_bytes()
    meta_b = (tmp_path / "b" / "privacy_cost_metadata.json").read_bytes()
    assert meta_a == meta_b


def test_policy_csv_round_trip(tiny_config, tmp_path):
    from privroute.flow_polytope import initial_shortest_path_policy

    instance = load_instance(tiny_config)
    policy = initial_shortest_path_policy(instance.network)
    path = tmp_path / "policy.csv"
    policy_to_csv(policy, instance.network, path)
    back = policy_from_csv(path, instance.network)
    assert np.array_equal(back, policy)
    # rows come in row-major policy order: by block, then by edge
    network = instance.network
    keys = [
        (int(o), int(d), network.edge_index(int(t) - 1, int(h) - 1))
        for o, d, t, h, _ in (line.split(",") for line in path.read_text().splitlines()[1:])
    ]
    assert len(keys) == np.count_nonzero(policy) and keys == sorted(keys)


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    return str(path)


def test_cli_solve_baseline(tiny_config, tmp_path):
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "out"
    assert cli_main(["solve-baseline", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "policy.csv").exists()
    assert (out / "gap_trace.csv").read_text().startswith("iteration,gap,cost")
    assert (out / "solve_baseline_metadata.json").exists()


def test_cli_solve_private_and_decompose(tiny_config, tmp_path):
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "priv"
    assert cli_main(["solve-private", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "policy.csv").exists()
    assert (out / "cost_trace.csv").exists()
    meta = json.loads((out / "solve_private_metadata.json").read_text())
    assert "sigma" in meta and "constants" in meta

    dec = tmp_path / "dec"
    rc = cli_main([
        "decompose", "--config", cfg, "--policy", str(out / "policy.csv"), "--out-dir", str(dec)
    ])
    assert rc == 0
    lines = (dec / "path_distributions.csv").read_text().splitlines()
    assert lines[0] == "origin,destination,path,weight"
    assert len(lines) > 1


def test_cli_experiment_privacy_cost(tiny_config, tmp_path):
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "exp"
    assert cli_main(["experiment", "privacy-cost", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "privacy_cost.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_audit(tiny_config, tmp_path):
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "audit"
    rc = cli_main(["audit", "--config", cfg, "--out-dir", str(out), "--trials", "3"])
    assert rc == 0
    lines = (out / "sensitivity_audit.csv").read_text().splitlines()
    assert len(lines) == 5


def test_cli_audit_bytes_are_pinned(tiny_config, tmp_path):
    # the SHA-256 of the audit CSV the standalone audit wrote before it ran
    # on the shared pipeline
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "audit"
    assert cli_main(["audit", "--config", cfg, "--out-dir", str(out), "--trials", "3"]) == 0
    digest = hashlib.sha256((out / "sensitivity_audit.csv").read_bytes()).hexdigest()
    assert digest == "00fdf5c36e495cf2f31bc926beb58b27dbfac78effe000cec055ae47de7021a5"


def test_cli_audit_metadata_records_both_verdicts(tiny_config, tmp_path):
    # the metadata carries the strict verdict beside the slack one, as the
    # report that the CSV summarizes has them
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "audit"
    assert cli_main(["audit", "--config", cfg, "--out-dir", str(out), "--trials", "2"]) == 0
    meta = json.loads((out / "audit_metadata.json").read_text())
    report = audit_sensitivity(Pipeline(tiny_config), trials=2)
    assert (meta["passed"], meta["strict_passed"]) == (report.passed, report.strict_passed)
    assert meta["max_ratio"] == report.max_ratio


def test_cli_demo_impossibility(tiny_config, tmp_path):
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "demo"
    rc = cli_main([
        "demo-impossibility", "--config", cfg, "--out-dir", str(out),
        "--origin", "1", "--destination", "4",
    ])
    assert rc == 0
    text = (out / "impossibility.csv").read_text()
    assert "per_od_solution,False,True" in text
    assert "total_flow_only,False,True" in text


@pytest.mark.parametrize("flag, node", [("--origin", "0"), ("--destination", "0"), ("--origin", "5")])
def test_cli_demo_impossibility_rejects_unknown_node(tiny_config, tmp_path, capsys, flag, node):
    # node 0 would index the last node; node 5 lies past the 4-node network
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "demo"
    assert cli_main(["demo-impossibility", "--config", cfg, "--out-dir", str(out), flag, node]) == 1
    assert "must lie in 1..4" in capsys.readouterr().err
    assert not (out / "impossibility.csv").exists()


HEADER = "origin,destination,edge_tail,edge_head,value\n"


@pytest.mark.parametrize(
    "text, where",
    [
        (HEADER + "1,4,1,2,1\n1,5,1,2,1\n", "line 3"),  # node 5 of 4 nodes
        (HEADER + "1,4,1,2,1\n1,4,1,4,1\n", "line 3"),  # the network has no edge 1->4
        ("origin,destination,edge_tail,value\n1,4,1,1\n", "line 1"),  # no edge_head
        # a second row for one pair and edge overwrote the first
        (HEADER + "1,4,1,2,0.5\n1,4,2,4,0.5\n1,4,1,2,0.25\n", "line 4"),
        (HEADER + "1,2,1,2,0.75\n1,2,1,2,-3\n", "line 3"),  # no flow is negative
        # a path of weight 1, and the other 1.5 left in the circulation
        (HEADER + "1,4,1,2,1\n1,4,2,4,2.5\n", "line 3"),
        # a diagonal block routes no pair, so decompose dropped the row
        (HEADER + "1,4,1,2,1\n1,4,2,4,1\n3,3,1,2,0.5\n", "line 4"),
        # half a unit flow, of which no path was written
        (HEADER + "1,4,1,2,1\n1,4,2,4,1\n1,2,1,3,0.5\n", "pair (1, 2)"),
        # a unit path 1->2 plus a flow 1->3->4->3 that sends two units out of
        # node 1 and into node 3; decompose wrote the path and dropped the rest
        (HEADER + "1,2,1,2,1\n1,2,1,3,1\n1,2,3,4,1\n1,2,4,3,1\n", "pair (1, 2)"),
    ],
    ids=["node-out-of-range", "unknown-edge", "missing-column", "repeated-row", "negative-value",
         "value-above-one", "origin-is-destination", "not-a-unit-flow", "flow-not-conserved"],
)
def test_cli_decompose_rejects_bad_policy(tiny_config, tmp_path, capsys, text, where):
    cfg = write_config(tmp_path, tiny_config)
    policy = tmp_path / "policy.csv"
    policy.write_text(text)
    argv = ["decompose", "--config", cfg, "--policy", str(policy), "--out-dir", str(tmp_path / "dec")]
    assert cli_main(argv) == 1
    assert f"{policy}: {where}:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["out-dir-is-a-file", "config-is-a-directory", "policy-is-a-directory"])
def test_cli_os_errors_on_user_paths_are_input_errors(tiny_config, tmp_path, capsys, case):
    # each of these ended in a traceback
    cfg = write_config(tmp_path, tiny_config)
    policy = tmp_path / "policy.csv"
    policy.write_text(HEADER + "1,4,1,2,1\n1,4,2,4,1\n")
    out = tmp_path / "dec"
    if case == "out-dir-is-a-file":
        out.write_text("")
    elif case == "config-is-a-directory":
        cfg = str(tmp_path)
    else:
        policy = tmp_path
    argv = ["decompose", "--config", cfg, "--policy", str(policy), "--out-dir", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_decompose_rejects_non_finite_value(tiny_config, tmp_path, capsys, value):
    # a NaN entry is truthy to np.any, so it was counted as a block while no
    # path could be traced through it
    cfg = write_config(tmp_path, tiny_config)
    policy = tmp_path / "policy.csv"
    policy.write_text(HEADER + f"1,4,1,2,1\n1,4,2,4,{value}\n")
    out = tmp_path / "dec"
    argv = ["decompose", "--config", cfg, "--policy", str(policy), "--out-dir", str(out)]
    assert cli_main(argv) == 1
    assert f"{policy}: line 3: non-finite value" in capsys.readouterr().err
    assert not (out / "path_distributions.csv").exists()


@pytest.mark.parametrize(
    "field, old, new, message",
    [
        ("net_path", "1 2 10.0 1.0 1.0", "1 2 nan 1.0 1.0", "capacity 'nan' is not positive"),
        ("net_path", "1 2 10.0 1.0 1.0", "1 2 inf 1.0 1.0", "capacity 'inf' is not positive"),
        ("net_path", "1 2 10.0 1.0 1.0", "1 2 10.0 1.0 nan", "free-flow time 'nan' is not"),
        ("net_path", "1 2 10.0 1.0 1.0", "1 2 10.0 1.0 inf", "free-flow time 'inf' is not"),
        ("trips_path", "4 : 120.0", "4 : nan", "flow 'nan' is not nonnegative"),
        ("trips_path", "4 : 120.0", "4 : inf", "flow 'inf' is not nonnegative"),
    ],
    ids=["capacity-nan", "capacity-inf", "free-flow-nan", "free-flow-inf", "trips-nan", "trips-inf"],
)
def test_cli_rejects_non_finite_input_file(tiny_config, tmp_path, capsys, field, old, new, message):
    # a nan or inf free-flow time made solve-baseline exit 0 with a nan gap
    path = Path(getattr(tiny_config, field))
    path.write_text(path.read_text().replace(old, new, 1))
    cfg = write_config(tmp_path, tiny_config)
    for command in ("solve-baseline", "solve-private"):
        out = tmp_path / command
        assert cli_main([command, "--config", cfg, "--out-dir", str(out)]) == 1
        assert f"input error: line 6: {message}" in capsys.readouterr().err
        assert not (out / "policy.csv").exists()


def test_cli_rejects_bad_input(tiny_config, tmp_path):
    assert cli_main(["no-such-command"]) == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json")
    assert cli_main(["solve-baseline", "--config", str(bad_cfg), "--out-dir", str(tmp_path / "x")]) == 1
    missing = tmp_path / "missing.json"
    assert cli_main(["solve-baseline", "--config", str(missing), "--out-dir", str(tmp_path / "y")]) == 1


ONE_WAY_NET = """
<NUMBER OF NODES> 3
<NUMBER OF LINKS> 2
<END OF METADATA>
~ init term capacity length fft b power speed toll type ;
1 2 10.0 1.0 1.0 0 0 0 0 1 ;
2 3 10.0 1.0 1.0 0 0 0 0 1 ;
"""

ONE_WAY_TRIPS = """
<NUMBER OF ZONES> 3
<TOTAL OD FLOW> 120.0
<END OF METADATA>
Origin 1
 3 : 60.0;
Origin 3
 1 : 60.0;
"""


@pytest.mark.parametrize(
    "argv",
    [["solve-private"], ["audit", "--trials", "2"], ["experiment", "privacy-cost"]],
    ids=["solve-private", "audit", "privacy-cost"],
)
def test_cli_rejects_demand_on_unroutable_pair(tiny_config, tmp_path, capsys, argv):
    # no path leads from node 3 to node 1; the private solve dropped that
    # demand without a word and exited 0
    Path(tiny_config.net_path).write_text(ONE_WAY_NET)
    Path(tiny_config.trips_path).write_text(ONE_WAY_TRIPS)
    cfg = write_config(tmp_path, tiny_config)
    assert cli_main(argv + ["--config", cfg, "--out-dir", str(tmp_path / "out")]) == 1
    assert "input error: no path serves demanded pair (3, 1)" in capsys.readouterr().err


def test_cli_byte_identical_reruns(tiny_config, tmp_path):
    # every command twice on one config: each artifact, metadata included,
    # must repeat byte for byte
    cfg = write_config(tmp_path, tiny_config)
    policy = tmp_path / "source" / "policy.csv"
    assert cli_main(["solve-private", "--config", cfg, "--out-dir", str(policy.parent)]) == 0
    commands = [
        ["solve-private"],
        ["solve-baseline"],
        ["audit", "--trials", "2"],
        ["demo-impossibility", "--origin", "1", "--destination", "4"],
        ["experiment", "convergence"],
        ["experiment", "privacy-cost"],
        ["experiment", "sweep"],
        ["decompose", "--policy", str(policy)],
    ]
    artifacts = []
    for run in ("r1", "r2"):
        for k, argv in enumerate(commands):
            out = tmp_path / run / str(k)
            assert cli_main(argv + ["--config", cfg, "--out-dir", str(out)]) == 0, argv
        root = tmp_path / run
        artifacts.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    first, second = artifacts
    assert sorted(first) == sorted(second)
    assert len(first) == 21
    assert sum(p.name.endswith("_metadata.json") for p in first) == len(commands)
    assert [p for p in sorted(first) if first[p] != second[p]] == []


# SHA-256 of every CSV the commands write on tiny_config, taken before the
# commands shared one pipeline and one CSV writer
CSV_DIGESTS = {
    "baseline/gap_trace.csv": "1baee05aaa083b339a39e8571e35cd6827a237f4761acd6fd5a289837877dec4",
    "baseline/policy.csv": "54c312b196371709d652a3897c236dbe59d4f1b062285692e717e674a4f0eb59",
    "convergence/convergence.csv": "72c5611c79e2bd78196f7dd568fa8c6abc6f2e591ae537289639356f187e1182",
    "convergence/convergence_regularized.csv": "68f1dbab4465a41d41fcc94cae694f24fb94ac3bd5ea0770f9bb05adf86d4c35",
    "decompose/path_distributions.csv": "7327bd1c51b887a82ec8b9799ded364141efa01850ef1a14e459adbbe779e7cc",
    "demo/impossibility.csv": "e4fad699c51687a53b0afb5caaf02102c0bbbfc2e3c8bece4dc5c75f041e02d8",
    "privacy-cost/privacy_cost.csv": "e9c47d9a1ad6459526cd12a45cd0f88e06cc13bf91f9a62ffb67cd29c4e823d4",
    "private/cost_trace.csv": "e1c7895791341875a83adcf08136ac4a89825edc389ec77a8028d345412c619c",
    "private/policy.csv": "05444224a889bb5d2baab0bbe6f28299bc0a2f32108b8db071752d0f18698bf6",
    "sweep/sweep_alpha.csv": "ec623d488d2e59c3799d08d868ffa933ec43a48ef48e5c1e2c3bc97b2982c6b5",
    "sweep/sweep_demand.csv": "01164186c975e5dae1d7bd20320b5aad3b90c47b0c6583975942acac9df71e2e",
    "sweep/sweep_latency.csv": "6f97d19983d8e7ced48114581a6b0d1d29c1f6b83b41341ae74945d8c4c1ee25",
}


def test_cli_csv_bytes_are_pinned(tiny_config, tmp_path):
    cfg = write_config(tmp_path, tiny_config)
    out = tmp_path / "out"
    commands = {
        "private": ["solve-private"],
        "baseline": ["solve-baseline"],
        "demo": ["demo-impossibility", "--origin", "1", "--destination", "4"],
        "convergence": ["experiment", "convergence"],
        "privacy-cost": ["experiment", "privacy-cost"],
        "sweep": ["experiment", "sweep"],
        "decompose": ["decompose", "--policy", str(out / "private" / "policy.csv")],
    }
    for name, argv in commands.items():
        assert cli_main(argv + ["--config", cfg, "--out-dir", str(out / name)]) == 0, argv
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }
    assert digests == CSV_DIGESTS


def gaussian_delta(epsilon, sigma, s):
    """Exact delta(epsilon) of the Gaussian mechanism with noise sigma at
    sensitivity s (Balle & Wang, ICML 2018, Theorem 8)."""
    def phi(x):  # the standard normal CDF
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    a, b = s / (2.0 * sigma), epsilon * sigma / s
    return phi(a - b) - math.exp(epsilon) * phi(-a - b)


def recorded_privacy_cost_deltas(config, out_dir):
    """(epsilon, delta, exact delta(epsilon)) of every privacy-cost cell, at
    the sigma that the run's metadata records and the sensitivity bound of
    its own dataset."""
    run_privacy_cost(config, out_dir)
    meta = json.loads((out_dir / "privacy_cost_metadata.json").read_text())
    pipeline = Pipeline(config)
    dataset, _ = pipeline.sample()
    s = sensitivity_bound(resolve_constants(config, pipeline.instance, dataset), dataset.day_count)
    cells = []
    for cell, sigma in meta["sigma"].items():
        epsilon, delta = map(float, cell.split(","))
        cells.append((epsilon, delta, gaussian_delta(epsilon, sigma, s)))
    return cells


def test_recorded_sigma_meets_its_delta(tiny_config, tmp_path):
    # the release is (epsilon, delta)-private iff the exact profile at the
    # sigma it used stays within delta
    out = tmp_path / "private"
    assert cli_main(["solve-private", "--out-dir", str(out)]) == 0  # the default config
    meta = json.loads((out / "solve_private_metadata.json").read_text())
    s = sensitivity_bound(ModelConstants(**meta["constants"]), meta["config"]["n_days"])
    cells = [(meta["epsilon"], meta["delta"], gaussian_delta(meta["epsilon"], meta["sigma"], s))]
    config = dataclasses.replace(tiny_config, epsilon_grid=(0.1, 0.5, 2.0))
    cells += recorded_privacy_cost_deltas(config, tmp_path / "pc")
    assert len(cells) == 4
    for epsilon, delta, exact in cells:
        assert 0 < exact <= delta, (epsilon, delta, exact)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the classic sigma does not meet delta = 0.1 at epsilon = 10 "
    "(exact delta(epsilon) 0.41); item 1's calibration must make this pass",
)
def test_recorded_sigma_meets_its_delta_at_large_epsilon(tiny_config, tmp_path):
    # criterion 4 releases at (10, 0.1)
    config = dataclasses.replace(tiny_config, epsilon_grid=(10.0,), delta_grid=(0.1,))
    [(epsilon, delta, exact)] = recorded_privacy_cost_deltas(config, tmp_path / "pc")
    assert exact <= delta, (epsilon, delta, exact)


def test_sweep_solves_alpha_baseline_once(tiny_config, tmp_path, monkeypatch):
    # the alpha grid shares one dataset and one unregularized baseline, and a
    # latency or demand scenario equal to the base config (factor 2.0, scale
    # 1.0 in tiny_config) reuses its rows; any other scenario needs its own
    import privroute.harness as harness

    calls = []
    original = harness.frank_wolfe_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "frank_wolfe_solve", counting)
    for factor_grid, solves in [((2.0,), 1), ((2.0, 3.0), 2)]:
        config = dataclasses.replace(tiny_config, factor_grid=factor_grid)
        out = tmp_path / f"sw{len(factor_grid)}"
        calls.clear()
        run_sensitivity_sweep(config, out)
        assert len(calls) == solves
        rows = {}
        for name in ("sweep_alpha", "sweep_latency", "sweep_demand"):
            with open(out / f"{name}.csv") as fh:
                rows[name] = list(csv.reader(fh))[1:]
        base = [row[1:] for row in rows["sweep_alpha"] if float(row[0]) == config.sweep_alpha]
        assert [row[1:] for row in rows["sweep_demand"]] == base
        assert [row[1:] for row in rows["sweep_latency"] if float(row[0]) == 2.0] == base
        assert len(rows["sweep_latency"]) == len(factor_grid) * len(base)


def test_config_rejects_non_finite_values(tiny_config, tmp_path):
    # JSON's NaN and Infinity pass a `<= 0` test; they must fail at load, not
    # after thousands of projection iterations
    base = json.loads(tiny_config.to_json())
    for key, literal in [
        ("step_tol", "NaN"),
        ("alpha", "Infinity"),
        ("sensitivity_factor", "NaN"),
        ("epsilon_grid", "[0.1, NaN]"),
    ]:
        text = json.dumps({k: v for k, v in base.items() if k != key})
        text = text[:-1] + f', "{key}": {literal}}}'
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            ExperimentConfig.from_json(text)
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(text)
        assert cli_main(["solve-private", "--config", str(cfg), "--out-dir", str(tmp_path / key)]) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "a config must be a JSON object, not list"),
        ('{"n_days": "abc"}', "n_days: 'abc' is not an integer"),
        ('{"n_days": 2.5}', "n_days: 2.5 is not an integer"),
        ('{"n_days": true}', "n_days: True is not an integer"),
        ('{"n_grid": 5}', "n_grid must be a list, not 5"),
        ('{"dataset_seed": 1.5}', "dataset_seed: 1.5 is not an integer"),
        ('{"noise_seeds": [1.5]}', "noise_seeds: 1.5 is not an integer"),
        ('{"alpha": "abc"}', "alpha: 'abc' is not a number"),
        ('{"epsilon_grid": [0.1, false]}', "epsilon_grid: False is not a number"),
        ('{"net_path": 3}', "net_path must be a string, not 3"),
    ],
    ids=["top-level-list", "string-count", "fractional-count", "bool-count", "scalar-grid",
         "fractional-seed", "fractional-grid-seed", "string-number", "bool-grid-number",
         "number-path"],
)
def test_config_rejects_wrong_types(tmp_path, capsys, text, message):
    # each of these crashed with a TypeError traceback instead of an input error
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_json(text)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    for command in ("solve-baseline", "solve-private"):
        assert cli_main([command, "--config", str(cfg), "--out-dir", str(tmp_path / command)]) == 1
        assert f"input error: {message}" in capsys.readouterr().err


def test_config_keeps_integer_literals(tmp_path, capsys):
    # an integer is a valid number and stays an integer, so the resolved
    # config, and with it every metadata file, keeps the user's literal
    config = ExperimentConfig.from_json('{"alpha": 1, "gap_tol_rel": 1}')
    assert type(config.alpha) is int and type(config.gap_tol_rel) is int
    assert '"alpha": 1,' in config.to_json()
    # --seed goes through the same checks as the config file
    out = tmp_path / "out"
    assert cli_main(["solve-baseline", "--seed", "-1", "--out-dir", str(out)]) == 1
    assert "input error: dataset_seed must be >= 0" in capsys.readouterr().err


def test_solve_baseline_builds_start_once(tiny_config, monkeypatch):
    import privroute.baseline as baseline
    import privroute.harness as harness
    from privroute.demand import sample_dataset

    calls = []
    original = harness.initial_shortest_path_policy

    def counting(network, *args):
        if not args:  # the free-flow start, not a Frank-Wolfe vertex
            calls.append(1)
        return original(network, *args)

    monkeypatch.setattr(harness, "initial_shortest_path_policy", counting)
    monkeypatch.setattr(baseline, "initial_shortest_path_policy", counting)
    instance = load_instance(tiny_config)
    dataset = sample_dataset(instance.mean_demand, 3, 60.0, seed=1)
    harness.solve_baseline(tiny_config, instance, dataset)
    assert len(calls) == 1


def test_each_run_builds_one_projector_and_one_start(tiny_config, tmp_path, monkeypatch):
    # the projector and the free-flow start depend only on the topology, so
    # every N, scenario and baseline of a run shares the pair built first
    import sys

    import privroute.flow_polytope as flow_polytope

    counts = {}
    build_projector = flow_polytope.FlowProjector.__init__
    build_start = flow_polytope.initial_shortest_path_policy

    def counting_projector(self, *args, **kwargs):
        counts["projectors"] += 1
        build_projector(self, *args, **kwargs)

    def counting_start(network, *args):
        if not args:  # the free-flow start, not a Frank-Wolfe vertex
            counts["starts"] += 1
        return build_start(network, *args)

    monkeypatch.setattr(flow_polytope.FlowProjector, "__init__", counting_projector)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "privroute" and vars(module).get(
            "initial_shortest_path_policy"
        ) is build_start:
            monkeypatch.setattr(module, "initial_shortest_path_policy", counting_start)
    cfg = write_config(tmp_path, tiny_config)
    runs = {
        "convergence": lambda out: run_convergence(tiny_config, out),
        "privacy-cost": lambda out: run_privacy_cost(tiny_config, out),
        "sweep": lambda out: run_sensitivity_sweep(tiny_config, out),
        "solve-private": lambda out: cli_main(
            ["solve-private", "--config", cfg, "--out-dir", str(out)]
        ),
    }
    for name, run in runs.items():
        counts.update(projectors=0, starts=0)
        run(tmp_path / name)
        assert counts == {"projectors": 1, "starts": 1}, name


def test_privacy_cost_resolves_constants_once(tiny_config, tmp_path, monkeypatch):
    # sigma is calibrated from the constants object the descent ran with
    import privroute.harness as harness

    resolved = []
    compute = harness.compute_constants

    def counting(*args):
        resolved.append(compute(*args))
        return resolved[-1]

    monkeypatch.setattr(harness, "compute_constants", counting)
    run_privacy_cost(tiny_config, tmp_path / "out")
    assert len(resolved) == 1


def test_scenarios_share_one_projector_in_any_order(tiny_config, monkeypatch):
    import privroute.flow_polytope as flow_polytope

    built = []
    build = flow_polytope.FlowProjector.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(flow_polytope.FlowProjector, "__init__", counting)
    # a scenario made before the pipeline's projector is first read
    pipeline = Pipeline(tiny_config)
    early = pipeline.scenario(sensitivity_factor=3.0)
    assert early.projector is pipeline.projector
    assert early.scenario(demand_scale=2.0).projector is pipeline.projector
    # and one made after
    assert pipeline.scenario(demand_scale=0.5).projector is pipeline.projector
    assert len(built) == 1


def test_pipeline_is_freed_without_the_cycle_collector(tiny_config):
    # a pipeline holds x0 and the projector; a reference cycle through the
    # scenario link would keep both alive after each command until a
    # collection, which shows in the benchmark's peak RSS
    import gc
    import weakref

    pipeline = Pipeline(tiny_config)
    scenario = pipeline.scenario(demand_scale=2.0)
    refs = [weakref.ref(obj) for obj in (pipeline, scenario, scenario.projector)]
    gc.disable()
    try:
        del pipeline, scenario
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_scenario_of_a_given_instance_is_rejected(tiny_config, triangle, triangle_latency):
    # the scenario would reload the config's files, not the given network
    instance = Instance(triangle, triangle_latency, np.zeros((3, 3)))
    pipeline = Pipeline(tiny_config, instance)
    with pytest.raises(ValueError, match="given instance"):
        pipeline.scenario(sensitivity_factor=3.0)


def test_untraced_descents_evaluate_no_cost(tiny_config, tmp_path, monkeypatch):
    # the audit and the privacy-cost experiment keep only final iterates, so
    # no cost of an iterate is computed inside their descents
    import privroute.dp_sgd as dp_sgd

    def no_cost(*args):
        raise AssertionError("a descent evaluated a cost that no caller keeps")

    monkeypatch.setattr(dp_sgd, "regularized_cost", no_cost)
    monkeypatch.setattr(dp_sgd, "travel_time_cost", no_cost)
    audit_sensitivity(Pipeline(tiny_config), trials=2)
    run_privacy_cost(tiny_config, tmp_path / "pc")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def test_benchmark_spans_cover_the_cli(tiny_config, tmp_path):
    # the benchmark's solve_s is the per-round median of the private_sgd span
    # inside solve-private, and days_per_s reads the descend spans
    tracing = _load_bench("tracing")
    cfg = write_config(tmp_path, tiny_config)

    def spans(*argv, names=tracing.TIMED):
        tracer = tracing.Tracer()
        with tracing.install(tracer, names):
            assert cli_main([*argv, "--config", cfg, "--out-dir", str(tmp_path / argv[0])]) == 0
        return tracing.SpanTree(tracer.spans)

    def select(tree, name, **where):
        return tree.select(tracing.named(name), **where)

    tree = spans("solve-private")
    assert len(select(tree, "dp_sgd.private_sgd")) == 1
    descents = select(tree, "dp_sgd.descend")
    assert descents == select(tree, "dp_sgd.descend", under=("dp_sgd.private_sgd",))
    assert len(descents) == 1
    assert tree.attr_sum(descents, "days") == tiny_config.n_days

    # flow_polytope.rows and project_calls read the project_rows spans: every
    # step and the release project each routable row once, inside its policy
    tree = spans("solve-private", names=None)
    policies = select(tree, "flow_polytope.FlowProjector.project_policy")
    assert len(policies) == tiny_config.n_days + 1
    rows = select(tree, "flow_polytope.FlowProjector.project_rows")
    for policy in policies:
        assert set(tree.children[policy]) & set(rows)
    routable = len(Pipeline(tiny_config).projector.routable_pairs())
    assert tree.attr_sum(rows, "rows") == (tiny_config.n_days + 1) * routable

    tree = spans("audit", "--trials", "2")
    assert len(select(tree, "dp_sgd.descend")) == 4
    assert select(tree, "dp_sgd.private_sgd") == []

    tree = spans("experiment", "privacy-cost")
    assert len(select(tree, "dp_sgd.descend")) >= 1


def test_benchmark_checked_projector_sees_every_iterate(tiny_config, monkeypatch):
    # the benchmark's warm-up checks every policy that private_sgd projects
    # through perfbench's CheckedProjector, an override of project_policy
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load_bench("workloads")
    checked = []
    policy_problems = workloads.checks.policy_problems

    def counted(*args):
        checked.append(args[-1])
        return policy_problems(*args)

    monkeypatch.setattr(workloads.checks, "policy_problems", counted)
    pipeline = Pipeline(tiny_config)
    dataset, avg = pipeline.sample()
    problems = []
    private_sgd(
        dataset,
        pipeline.instance.network,
        pipeline.instance.latency,
        resolve_constants(tiny_config, pipeline.instance, dataset),
        PrivacyParams(tiny_config.epsilon, tiny_config.delta),
        pipeline.x0,
        seed=0,
        projector=workloads.CheckedProjector(pipeline.instance.network, problems),
    )
    assert len(checked) == tiny_config.n_days + 1
    assert problems == []
