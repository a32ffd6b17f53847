import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from privroute import audit
from privroute.audit import audit_sensitivity, demo_impossibility
from privroute.demand import sample_dataset
from privroute.dp_sgd import descend, sensitivity_bound
from privroute.flow_polytope import FlowProjector, initial_shortest_path_policy
from privroute.harness import ExperimentConfig, Instance, Pipeline
from privroute.net_model import affine_latency_from
from privroute.objective import compute_constants


def make_audit_pipeline(ring5, ring5_demand, n_days=10, alpha=1.0):
    return Pipeline(
        ExperimentConfig(n_days=n_days, alpha=alpha, period_minutes=60.0, dataset_seed=17),
        Instance(ring5, affine_latency_from(ring5, 2.0), ring5_demand),
    )


def csv_lines(report, tmp_path):
    report.to_csv(tmp_path / "audit.csv")
    return (tmp_path / "audit.csv").read_text().splitlines()


def test_audit_passes_on_ring(ring5, ring5_demand):
    report = audit_sensitivity(make_audit_pipeline(ring5, ring5_demand), trials=6)
    assert report.passed
    assert len(report.trials) == 6
    assert report.max_ratio <= 1.0 + report.slack
    for row in report.trials:
        assert row.distance <= row.bound + 10 * 10 * 1e-6


def test_audit_csv_shape(ring5, ring5_demand, tmp_path):
    report = audit_sensitivity(make_audit_pipeline(ring5, ring5_demand), trials=3)
    lines = csv_lines(report, tmp_path)
    assert lines[0] == "trial,t,o,d,distance,bound,ratio"
    assert len(lines) == 5  # header + 3 trials + summary
    assert lines[-1].startswith("summary")
    assert lines[-1].endswith("PASS")


def test_audit_strict_verdict(ring5, ring5_demand, monkeypatch, tmp_path):
    pipeline = make_audit_pipeline(ring5, ring5_demand)
    report = audit_sensitivity(pipeline, trials=3)
    assert report.strict_passed
    assert csv_lines(report, tmp_path)[-1].endswith(",PASS,strict=PASS")
    # bounds a millionth of the true ones: every nonzero shift exceeds them
    monkeypatch.setattr(audit, "sensitivity_bound", lambda *args: 1e-6 * sensitivity_bound(*args))
    report = audit_sensitivity(pipeline, trials=3)
    assert not report.strict_passed
    assert csv_lines(report, tmp_path)[-1].endswith("strict=FAIL")


def test_audit_runs_on_the_pipeline_projector_and_start(ring5, ring5_demand, monkeypatch):
    import sys

    calls = []

    class RecordingProjector(FlowProjector):
        def project_policy(self, *args, **kwargs):
            calls.append(1)
            return super().project_policy(*args, **kwargs)

    def no_start(*args):
        raise AssertionError("the audit built a start of its own")

    def no_projector(self, *args):
        raise AssertionError("the audit built a projector of its own")

    pipeline = make_audit_pipeline(ring5, ring5_demand, n_days=4)
    pipeline.projector = RecordingProjector(ring5)
    monkeypatch.setattr(FlowProjector, "__init__", no_projector)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "privroute" and hasattr(module, "initial_shortest_path_policy"):
            monkeypatch.setattr(module, "initial_shortest_path_policy", no_start)
    audit_sensitivity(pipeline, trials=3)
    assert len(calls) == 2 * 4 * 3  # one projection per day of each twin descent


def test_identical_datasets_zero_distance(ring5, ring5_demand):
    # the deterministic part ignores the gaussian seed entirely
    lat = affine_latency_from(ring5, 2.0)
    ds = sample_dataset(ring5_demand, 5, 60.0, seed=3)
    consts = compute_constants(ring5, lat, float(ds.matrices.max()), 1.0, 60.0)
    projector = FlowProjector(ring5)
    x0 = initial_shortest_path_policy(ring5)
    a = descend(ds, ring5, lat, consts, x0, projector=projector)
    b = descend(ds, ring5, lat, consts, x0, projector=projector)
    assert np.array_equal(a, b)


def test_bound_halves_when_days_double():
    from privroute.objective import ModelConstants

    consts = ModelConstants(
        lambda_max=1.0, alpha=1.0, beta=100.0, cross_sensitivity=5.0,
        gradient_bound=0.0, period_minutes=60.0,
    )
    n = 1000  # deep in the 1/(alpha N) branch
    assert sensitivity_bound(consts, 2 * n) == pytest.approx(sensitivity_bound(consts, n) / 2)


def test_demo_impossibility_triangle(triangle):
    report = demo_impossibility(triangle, np.zeros((3, 3)), (0, 2), period_minutes=60.0)
    assert not report.detected_without_trip
    assert report.detected_with_trip
    assert not report.detected_without_trip_total_flow
    assert report.detected_with_trip_total_flow
    assert report.separated


def test_demo_impossibility_requires_isolated_endpoints(triangle):
    base = np.zeros((3, 3))
    base[0, 1] = 0.5  # origin carries demand
    with pytest.raises(ValueError, match="isolated"):
        demo_impossibility(triangle, base, (0, 2))


def test_demo_impossibility_with_background_demand(ring5):
    # other nodes may carry demand; only the od endpoints must be silent
    base = np.zeros((5, 5))
    base[1, 3] = 2.0
    base[3, 1] = 1.0
    report = demo_impossibility(ring5, base, (0, 2), period_minutes=60.0)
    assert report.separated


def test_audit_trials_validation(ring5, ring5_demand):
    with pytest.raises(ValueError):
        audit_sensitivity(make_audit_pipeline(ring5, ring5_demand), trials=0)


# Prints the SHA-256 of 15 alpha = 100 Frank-Wolfe iterations on Sioux Falls
# (policy and trace) and the exact bits of one default audit trial's shift.
_THREAD_PROBE = """
import hashlib
import numpy as np
from privroute.audit import audit_sensitivity
from privroute.baseline import frank_wolfe_solve
from privroute.harness import ExperimentConfig, Pipeline
pipeline = Pipeline(ExperimentConfig())
instance = pipeline.instance
X, trace = frank_wolfe_solve(instance.mean_demand, instance.network, instance.latency,
                             alpha=100.0, gap_tol=1e-300, max_iters=15)
digest = hashlib.sha256(X.tobytes())
digest.update(np.array(trace).tobytes())
print(digest.hexdigest(), audit_sensitivity(pipeline, trials=1).trials[0].distance.hex())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # every sum that reaches an output is numpy's own, not a threaded BLAS
    # dot, so one and two BLAS threads print the same bytes
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        runs.append(subprocess.Popen([sys.executable, "-c", _THREAD_PROBE], env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err.decode()
        outputs.append(out)
    assert outputs[0] == outputs[1]
