"""In-memory spans around the program's public functions.

The program is not edited: `install` rebinds each target function, in every
privroute module that holds a reference to it, to a wrapper that records a
span (name, start, end, parent, attributes), and restores the originals on
exit. The benchmark opens spans of its own (named `bench.*`, or `cli.<command>`
around each in-process CLI call) with `Tracer.span`.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time

import privroute

MODULES = ("net_model", "demand", "flow_polytope", "objective", "dp_sgd", "baseline",
           "audit", "harness", "cli")
# Public methods worth a span; other methods are accessors called per edge or
# per pair, where a wrapper would cost more than the work it times.
METHODS = {
    "net_model": (("Network", "__init__"),),
    "flow_polytope": (
        ("FlowProjector", "__init__"),
        ("FlowProjector", "project_rows"),
        ("FlowProjector", "project_policy"),
    ),
}
# Leaf helpers called once per od pair inside loops (up to n^2 times per
# policy); their cost is index arithmetic, which the caller's self time keeps.
SKIP = frozenset({"pair_index", "pair_of_index", "policy_shape", "conservation_rhs"})

# The three functions whose spans the untraced run times: solve_s,
# days_per_s and baseline_s are defined on them.
TIMED = ("dp_sgd.private_sgd", "dp_sgd.descend", "baseline.frank_wolfe_solve")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Attributes recorded on a span: name -> f(arguments, result) -> dict.
ANNOTATE = {
    "flow_polytope.FlowProjector.project_rows": lambda a, r: {"rows": int(r.shape[0])},
    "flow_polytope.FlowProjector.project_policy": lambda a, r: {"bytes": int(r.nbytes)},
    "demand.sample_dataset": lambda a, r: {"days": int(a["n_days"])},
    "dp_sgd.descend": lambda a, r: {"days": int(a["dataset"].day_count)},
    "baseline.frank_wolfe_solve": lambda a, r: {"iters": len(r[1])},
    "audit.audit_sensitivity": lambda a, r: {"trials": int(a["trials"])},
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _end(self, record):
        record[2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        record = self._begin(name)
        try:
            yield
        finally:
            self._end(record)

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(record)
            if annotate is not None:
                record[4].update(annotate(_bound(fn, args, kwargs), result))
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, **attrs}) + "\n")


def targets(names=None):
    """(span name, owner, attribute) of every traced function, or of `names`."""
    found = []
    for short in MODULES:
        module = sys.modules[f"privroute.{short}"]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_") and attr not in SKIP):
                found.append((f"{short}.{attr}", module, attr))
        for cls, method in METHODS.get(short, ()):
            found.append((f"{short}.{cls}.{method}", getattr(module, cls), method))
    if names is not None:
        found = [t for t in found if t[0] in names]
        if len(found) != len(names):
            raise LookupError(f"untraceable names: {set(names) - {t[0] for t in found}}")
    return found


@contextlib.contextmanager
def install(tracer, names=None):
    """Route calls to the target functions through tracer spans while active."""
    namespaces = [vars(sys.modules[f"privroute.{short}"]) for short in MODULES]
    namespaces.append(vars(privroute))
    saved = []
    try:
        for name, owner, attr in targets(names):
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            if inspect.isclass(owner):
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        saved.append((namespace, key, original))
                        namespace[key] = wrapper
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


class SpanTree:
    """Queries over one tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def ancestor_indices(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def select(self, match, under=None, not_under=None):
        """Indices of spans whose name satisfies `match`, optionally only those
        with (or without) an ancestor named in `under` (`not_under`)."""
        chosen = []
        for i, span in enumerate(self.spans):
            if not match(span[0]):
                continue
            if under or not_under:
                names = {self.spans[p][0] for p in self.ancestor_indices(i)}
                if under and not names & set(under):
                    continue
                if not_under and names & set(not_under):
                    continue
            chosen.append(i)
        return chosen

    def outer_time(self, match, **where):
        """Wall time in matching spans, each interval counted once (a match
        nested inside another match is not added again)."""
        chosen = self.select(match, **where)
        inside = set(chosen)
        return sum(
            (self.duration(i) for i in chosen
             if not any(p in inside for p in self.ancestor_indices(i))),
            0.0,
        )

    def self_time(self, i):
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def attr_sum(self, indices, key):
        return sum(self.spans[i][4].get(key, 0) for i in indices)


def named(*names):
    wanted = set(names)
    return lambda name: name in wanted


def median_ms(tree, indices):
    return 1e3 * statistics.median(tree.duration(i) for i in indices) if indices else 0.0


def layer_metrics(tracer, wall_s, untraced_wall_s):
    """Every per-layer metric from the spans of one traced pass."""
    t = SpanTree(tracer.spans)
    project = named("flow_polytope.FlowProjector.project_policy",
                    "flow_polytope.FlowProjector.project_rows")
    rows_spans = t.select(named("flow_polytope.FlowProjector.project_rows"))
    rows = t.attr_sum(rows_spans, "rows")
    rows_time = sum(t.duration(i) for i in rows_spans)
    policies = t.select(named("flow_polytope.FlowProjector.project_policy"))
    fw = t.select(named("baseline.frank_wolfe_solve"))
    fw_s = t.outer_time(named("baseline.frank_wolfe_solve"))
    fw_iters = t.attr_sum(fw, "iters")
    trials = t.attr_sum(t.select(named("audit.audit_sensitivity")), "trials")
    audit_cli_s = t.outer_time(named("cli.audit"))

    metrics = {
        "net_model.load_s": t.outer_time(lambda n: n.startswith("net_model.")),
        "demand.sample_s": t.outer_time(named("demand.sample_dataset")),
        "demand.days": t.attr_sum(t.select(named("demand.sample_dataset")), "days"),
        "flow_polytope.setup_s": t.outer_time(named("flow_polytope.FlowProjector.__init__")),
        "flow_polytope.x0_s": t.outer_time(
            named("flow_polytope.initial_shortest_path_policy"),
            not_under=("baseline.frank_wolfe_solve", "harness.solve_baseline")),
        "flow_polytope.project_calls": len(rows_spans),
        "flow_polytope.rows": rows,
        "flow_polytope.project_s": t.outer_time(project),
        "flow_polytope.step_ms": median_ms(t, t.select(
            named("flow_polytope.FlowProjector.project_policy"), under=("dp_sgd.descend",))),
        "flow_polytope.release_ms": median_ms(t, t.select(
            named("flow_polytope.FlowProjector.project_policy"),
            under=("dp_sgd.perturb_and_project",))),
        "flow_polytope.rows_per_s": rows / rows_time if rows_time > 0 else 0.0,
        "flow_polytope.policy_mb": max((t.spans[i][4]["bytes"] for i in policies), default=0) / 1e6,
        "objective.gradient_ms": median_ms(t, t.select(
            named("objective.gradient"), under=("bench.final_iterate",))),
        "objective.cost_ms": median_ms(t, t.select(
            named("objective.travel_time_cost"), under=("bench.final_iterate",))),
        "objective.constants_s": t.outer_time(
            named("objective.compute_constants", "objective.experimental_constants")),
        "dp_sgd.descend_s": t.outer_time(named("dp_sgd.descend")),
        # descend spans never nest, so its time minus the projections inside
        # it is the inline gradient, step, cost traces and start check
        "dp_sgd.self_s": t.outer_time(named("dp_sgd.descend"))
        - t.outer_time(project, under=("dp_sgd.descend",)),
        "dp_sgd.release_s": t.outer_time(named("dp_sgd.perturb_and_project")),
        "dp_sgd.noise_ms": median_ms(t, t.select(named("dp_sgd.sample_gaussian"))),
        "baseline.fw_s": fw_s,
        "baseline.fw_iters": fw_iters,
        "baseline.fw_ms_per_iter": 1e3 * fw_s / fw_iters if fw_iters else 0.0,
        "baseline.fw_calls": len(fw),
        "audit.trials": trials,
        "audit.solves": len(t.select(named("dp_sgd.private_sgd"),
                                     under=("audit.audit_sensitivity",))),
        "audit.trial_s": audit_cli_s / trials if trials else 0.0,
        "harness.convergence_s": t.outer_time(named("harness.run_convergence")),
        "harness.privacy_cost_s": t.outer_time(named("harness.run_privacy_cost")),
        "harness.sweep_s": t.outer_time(named("harness.run_sensitivity_sweep")),
        "cli.solve_private_s": t.outer_time(named("cli.solve-private")),
        "cli.solve_baseline_s": t.outer_time(named("cli.solve-baseline")),
        "cli.audit_s": audit_cli_s,
        "cli.demo_impossibility_s": t.outer_time(named("cli.demo-impossibility")),
        "cli.decompose_s": t.outer_time(named("cli.decompose")),
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
    }
    own = dict.fromkeys(MODULES + ("bench",), 0.0)
    for i, span in enumerate(t.spans):
        own[span[0].split(".")[0]] += t.self_time(i)
    top = sum(t.duration(i) for i, span in enumerate(t.spans) if span[3] < 0)
    own["bench"] += wall_s - top
    for module, seconds in own.items():
        metrics[f"self.{module}_s"] = seconds
    return metrics
