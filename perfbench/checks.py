"""Output checkers that share no code with the program they check.

Every checker returns a list of problems (empty when the output passes). They
use only numpy and the raw network arrays (tails, heads), never the
program's incidence matrix, projector, cost functions or CSV readers, so a
fault in those cannot hide itself. `self_test()` feeds each checker one
deliberately broken output and reports every checker that failed to reject
it; run `python3 perfbench/checks.py` to see the result.
"""
from __future__ import annotations

import csv
import sys

import numpy as np

# Summation order differs from the program's (BLAS against a plain sum), so
# a residual recomputed here may differ from the program's own in the last
# bits; this allowance is five orders below the tightest tolerance checked.
SUM_ORDER = 1e-13
# Edge weights below this are not traced by the program's path peeling; a
# decomposition may leave up to this much per edge in its circulation.
PEEL_THRESHOLD = 1e-12


def net_inflow(X, tails, heads, n):
    """(rows, n) net inflow of each row of X: sum over entering minus leaving edges."""
    X = np.asarray(X, dtype=float)
    inflow = np.zeros((X.shape[0], n))
    for e, (u, v) in enumerate(zip(tails.tolist(), heads.tolist())):
        inflow[:, v] += X[:, e]
        inflow[:, u] -= X[:, e]
    return inflow


def reachable(tails, heads, n):
    """(n, n) boolean: a directed path leads from o to d (o reaches itself)."""
    reach = np.eye(n, dtype=bool)
    reach[tails, heads] = True
    for _ in range(max(1, int(np.ceil(np.log2(n))))):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return reach


def policy_problems(X, tails, heads, n, tol, label):
    """Feasibility of a stacked (n*n, m) policy at the projection tolerance tol.

    Box bounds must hold exactly. Each routable block's net inflow must be
    -1 at o, +1 at d and 0 elsewhere within tol at the first n - 1 nodes,
    which is the tolerance the projector states; the last node's row is the
    negated sum of the others, so it is held to (n - 1) tol. Diagonal and
    unroutable blocks must be exactly zero.
    """
    X = np.asarray(X, dtype=float)
    m = tails.size
    if X.shape != (n * n, m):
        return [f"{label}: shape {X.shape}, expected {(n * n, m)}"]
    problems = []
    if not np.all(np.isfinite(X)):
        problems.append(f"{label}: non-finite entries")
    if X.min() < 0.0 or X.max() > 1.0:
        problems.append(f"{label}: box bounds violated ({X.min()!r}, {X.max()!r})")
    reach = reachable(tails, heads, n)
    routable = reach.copy()
    np.fill_diagonal(routable, False)
    routable = routable.reshape(n * n)
    if np.any(X[~routable] != 0.0):
        problems.append(f"{label}: a diagonal or unroutable block is not zero")
    rows = np.nonzero(routable)[0]
    expected = np.zeros((rows.size, n))
    expected[np.arange(rows.size), rows // n] = -1.0
    expected[np.arange(rows.size), rows % n] = 1.0
    error = np.abs(net_inflow(X[rows], tails, heads, n) - expected)
    worst = float(error[:, : n - 1].max(initial=0.0))
    if worst > tol + SUM_ORDER:
        problems.append(f"{label}: conservation residual {worst:.3e} > tol {tol:.1e}")
    last = float(error[:, n - 1].max(initial=0.0))
    if last > (n - 1) * tol + SUM_ORDER:
        problems.append(f"{label}: last-node residual {last:.3e} > (n - 1) tol")
    return problems


def travel_time(X, demand, slope, free_flow):
    """Total travel time y . (slope * y + free_flow) with y the demand-weighted flow."""
    y = np.asarray(demand, dtype=float).reshape(-1) @ np.asarray(X, dtype=float)
    return float(np.sum(y * (slope * y + free_flow)))


def fw_lower_bound(trace):
    """Best certified lower bound max_j (cost_j - gap_j) of an alpha = 0 Frank-Wolfe trace.

    For a convex objective, the cost at any iterate minus its duality gap
    bounds the optimum from below.
    """
    return max(float(cost) - float(gap) for _, gap, cost in trace)


def lower_bound_problems(costs, bound, rel_tol, label):
    """Every cost must be at least the certified lower bound.

    rel_tol absorbs only the effect of the policy's own conservation
    tolerance on its cost (the policy sits within tol of the feasible set).
    """
    low = [c for c in costs if not c >= bound * (1.0 - rel_tol)]
    if low:
        return [f"{label}: cost {min(low)!r} below the Frank-Wolfe lower bound {bound!r}"]
    return []


def ratio_problems(ratio, limit, label):
    if not ratio <= limit:
        return [f"{label}: cost ratio {ratio!r} above {limit}"]
    return []


def audit_problems(rows, trials):
    """Audit rows (distance, bound) must satisfy distance <= bound, with no slack."""
    problems = []
    if len(rows) != trials:
        problems.append(f"audit: {len(rows)} trials, expected {trials}")
    for i, (distance, bound) in enumerate(rows):
        if not (bound > 0 and distance <= bound):
            problems.append(f"audit trial {i}: shift {distance!r} above bound {bound!r}")
    return problems


def privacy_cost_problems(table, limit_percent=1.0):
    """Privacy-cost cells {(eps, delta): percent}: each at most the limit and
    non-increasing in epsilon at every delta."""
    problems = [
        f"privacy cost ({e}, {d}) = {v!r}% above {limit_percent}%"
        for (e, d), v in sorted(table.items())
        if not v <= limit_percent
    ]
    for delta in sorted({d for _, d in table}):
        series = [table[(e, d)] for e, d in sorted(table) if d == delta]
        if any(a < b for a, b in zip(series, series[1:])):
            problems.append(f"privacy cost increases with epsilon at delta={delta}: {series}")
    return problems


def separation_problems(per_od, total_flow):
    """Each release is (detected without the trip, detected with it); the
    distinguisher must answer (False, True) on both."""
    problems = []
    for label, pair in (("per-od release", per_od), ("total-flow release", total_flow)):
        if pair is None or tuple(pair) != (False, True):
            problems.append(f"demo-impossibility: {label} gives {pair}, expected (False, True)")
    return problems


def decomposition_problems(paths, X, tails, heads, n, tol):
    """Path decompositions {(o, d): [(node sequence, weight), ...]} of policy X.

    Each path must be a simple o -> d path over existing edges with positive
    weight. The weighted paths must fit inside their block (leftover >= 0)
    and carry its unit of flow: the total weight may fall short of 1 only by
    what the block's conservation tolerance and the peel threshold allow.
    Every nonzero block must be decomposed.
    """
    X = np.asarray(X, dtype=float)
    m = tails.size
    edge_of = {(int(u), int(v)): e for e, (u, v) in enumerate(zip(tails, heads))}
    problems = []
    nonzero = {divmod(int(b), n) for b in np.nonzero(np.any(X != 0.0, axis=1))[0]}
    if set(paths) != nonzero:
        problems.append(
            f"decomposition covers {len(paths)} blocks, policy has {len(nonzero)} nonzero"
        )
    for (o, d), entries in sorted(paths.items()):
        rebuilt = np.zeros(m)
        total = 0.0
        for nodes, weight in entries:
            if nodes[0] != o or nodes[-1] != d or len(set(nodes)) != len(nodes):
                problems.append(f"block {(o, d)}: {nodes} is not a simple o -> d path")
                continue
            edges = [edge_of.get(pair) for pair in zip(nodes, nodes[1:])]
            if None in edges:
                problems.append(f"block {(o, d)}: {nodes} uses a missing edge")
                continue
            if not weight > 0:
                problems.append(f"block {(o, d)}: weight {weight!r} is not positive")
            rebuilt[edges] += weight
            total += weight
        leftover = X[o * n + d] - rebuilt
        if leftover.min(initial=0.0) < -SUM_ORDER:
            problems.append(f"block {(o, d)}: paths exceed the flow by {-leftover.min():.3e}")
        if abs(1.0 - total) > (n - 1) * tol + m * PEEL_THRESHOLD:
            problems.append(f"block {(o, d)}: path weights sum to {total!r}, not 1")
    return problems


def identical_problems(first, second, label):
    """Bitwise equality of two arrays or byte strings."""
    a = first if isinstance(first, bytes) else np.ascontiguousarray(first).tobytes()
    b = second if isinstance(second, bytes) else np.ascontiguousarray(second).tobytes()
    if a != b:
        return [f"{label}: repeated run with equal seeds is not bit-identical"]
    return []


def read_policy_csv(path, tails, heads, n):
    """Policy CSV (origin, destination, edge_tail, edge_head, value; 1-based ids)."""
    edge_of = {(int(u), int(v)): e for e, (u, v) in enumerate(zip(tails, heads))}
    X = np.zeros((n * n, tails.size))
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            o, d = int(row["origin"]) - 1, int(row["destination"]) - 1
            e = edge_of[(int(row["edge_tail"]) - 1, int(row["edge_head"]) - 1)]
            X[o * n + d, e] = float(row["value"])
    return X


def read_paths_csv(path):
    """Path CSV (origin, destination, path "a-b-c", weight) as 0-based node tuples."""
    paths = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            od = (int(row["origin"]) - 1, int(row["destination"]) - 1)
            nodes = tuple(int(v) - 1 for v in row["path"].split("-"))
            paths.setdefault(od, []).append((nodes, float(row["weight"])))
    return paths


def _triangle():
    """A 3-node directed cycle 0 -> 1 -> 2 -> 0 with a feasible policy."""
    tails, heads, n = np.array([0, 1, 2]), np.array([1, 2, 0]), 3
    X = np.zeros((9, 3))
    for o in range(3):
        for d in range(3):
            node = o
            while node != d:
                X[o * n + d, node] = 1.0  # edge `node` leaves node `node`
                node = (node + 1) % 3
    return tails, heads, n, X


def self_test():
    """Names of checkers that accept their deliberately broken input."""
    tails, heads, n, X = _triangle()
    tol = 1e-8
    missed = []
    if policy_problems(X, tails, heads, n, tol, "ok"):
        missed.append("policy_problems rejects a feasible policy")
    leak = X.copy()
    leak[1, 0] -= 2 * tol  # block (0, 1) loses flow on its only edge
    box = X.copy()
    box[1, 0] = np.nextafter(1.0, 2.0)
    for name, broken in (("conservation", leak), ("box bound", box)):
        if not policy_problems(broken, tails, heads, n, tol, name):
            missed.append(f"policy_problems accepts a {name} violation")
    trace = [(0, 5.0, 100.0), (1, 1.0, 97.0)]
    if not lower_bound_problems([95.9], fw_lower_bound(trace), 0.0, "fw"):
        missed.append("lower_bound_problems accepts a cost below the bound")
    if not ratio_problems(1.0500001, 1.05, "ratio"):
        missed.append("ratio_problems accepts 1.0500001 > 1.05")
    if not audit_problems([(1e-7, 1e-7), (np.nextafter(1e-7, 1.0), 1e-7)], 2):
        missed.append("audit_problems accepts a shift one ulp above the bound")
    if not privacy_cost_problems({(0.01, 0.1): 0.2, (0.1, 0.1): 0.3}):
        missed.append("privacy_cost_problems accepts a cost rising with epsilon")
    if not privacy_cost_problems({(0.01, 0.1): 1.01}):
        missed.append("privacy_cost_problems accepts a cell above 1%")
    if not separation_problems((False, True), (False, False)):
        missed.append("separation_problems accepts an undetected trip")
    good = {(o, d): [(tuple((o + i) % 3 for i in range((d - o) % 3 + 1)), 1.0)]
            for o in range(3) for d in range(3) if o != d}
    if decomposition_problems(good, X, tails, heads, n, tol):
        missed.append("decomposition_problems rejects a correct decomposition")
    not_simple = dict(good)
    not_simple[(0, 2)] = [((0, 1, 2, 0, 1, 2), 1.0)]
    short = dict(good)
    short[(0, 1)] = [((0, 1), 0.5)]
    for name, broken in (("non-simple path", not_simple), ("half-weight block", short)):
        if not decomposition_problems(broken, X, tails, heads, n, tol):
            missed.append(f"decomposition_problems accepts a {name}")
    flipped = X.copy()
    flipped[1, 0] = np.nextafter(flipped[1, 0], 0.0)
    if not identical_problems(X, flipped, "det"):
        missed.append("identical_problems accepts a one-ulp difference")
    return missed


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("checker self-test:", "FAIL" if failures else "PASS")
    sys.exit(1 if failures else 0)
