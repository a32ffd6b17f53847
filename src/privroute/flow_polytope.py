"""The feasible set of routing policies: unit (o,d) flows and their product.

A unit (o,d) flow is an edge vector x in [0, 1]^m whose net inflow is -1 at
o, +1 at d and 0 elsewhere. A routing policy stacks one such flow per ordered
vertex pair; policies are stored as arrays of shape (n*n, m) where block
index i corresponds to the pair (i // n, i % n) and diagonal (o == d) blocks
are identically zero. The per-edge upper bound of 1 is part of the feasible
set here: it keeps the set bounded (diameter n * sqrt(m)) in the presence of
directed cycles.

Projection onto a block polytope runs Dykstra's alternating projections
between the conservation subspace {x : A x = b} and the box [0, 1]^m. The
subspace is affine, so Dykstra's method is block-coordinate ascent on the
dual (Tibshirani, "Dykstra's algorithm, ADMM, and coordinate descent",
NeurIPS 2017) and runs on the conservation multipliers lam alone: iterate k
is x_k = clip(v + A^T lam_k, 0, 1), and lam_{k+1} = lam_k - G (A x_k - b)
with G the pseudo-inverse of A A^T. The conservation residual that the
stopping test reads is thus also the next step, and no box correction is
stored. A holds the conservation equations of all nodes but the last, whose
row is minus their sum. The feasible set is a product, so the blocks of a
policy are projected together as rows of one array; project_policy cuts a
policy's rows into cache-sized chunks and projects them on the CPUs that
BLAS leaves idle: one after another on the calling thread when BLAS runs a
thread per CPU (OpenBLAS's default), and on one thread per CPU when BLAS
is pinned to one thread. A chunk's rows and arithmetic are the same either
way, and so are its output bits.

That loop is preconditioned gradient ascent on the dual, so it runs in two
phases. The first _MOMENTUM_AFTER iterations of a batch are the plain loop
above. From then on the rows still active extrapolate their multipliers
with Nesterov momentum (Beck and Teboulle's FISTA): lam_k = y - G (A x - b)
with x read at y, then y = lam_k + beta_k (lam_k - lam_{k-1}), and a row's
momentum restarts (beta = 0, t = 1) when its step turns back against it,
<A x - b, lam_k - lam_{k-1}> > 0 (O'Donoghue and Candes, Found. Comput.
Math. 2015). Either phase stops on the same test, and for any multipliers
y the point x = clip(v + A^T y, 0, 1) is the exact projection of v onto the
polytope with right-hand side A x: a returned row is the exact projection
for a right-hand side within tol of b in each reduced equation.

Two cases need no iteration. A row that already lies in its polytope, in
the box with a zero residual, is its own projection: project_rows finds
such rows before it forms the batch and returns them as they are, without
copying them into the batch's buffers. And kept_vertex_rows finds the 0/1
path rows of a policy and certifies, from one all-pairs distance matrix
under the shared edge costs, which of them a projected gradient step of the
regularized cost leaves exactly in place, for any step size; the descent
hands those rows their vertex, which is then such a feasible row.
"""
from __future__ import annotations

import heapq
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .net_model import check_pair

DEFAULT_TOL = 1e-8
_PEEL_EPS = 1e-12
_MAX_DYKSTRA_ITERS = 10_000
# Bytes of one (rows, m) float64 buffer of a projection chunk: the handful of
# such buffers a Dykstra iteration streams then stays in L2 (1 MiB ran
# fastest of 256 KiB to 16 MiB on the 64-node grid).
_CHUNK_BYTES = 1 << 20
# Plain dual iterations per batch before the rows still active switch to
# restarted momentum. Nearly every step projection of the default runs freezes
# within 20 iterations and keeps the plain loop's iterates; momentum from
# the first iteration slowed them (five 64-node grid steps: 0.31 s against
# 0.26 s), while the noisy release there fell from 0.93 s to 0.39 s at 20.
_MOMENTUM_AFTER = 20
_SHOWN_PAIRS = 5  # unconverged pairs named in a ProjectionConvergenceError


class UnreachablePairError(ValueError):
    """No directed path exists between the requested endpoints."""


class ProjectionConvergenceError(RuntimeError):
    """Dykstra hit the iteration cap before meeting the tolerance.

    Carries the worst conservation residual at the cap, the iteration count,
    the number of unconverged pairs, the first few of them as 1-based
    (origin, destination) node ids, as printed, and all of them 0-based in
    stuck.
    """

    def __init__(self, residual, iterations, pairs):
        self.residual = residual
        self.iterations = iterations
        self.stuck = list(pairs)  # every unconverged (o, d), 0-based, in row order
        self.unconverged = len(pairs)
        self.pairs = tuple((o + 1, d + 1) for o, d in pairs[:_SHOWN_PAIRS])
        shown = ", ".join(f"({o}, {d})" for o, d in self.pairs)
        more = ", ..." if self.unconverged > _SHOWN_PAIRS else ""
        super().__init__(
            f"projection did not converge in {iterations} iterations "
            f"(conservation residual {residual:.3e}; "
            f"{self.unconverged} unconverged pairs: {shown}{more})"
        )


def pair_index(o, d, n):
    """Block position of the ordered pair (o, d) in a stacked policy."""
    return o * n + d


def reachability(network):
    """Boolean (n, n) matrix: reach[o, d] iff a directed o -> d path exists.

    The transitive closure of I | adjacency by repeated squaring: after k
    squarings it holds every path of up to 2^k edges, and a simple path has
    at most n - 1.
    """
    n = network.node_count
    reach = np.eye(n)
    reach[network.tails, network.heads] = 1.0
    for _ in range(math.ceil(math.log2(n))):
        reach = (reach @ reach > 0).astype(float)
    return reach > 0


def check_feasible_start(x0, network, reach, tol=1e-6):
    """x0 as an (n*n, m) float array (a view when it already is one), checked
    to be a feasible policy: every entry finite and in [0, 1] up to 1e-9, the
    net inflow of every routable block within tol of -1 at o and +1 at d, and
    of every other block within tol of zero. reach is reachability(network).
    A violation raises ValueError, naming the first bad block (1-based)."""
    n, m = network.node_count, network.edge_count
    X = np.asarray(x0, dtype=float).reshape(n * n, m)
    if not (X.min() >= -1e-9 and X.max() <= 1 + 1e-9):  # NaN fails too
        raise ValueError("x0 violates the per-edge [0, 1] bounds")
    error = X @ network.incidence_matrix().T
    o, d = np.nonzero(reach & ~np.eye(n, dtype=bool))  # the routable pairs
    blocks = o * n + d
    error[blocks, o] += 1.0
    error[blocks, d] -= 1.0
    np.abs(error, out=error)
    if error.max() > tol:
        o, d = divmod(int(np.flatnonzero(error.max(axis=1) > tol)[0]), n)
        raise ValueError(f"x0 block ({o + 1}, {d + 1}) is not a unit flow")
    return X


class FlowProjector:
    """Euclidean projection onto unit-flow polytopes of one network.

    The conservation equations share one reduced incidence matrix across all
    od pairs, so its normal matrix is factored once and reused, and the
    routable pairs of the network are listed once; the projector is
    read-only after construction and safe to share, across the caller's
    threads as across the threads that project_policy runs its chunks on
    (made at the first policy that uses them, and ended with the
    projector). reach is the network's reachability matrix: reach[o, d]
    iff a directed o -> d path exists.
    """

    def __init__(self, network):
        self.network = network
        n = network.node_count
        A = network.incidence_matrix()
        self._A_reduced = A[: n - 1]
        self._A_reduced_T = np.ascontiguousarray(self._A_reduced.T)
        gram = self._A_reduced @ self._A_reduced.T
        # pseudo-inverse: the (n-1) x (n-1) normal matrix is tiny, and this
        # also covers graphs whose underlying undirected graph is disconnected
        self._gram_solve_T = np.ascontiguousarray(np.linalg.pinv(gram).T)
        self.reach = reachability(network)
        routable = self.reach & ~np.eye(n, dtype=bool)
        self._pairs = np.argwhere(routable)  # row-major: sorted by (o, d)
        self._pair_rows = self._pairs[:, 0] * n + self._pairs[:, 1]
        self._pool, self._pool_lock = None, threading.Lock()

    def _rhs(self, o, d):
        # net inflow per row: -1 at o and +1 at d, without the dropped node n-1
        n = self.network.node_count
        B = np.zeros((o.size, n))
        rows = np.arange(o.size)
        B[rows, o] = -1.0
        B[rows, d] = 1.0
        return np.ascontiguousarray(B[:, : n - 1])

    def project_rows(self, V, pairs, tol=DEFAULT_TOL, *, overwrite_V=False):
        """Project each row of V onto the unit-flow polytope of its pair.

        pairs is a sequence of (o, d) or an integer array of shape (rows, 2).
        Returns an array of the same shape as V. The feasible rows are found
        first, by one residual product and a box test: a row inside the box
        with a zero residual is returned unchanged, without an iteration,
        and is not copied into the batch's buffers. Only the other rows are
        checked for finiteness (a row inside the box is finite), and they
        run as one batch of the dual Dykstra loop (module docstring), the
        batch that a call with those rows alone runs, bit for bit. Each
        block iterates until its own successive change drops to tol/10 and
        the residual of its n - 1 reduced conservation equations (all nodes
        but the last) to tol; converged blocks are frozen so stragglers do
        not re-run the whole batch. The last node's net-inflow error is
        minus the sum of the others, so it is held only to (n - 1) * tol.
        Raises ValueError for a non-finite tol or entry of V, or a pair that
        net_model.check_pair rejects (checked first), UnreachablePairError
        if a pair has no directed path (checked next), and
        ProjectionConvergenceError at the iteration cap, naming the
        unconverged pairs in row order.

        The multipliers start at zero in every call, and nothing is kept
        between calls. The release projection must not start from the
        descent's multipliers: those depend on the private data, the noise
        added before the release does not cover them, and the released
        policy would then depend on them.

        With overwrite_V, V (when a float array already) holds the returned
        rows, and the feasible rows stay where they are; when every row
        runs, V also serves as one of the batch's buffers. That saves a
        (rows, m) buffer for a caller that no longer needs V.
        """
        if not (tol > 0 and math.isfinite(tol)):
            raise ValueError("tol must be positive and finite")
        od = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        n, o, d = self.network.node_count, od[:, 0], od[:, 1]
        bad = np.flatnonzero((o == d) | (od < 0).any(axis=1) | (od >= n).any(axis=1))
        if bad.size:
            check_pair(od[bad[0]].tolist(), n)
        bad = np.flatnonzero(~self.reach[o, d])
        if bad.size:
            first_o, first_d = od[bad[0]].tolist()
            raise UnreachablePairError(
                f"no path from {first_o + 1} to {first_d + 1}: the flow polytope is empty"
            )
        V = np.asarray(V, dtype=float)
        rows, A_T = V.shape[0], self._A_reduced_T
        B = self._rhs(o, d)
        with np.errstate(invalid="ignore"):  # a non-finite row fails the check below
            R = V @ A_T - B  # residual of the start: the first step is the affine projection
        # a row inside the box with a zero residual is its own projection and
        # stays where it is; a row inside the box is finite, so only the
        # others are checked, and they run as the batch that a call with
        # them alone runs
        inside = V >= 0.0
        inside &= V <= 1.0
        rest = np.flatnonzero(R.any(axis=1) | ~inside.all(axis=1))
        del inside
        if not rest.size:
            return V if overwrite_V else V.copy()
        batch = V if rest.size == rows else V[rest]
        bad = np.flatnonzero(~np.isfinite(batch).all(axis=1))
        if bad.size:
            first_o, first_d = od[rest[bad[0]]]
            raise ValueError(f"non-finite entry in the row of pair ({first_o + 1}, {first_d + 1})")
        if rest.size == rows:
            store, order = self._dykstra(V, od, B, R, tol, overwrite_V)
            out = V if overwrite_V else np.empty_like(store)
            out[order] = store
            return out
        out = V if overwrite_V else V.copy()
        od, B = od[rest], B[rest]
        # the residual of the gathered batch, as a call with its rows alone forms it
        store, order = self._dykstra(batch, od, B, batch @ A_T - B, tol, own_V=True)
        out[rest[order]] = store
        return out

    def _dykstra(self, V, od, B, R, tol, own_V):
        # The rows of V projected by the dual loop (module docstring), from
        # the residual R = V A^T - B of their start, each stored from the end
        # of `store` as it freezes, its row number in `order`: while k rows
        # are active, store[:k] is a spare buffer. X, previous and V (once
        # read, when own_V) rotate through each other as the active rows
        # are compacted, so a batch holds V, store and two more (rows, m)
        # buffers.
        k = V.shape[0]
        store, order = np.empty(V.shape), np.empty(k, dtype=np.intp)
        active = np.arange(k)  # rows not yet frozen
        dead = []  # (rows, m) buffers no longer read, used before allocating

        def buffer():
            return dead.pop()[:k] if dead else np.empty((k, store.shape[1]))

        A, A_T, G_T = self._A_reduced, self._A_reduced_T, self._gram_solve_T
        n1 = A.shape[0]

        def scratch():
            # the spare rows of store, and in them, when they hold it
            # (n - 1 <= m), the (k, n - 1) product R G and |R| transposed:
            # each of the three is read before the next is formed
            spare = store[:k]
            rows = spare.reshape(-1)[: k * n1]
            if rows.size < k * n1:
                return spare, np.empty((k, n1)), np.empty((n1, k))
            return spare, rows.reshape(k, n1), rows.reshape(n1, k)

        def compact(a, keep):
            # the (k, n - 1) array a[keep], moved to the first rows of a
            moved = np.take(a, keep, axis=0, out=RG, mode="clip")
            a = a[: keep.size]
            a[...] = moved
            return a

        lam = np.zeros_like(R)
        # momentum state (module docstring), allocated when the second phase
        # starts and only for the rows still active then: y is the point X
        # and R are read at, t the per-row FISTA weight
        y = t = None
        X, previous = buffer(), buffer()
        spare, RG, R_abs = scratch()
        for iteration in range(1, _MAX_DYKSTRA_ITERS + 1):
            if iteration <= _MOMENTUM_AFTER:
                lam -= np.matmul(R, G_T, out=RG)
                np.matmul(lam, A, out=X)
            else:
                if y is None:
                    y, t = lam.copy(), np.ones(lam.shape[0])
                # lam_k = y - R G; y = lam_k + beta (lam_k - lam_{k-1}), with
                # beta = 0 and t = 1 on rows whose step turns back against
                # their momentum, <R, lam_k - lam_{k-1}> > 0
                np.subtract(y, np.matmul(R, G_T, out=RG), out=y)
                np.subtract(y, lam, out=lam)
                t[np.einsum("ij,ij->i", R, lam) > 0.0] = 1.0
                t_next = 0.5 + np.sqrt(0.25 + t * t)
                lam *= ((t - 1.0) / t_next)[:, None]
                lam += y
                t[:] = t_next
                lam, y = y, lam
                np.matmul(y, A, out=X)
            X += V
            np.clip(X, 0.0, 1.0, out=X)
            np.matmul(X, A_T, out=R)
            R -= B
            # |R| is formed transposed: numpy takes the maxima of its columns
            # elementwise across rows, far faster than those of many short rows
            residual = np.abs(R.T, out=R_abs).max(axis=0)
            if iteration > 1:
                # only rows whose residual already meets tol can freeze (NaN
                # never does), so the change is needed there alone; once they
                # are the majority, differencing every row is cheaper than
                # gathering them
                near = np.flatnonzero(residual <= tol)
                if 2 * near.size >= k:
                    change = np.abs(np.subtract(X, previous, out=spare), out=spare).max(axis=1)
                    done = np.flatnonzero((change <= tol / 10.0) & (residual <= tol))
                elif near.size:
                    now, then = spare[: near.size], spare[near.size : 2 * near.size]
                    np.take(X, near, axis=0, out=now, mode="clip")
                    np.take(previous, near, axis=0, out=then, mode="clip")
                    change = np.abs(np.subtract(now, then, out=now), out=now).max(axis=1)
                    done = near[change <= tol / 10.0]
                else:
                    done = near
                if done.size:
                    k -= done.size
                    np.take(X, done, axis=0, out=store[k : k + done.size], mode="clip")
                    order[k : k + done.size] = active[done]
                    if not k:
                        return store, order
                    keep = np.ones(active.size, dtype=bool)
                    keep[done] = False
                    keep = np.flatnonzero(keep)
                    active = active[keep]
                    # previous is dead once the change is known, X once it
                    # is compacted, and V then, unless the caller keeps it
                    dead.append(previous)
                    compact_X = np.take(X, keep, axis=0, out=buffer(), mode="clip")
                    dead.append(X)
                    compact_V = np.take(V, keep, axis=0, out=buffer(), mode="clip")
                    if own_V:
                        dead.append(V)
                    X, V, previous, own_V = compact_X, compact_V, buffer(), True
                    spare, RG, R_abs = scratch()
                    B, lam, R = compact(B, keep), compact(lam, keep), compact(R, keep)
                    if y is not None:
                        y, t = compact(y, keep), t[keep]
            X, previous = previous, X
        raise ProjectionConvergenceError(
            float(residual.max()), _MAX_DYKSTRA_ITERS, od[active].tolist()
        )

    def routable_pairs(self):
        """Ordered (o, d) pairs with o != d and a directed path between them."""
        return [(o, d) for o, d in self._pairs.tolist()]

    def project_policy(self, x, tol=DEFAULT_TOL):
        """Blockwise projection of a stacked policy.

        Diagonal blocks map to zero, as do blocks of pairs with no directed
        path (their unit-flow polytope is empty, so they are pinned to the
        zero flow and carry no demand in any valid model). The routable rows
        are cut into chunks of _CHUNK_BYTES per (rows, m) buffer, and each
        chunk is gathered and handed to project_rows on its own, so no
        full-size copy of x is made. Each row follows the same iterates, up
        to rounding, as in one batch. Rows that already lie in their
        polytope, as the rows that a descent step keeps on their vertex do,
        cost a chunk its gather, one residual product and a box test, and
        only the others iterate (project_rows). The chunks run on
        _chunk_workers() threads, the calling thread among them: more than
        one only when BLAS runs fewer threads than there are CPUs and the
        policy has more than one chunk (a one-chunk policy, such as Sioux
        Falls, never reads the rule). The chunk boundaries, and so the
        output bits, do not depend on the thread count. Every chunk
        finishes before an error is raised: the first error other than a
        ProjectionConvergenceError in row order, or else one
        ProjectionConvergenceError that names the unconverged pairs of all
        chunks in row order.
        """
        n, m = self.network.node_count, self.network.edge_count
        X = np.asarray(x, dtype=float).reshape(n * n, m)
        out = np.zeros((n * n, m))
        chunk = max(1, _CHUNK_BYTES // max(1, 8 * m))
        # at least one chunk, so that a policy with no routable pair still checks tol
        starts = range(0, max(1, self._pair_rows.size), chunk)
        errors = [None] * len(starts)
        untaken, taking = iter(enumerate(starts)), threading.Lock()

        def drain():
            # project chunks, one at a time, until none is left untaken
            while True:
                with taking:
                    i, start = next(untaken, (None, None))
                if i is None:
                    return
                rows = self._pair_rows[start : start + chunk]
                try:
                    out[rows] = self.project_rows(
                        X[rows], self._pairs[start : start + chunk], tol=tol, overwrite_V=True)
                except Exception as err:  # raised below, in row order
                    errors[i] = err

        # a one-chunk policy runs on the calling thread without reading the rule
        workers = min(len(starts), _chunk_workers()) if len(starts) > 1 else 1
        pool = self._helpers(workers - 1) if workers > 1 else None
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        try:
            drain()
        finally:
            for helper in helpers:
                helper.result()
        failed = [err for err in errors if err is not None]
        for err in failed:
            if not isinstance(err, ProjectionConvergenceError):
                raise err
        if failed:
            raise ProjectionConvergenceError(
                max(err.residual for err in failed), _MAX_DYKSTRA_ITERS,
                [pair for err in failed for pair in err.stuck])
        return out

    def _helpers(self, threads):
        # the pool that helps the calling thread through a policy's chunks,
        # made at first use with that many threads, which end when the
        # projector is dropped
        with self._pool_lock:
            if self._pool is None:
                self._pool = _chunk_pool(threads)
            return self._pool


def _chunk_workers():
    """Threads that project a policy's chunks: max(1, cpus // blas), with
    cpus the CPUs this process may run on and blas the threads OpenBLAS
    runs, read as OpenBLAS reads them: the first of OPENBLAS_NUM_THREADS
    and OMP_NUM_THREADS that holds a positive integer, else one per CPU.
    Unpinned BLAS thus keeps the chunks on the calling thread, where more
    threads would only contend with its own."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


def _chunk_pool(threads):
    # imported here: concurrent.futures brings in logging, about 4 ms of
    # every run's import time, and most runs never make a pool
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="privroute-chunks")


def project_unit_flow(v, od, network, tol=DEFAULT_TOL):
    """Euclidean projection of an edge vector onto the unit (o, d) flow polytope."""
    return FlowProjector(network).project_rows(np.reshape(v, (1, -1)), [od], tol=tol)[0]


def _cost_list(costs):
    # one (m,) cost vector as a list of Python floats, checked nonnegative
    if np.any(costs < 0):
        raise ValueError("edge costs must be nonnegative")
    return costs.tolist()


def _dijkstra(sources, edge_costs, network, cost_rows=None):
    # shortest_path_tree from each source under one shared (m,) cost vector
    # or its own row of 2-D costs, row cost_rows[i] for source i (row i when
    # cost_rows is None), read one row at a time: (len(sources), n) arrays of
    # distances and of predecessor edges
    costs = np.asarray(edge_costs, dtype=float)
    per_row = costs.ndim == 2
    cost = None if per_row else _cost_list(costs)
    if cost_rows is None:
        cost_rows = range(len(sources))
    n, heads, out_edges = network.node_count, network.heads.tolist(), network.out_edges
    pop, push = heapq.heappop, heapq.heappush
    dists, preds = [], []
    for source, row in zip(sources, cost_rows):
        if per_row:
            cost = _cost_list(costs[row])
        dist, pred_edge, seq, done = [math.inf] * n, [-1] * n, [None] * n, [False] * n
        dist[source], seq[source] = 0.0, ()
        heap = [(0.0, (), source)]
        while heap:
            d_u, seq_u, u = pop(heap)
            if done[u]:
                continue
            done[u] = True
            for e in out_edges(u):
                v = heads[e]
                if done[v]:
                    continue
                cand = d_u + cost[e]  # a NaN cost relaxes nothing; inf reaches inf
                if cand < dist[v] or cand == dist[v] and (seq[v] is None or seq_u + (e,) < seq[v]):
                    dist[v], pred_edge[v], seq[v] = cand, e, seq_u + (e,)
                    push(heap, (cand, seq[v], v))
        dists.append(dist)
        preds.append(pred_edge)
    return np.array(dists), np.array(preds, dtype=np.intp)


def shortest_path_tree(source, edge_costs, network):
    """Deterministic Dijkstra from one source under nonnegative edge costs.

    The heap is keyed on (distance, edge-index sequence, node), so ties in
    path cost go to the lexicographically smallest sequence. A node's
    sequence is built only when a relaxation lowers its distance or ties it
    with a smaller sequence. Returns (distances, predecessor edge per node):
    the tree path to v is the path to the tail of pred_edge[v] followed by
    that edge. Nodes without a finite-cost path carry distance inf; the
    source and nodes no edge reaches carry predecessor -1. A source outside
    0..n-1 raises ValueError.
    """
    if not 0 <= source < network.node_count:
        raise ValueError(f"source {source + 1} is not a node in 1..{network.node_count}")
    dist, pred_edge = _dijkstra([source], edge_costs, network)
    return dist[0], pred_edge[0]


def shortest_path_flow(od, edge_costs, network):
    """0/1 indicator of a minimum-cost simple o -> d path (a polytope vertex)."""
    o, d = check_pair(od, network.node_count)
    dist, pred_edge = shortest_path_tree(o, edge_costs, network)
    if not np.isfinite(dist[d]):
        raise UnreachablePairError(f"no path from {o + 1} to {d + 1}")
    flow = np.zeros(network.edge_count)
    while d != o:
        flow[pred_edge[d]] = 1.0
        d = network.tails[pred_edge[d]]
    return flow


def _tree_support(network, costs):
    # (rows, edges) of the tree path of every off-diagonal pair that the trees
    # reach, each entry once: shared (m,) costs take one tree per origin,
    # per-block (n*n, m) costs one tree per off-diagonal block, stored at the
    # block's row. All reached pairs then walk back from their destinations
    # together, one edge per pair and step, until each reaches its origin.
    n = network.node_count
    off_diagonal = ~np.eye(n, dtype=bool)
    per_block = costs.ndim == 2
    if per_block:
        o, d = np.nonzero(off_diagonal)
        blocks = pair_index(o, d, n)
        dist, pred_edge = np.full((n * n, n), np.inf), np.full((n * n, n), -1)
        dist[blocks], pred_edge[blocks] = _dijkstra(o, costs, network, blocks)
        dist = dist.reshape(n, n, n).diagonal(axis1=1, axis2=2)  # [o, d]: d in the tree of (o, d)
    else:
        dist, pred_edge = _dijkstra(range(n), costs, network)
    o, cur = np.nonzero(np.isfinite(dist) & off_diagonal)  # row-major
    rows = pair_index(o, cur, n)
    walked = [(rows[:0], rows[:0])]
    while rows.size:
        e = pred_edge[rows if per_block else o, cur]
        walked.append((rows, e))
        cur = network.tails[e]
        more = cur != o
        rows, o, cur = rows[more], o[more], cur[more]
    return tuple(map(np.concatenate, zip(*walked)))


def all_pairs_distances(edge_costs, network):
    """(n, n) costs of the cheapest o -> d paths under nonnegative edge
    costs, inf where no path exists: Floyd-Warshall, one vectorized
    relaxation through each intermediate node."""
    n = network.node_count
    dist = np.full((n, n), np.inf)
    np.minimum.at(dist, (network.tails, network.heads), edge_costs)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return dist


def kept_vertex_rows(X, demand, edge_costs, alpha, network):
    """Indices, in row order, of the rows of policy X that a projected
    gradient step of the regularized cost leaves exactly in place.

    The candidates are the nonzero rows of X that are exact 0/1: for a
    feasible X, the routable blocks (o, d) holding a 0/1 unit flow p (with
    none, no distance is computed). Its gradient block is g = L(o,d)
    edge_costs + alpha p with the shared edge_costs of objective.edge_costs,
    and P(p - eta g) = p for every step eta > 0 exactly when p minimizes
    <g, x> over the polytope: as g >= 0, when p is a cheapest o -> d path
    under g. With D the all-pairs distances under edge_costs, the reduced
    cost of an edge that o reaches is r = cost + D[o, tail] - D[o, head].
    The edge is tight when |r| <= t_o, the rounding allowance
    2 n eps (max D[o] + max cost); edges into o are left out, as no simple
    path from o uses them. A candidate is kept when
    - every edge of p is tight, so p is a cheapest path under edge_costs;
    - every node of p after o has exactly one tight in-edge, so p is the
      only one;
    - L(o,d) (rho_o - 4 n t_o) >= alpha |p|, with rho_o the smallest
      reduced cost from o that is not tight (negative fails).
    Walking back from d along tight edges retraces p, so any other simple
    o -> d path q uses an edge with r >= rho_o. The reduced costs telescope
    along paths, each is exact to within t_o, and so
    <g, q - p> >= L(o,d) (rho_o - 4 n t_o) - alpha |p| >= 0.
    """
    n, tails, heads = network.node_count, network.tails, network.heads
    ones = X == 1.0
    rows = ones.any(axis=1)
    ones |= X == 0.0
    rows = np.flatnonzero(rows & ones.all(axis=1))  # the nonzero 0/1 rows
    if not rows.size:
        return rows
    origins = rows // n
    dist = all_pairs_distances(edge_costs, network)
    reached = np.isfinite(dist)
    allowance = 2 * n * np.finfo(float).eps * (
        np.where(reached, dist, 0.0).max(axis=1) + edge_costs.max(initial=0.0))
    with np.errstate(invalid="ignore"):  # inf - inf on edges that o does not reach
        reduced = edge_costs + dist[:, tails] - dist[:, heads]
    reduced[~reached[:, tails]] = np.nan
    reduced[heads, np.arange(heads.size)] = np.nan  # row o: the edges into o
    size = np.abs(reduced)
    tight, off = size <= allowance[:, None], size > allowance[:, None]  # NaN is neither
    o, e = np.nonzero(tight)
    tight_in = np.bincount(o * n + heads[e], minlength=n * n).reshape(n, n)
    # per origin and edge: 1 off a unique tight path. Each row's misses and
    # length are sums of 0/1 products, exact in any order: a few rows are
    # gathered, and for more one product over the whole policy reads less
    # (8 x 8 grid, one BLAS thread: 230 rows 0.08 ms against 0.32 ms, all
    # 4,032 rows 2.3 ms against 0.38 ms)
    off_path = ~(tight & (tight_in[:, heads] == 1))
    if 8 * rows.size < n * n:
        P = X[rows]
        misses, length = np.einsum("ij,ij->i", P, off_path[origins].astype(float)), P.sum(axis=1)
    else:
        weights = np.ones((n, heads.size, 2))
        weights[:, :, 0] = off_path
        misses, length = np.matmul(X.reshape(n, n, -1), weights).reshape(n * n, 2)[rows].T
    rho = np.where(off, reduced, np.inf).min(axis=1) - 4 * n * allowance
    with np.errstate(invalid="ignore"):  # 0 * inf: no rate, no other path
        margin = np.asarray(demand, dtype=float).reshape(n * n)[rows] * rho[origins]
    return rows[(misses == 0.0) & (margin >= alpha * length)]


def initial_shortest_path_policy(network, edge_costs=None):
    """All-or-nothing policy: every od block on its cheapest path.

    edge_costs is one (m,) vector shared by all blocks, free-flow times by
    default, or one cost row per block, of shape (n*n, m). Paths and ties are
    those of shortest_path_tree. Diagonal blocks stay zero, as do blocks of
    pairs with no finite-cost path (matching the projector's convention).
    """
    costs = np.asarray(network.free_flow_time if edge_costs is None else edge_costs, dtype=float)
    policy = np.zeros((network.node_count ** 2, network.edge_count))
    policy[_tree_support(network, costs)] = 1.0
    return policy


@dataclass(frozen=True)
class PathDistribution:
    """A unit flow expressed as weighted o -> d paths plus a leftover circulation."""

    od: tuple
    paths: tuple  # tuples of edge indices
    weights: tuple
    circulation: np.ndarray


def _trace_path(residual, od, network):
    # depth-first search over edges holding more than the peel threshold,
    # choosing the smallest edge index first; visited set keeps paths simple
    o, d = od
    stack = [(o, ())]
    seen = {o}
    while stack:
        u, path = stack.pop()
        if u == d:
            return path
        # push larger indices first so the smallest is explored first
        for e in reversed(network.out_edges(u)):
            if residual[e] > _PEEL_EPS and network.heads[e] not in seen:
                seen.add(network.heads[e])
                stack.append((network.heads[e], path + (e,)))
    return None


def decompose_flow(x, od, network):
    """Peel a feasible unit flow into at most m weighted simple paths.

    The bottleneck edge of each traced path is subtracted until no o -> d
    path remains above the peel threshold or the extracted weight reaches 1;
    whatever mass is left is reported as the circulation.
    """
    residual = np.asarray(x, dtype=float).copy()
    paths = []
    weights = []
    extracted = 0.0
    for _ in range(network.edge_count):
        if extracted >= 1.0 - 1e-9:
            break
        path = _trace_path(residual, od, network)
        if path is None:
            break
        bottleneck = float(np.min(residual[list(path)]))
        w = min(bottleneck, 1.0 - extracted)
        residual[list(path)] -= w
        paths.append(path)
        weights.append(w)
        extracted += w
    return PathDistribution(
        od=tuple(od),
        paths=tuple(paths),
        weights=tuple(weights),
        circulation=np.clip(residual, 0.0, None),
    )
