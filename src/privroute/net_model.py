"""Directed road network model, affine link latency, and TNTP file I/O.

Node ids are 1-based in TNTP files and 0-based internally. The edge order of
a parsed network is the file order and fixes the coordinate order of every
flow vector built on top of it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TNTPFormatError(ValueError):
    """Raised when a TNTP file violates the expected format."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Network:
    """Directed graph with per-edge free-flow times and capacities.

    Attributes:
        node_count: number of nodes n (nodes are 0 .. n-1 internally).
        tails: int array of shape (m,) with the tail node of each edge.
        heads: int array of shape (m,) with the head node of each edge.
        free_flow_time: float array (m,), minutes per traversal at zero flow.
        capacity: float array (m,), flow units per minute.
    """

    node_count: int
    tails: np.ndarray
    heads: np.ndarray
    free_flow_time: np.ndarray
    capacity: np.ndarray
    _edge_index: dict = field(repr=False, default_factory=dict)
    _out_edges: list = field(repr=False, default_factory=list)

    def __post_init__(self):
        n = self.node_count
        if n < 2:
            raise ValueError("network needs at least 2 nodes")
        tails = np.asarray(self.tails, dtype=np.intp)
        heads = np.asarray(self.heads, dtype=np.intp)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(
            self, "free_flow_time", np.asarray(self.free_flow_time, dtype=float)
        )
        object.__setattr__(self, "capacity", np.asarray(self.capacity, dtype=float))
        if tails.shape != heads.shape or tails.ndim != 1:
            raise ValueError("tails/heads must be 1-d arrays of equal length")
        if np.any((tails < 0) | (tails >= n)) or np.any((heads < 0) | (heads >= n)):
            raise ValueError("edge endpoint outside node range")
        if np.any(tails == heads):
            raise ValueError("self-loops are not allowed")
        if not np.all((0 <= self.free_flow_time) & (self.free_flow_time < np.inf)):
            raise ValueError("free-flow times must be nonnegative and finite")
        if not np.all((0 < self.capacity) & (self.capacity < np.inf)):
            raise ValueError("capacities must be positive and finite")
        index = {}
        out_edges = [[] for _ in range(n)]
        for e, (u, v) in enumerate(zip(tails.tolist(), heads.tolist())):
            if (u, v) in index:
                raise ValueError(f"duplicate edge {u + 1}->{v + 1}")
            index[(u, v)] = e
            out_edges[u].append(e)
        object.__setattr__(self, "_edge_index", index)
        object.__setattr__(self, "_out_edges", out_edges)

    @property
    def edge_count(self):
        return self.tails.shape[0]

    def edge_index(self, tail, head):
        return self._edge_index[(tail, head)]

    def out_edges(self, node):
        return self._out_edges[node]

    def incidence_matrix(self):
        """Dense node-edge incidence A with A[u, e] = +1 if e enters u, -1 if e leaves u.

        A @ x is the net flow into each node.
        """
        A = np.zeros((self.node_count, self.edge_count))
        A[self.heads, np.arange(self.edge_count)] += 1.0
        A[self.tails, np.arange(self.edge_count)] -= 1.0
        return A


@dataclass(frozen=True)
class LatencyModel:
    """Affine link latency: traversal time on edge e is slope[e] * flow + free_flow[e]."""

    slope: np.ndarray
    free_flow: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "slope", np.asarray(self.slope, dtype=float))
        object.__setattr__(self, "free_flow", np.asarray(self.free_flow, dtype=float))
        if np.any(self.slope < 0) or np.any(self.free_flow < 0):
            raise ValueError("latency coefficients must be nonnegative")

    @property
    def max_slope(self):
        """Operator norm of the diagonal slope matrix."""
        return float(np.max(self.slope)) if self.slope.size else 0.0


def _metadata_value(line, tag, line_no):
    body = line.split(">", 1)[1].strip()
    if not body:
        raise TNTPFormatError(f"missing value after {tag}", line_no)
    try:
        value = float(body)
    except ValueError:
        raise TNTPFormatError(f"non-numeric value after {tag}: {body!r}", line_no) from None
    if not value.is_integer():  # nor are NaN and inf
        raise TNTPFormatError(f"non-integer value after {tag}: {body!r}", line_no)
    return int(value)


def parse_tntp_network(text):
    """Parse TNTP net-format text into a Network.

    Header metadata must declare <NUMBER OF NODES> and <NUMBER OF LINKS>.
    Data rows are whitespace separated: init_node, term_node, capacity,
    length, free_flow_time, b, power, speed, toll, type, terminated by ';'.
    The trailing columns are parsed and ignored (only the affine model is
    supported); non-finite or out-of-range capacities and times are rejected.
    """
    n_nodes = None
    n_links = None
    in_data = False
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not in_data:
            upper = line.upper()
            if upper.startswith("<NUMBER OF NODES"):
                n_nodes = _metadata_value(line, "<NUMBER OF NODES>", line_no)
            elif upper.startswith("<NUMBER OF LINKS"):
                n_links = _metadata_value(line, "<NUMBER OF LINKS>", line_no)
            elif upper.startswith("<END OF METADATA"):
                if n_nodes is None or n_links is None:
                    raise TNTPFormatError(
                        "metadata must declare node and link counts", line_no
                    )
                in_data = True
            elif line.startswith("<"):
                continue  # other metadata tags are irrelevant here
            else:
                raise TNTPFormatError(f"unexpected line before metadata end: {line!r}", line_no)
            continue
        if line.startswith("~"):
            continue  # column header line
        fields = line.rstrip(";").split()
        if len(fields) < 5:
            raise TNTPFormatError(
                f"expected at least 5 fields per link row, got {len(fields)}", line_no
            )
        try:
            tail = int(fields[0])
            head = int(fields[1])
            cap = float(fields[2])
            fft = float(fields[4])
        except ValueError:
            raise TNTPFormatError(f"malformed link row: {line!r}", line_no) from None
        if not 1 <= tail <= n_nodes or not 1 <= head <= n_nodes:
            raise TNTPFormatError(
                f"node id out of range 1..{n_nodes}: ({tail}, {head})", line_no
            )
        if not 0 < cap < np.inf:  # NaN fails every comparison
            raise TNTPFormatError(f"capacity {fields[2]!r} is not positive and finite", line_no)
        if not 0 <= fft < np.inf:
            raise TNTPFormatError(f"free-flow time {fields[4]!r} is not nonnegative and finite", line_no)
        rows.append((tail - 1, head - 1, cap, fft, line_no))

    if not in_data:
        raise TNTPFormatError("missing <END OF METADATA>")
    if len(rows) != n_links:
        raise TNTPFormatError(
            f"declared {n_links} links but found {len(rows)} data rows"
        )
    seen = set()
    for tail, head, _, _, line_no in rows:
        if (tail, head) in seen:
            raise TNTPFormatError(f"duplicate edge {tail + 1}->{head + 1}", line_no)
        seen.add((tail, head))
    return Network(
        node_count=n_nodes,
        tails=np.array([r[0] for r in rows], dtype=np.intp),
        heads=np.array([r[1] for r in rows], dtype=np.intp),
        free_flow_time=np.array([r[3] for r in rows]),
        capacity=np.array([r[2] for r in rows]),
    )


def parse_tntp_trips(text):
    """Parse TNTP trips-format text into an (n, n) demand-rate matrix.

    File entries are flows per hour; the returned matrix holds requests per
    minute (hourly values divided by 60). Pairs absent from the file are 0.
    """
    n_zones = None
    matrix = None
    origin = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("<NUMBER OF ZONES"):
            n_zones = _metadata_value(line, "<NUMBER OF ZONES>", line_no)
            matrix = np.zeros((n_zones, n_zones))
            continue
        if line.startswith("<"):
            continue
        if upper.startswith("ORIGIN"):
            if matrix is None:
                raise TNTPFormatError("origin block before <NUMBER OF ZONES>", line_no)
            parts = line.split()
            if len(parts) != 2:
                raise TNTPFormatError(f"malformed origin header: {line!r}", line_no)
            try:
                origin = int(parts[1])
            except ValueError:
                raise TNTPFormatError(f"malformed origin header: {line!r}", line_no) from None
            if not 1 <= origin <= n_zones:
                raise TNTPFormatError(f"origin {origin} out of range 1..{n_zones}", line_no)
            continue
        if origin is None:
            raise TNTPFormatError(f"data line outside an origin block: {line!r}", line_no)
        for entry in line.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if ":" not in entry:
                raise TNTPFormatError(f"malformed trips entry: {entry!r}", line_no)
            dest_s, flow_s = entry.split(":", 1)
            try:
                dest = int(dest_s)
                flow = float(flow_s)
            except ValueError:
                raise TNTPFormatError(f"malformed trips entry: {entry!r}", line_no) from None
            if not 1 <= dest <= n_zones:
                raise TNTPFormatError(f"destination {dest} out of range", line_no)
            if not 0 <= flow < np.inf:
                raise TNTPFormatError(f"flow {flow_s.strip()!r} is not nonnegative and finite", line_no)
            if dest != origin:
                matrix[origin - 1, dest - 1] = flow / 60.0
    if matrix is None:
        raise TNTPFormatError("missing <NUMBER OF ZONES> metadata")
    return matrix


def affine_latency_from(network, sensitivity_factor):
    """Build the affine latency model whose travel time at capacity flow is
    sensitivity_factor times the free-flow time.

    slope[e] = (sensitivity_factor - 1) * free_flow[e] / capacity[e], so a
    factor of 1 yields constant (congestion-free) latencies.
    """
    if sensitivity_factor < 1:
        raise ValueError("sensitivity_factor must be >= 1")
    slope = (sensitivity_factor - 1.0) * network.free_flow_time / network.capacity
    return LatencyModel(slope=slope, free_flow=network.free_flow_time.copy())
