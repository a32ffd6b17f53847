"""k x k bidirectional grid instances, built in memory from a seed.

Node (r, c) is r * k + c. Every horizontal and vertical neighbour pair is
joined by two opposite edges, so a k x k grid has n = k^2 nodes,
m = 4 k (k - 1) edges and n (n - 1) routable ordered pairs. Free-flow times,
capacities and the mean demand matrix are drawn from one Philox stream, so
equal (k, seed) give bit-identical instances on any platform.
"""
from __future__ import annotations

import numpy as np

import privroute

FREE_FLOW_MINUTES = (1.0, 3.0)
CAPACITY_PER_MINUTE = (20.0, 60.0)
MEAN_RATE_PER_MINUTE = (0.0, 0.05)
SENSITIVITY_FACTOR = 2.0


def grid_edges(k):
    """(tails, heads) of the k x k bidirectional grid, in a fixed order."""
    if k < 2:
        raise ValueError("a grid needs k >= 2")
    tails, heads = [], []
    for r in range(k):
        for c in range(k):
            u = r * k + c
            for v in ((u + 1) if c + 1 < k else None, (u + k) if r + 1 < k else None):
                if v is not None:
                    tails += [u, v]
                    heads += [v, u]
    return np.array(tails), np.array(heads)


def grid_instance(k, seed):
    """Instance (network, affine latency, mean demand) on a seeded k x k grid."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k, 0x6121D))))
    tails, heads = grid_edges(k)
    m = tails.size
    n = k * k
    network = privroute.Network(
        node_count=n,
        tails=tails,
        heads=heads,
        free_flow_time=rng.uniform(*FREE_FLOW_MINUTES, m),
        capacity=rng.uniform(*CAPACITY_PER_MINUTE, m),
    )
    mean_demand = rng.uniform(*MEAN_RATE_PER_MINUTE, (n, n))
    np.fill_diagonal(mean_demand, 0.0)
    return privroute.harness.Instance(
        network=network,
        latency=privroute.affine_latency_from(network, SENSITIVITY_FACTOR),
        mean_demand=mean_demand,
    )
