"""Demand matrices, multi-day datasets, request-level adjacency, and the
Poisson day sampler.

A demand matrix is a dense (n, n) array of arrival rates in requests per
minute with a zero diagonal. A dataset is an ordered sequence of N such
matrices sharing one operation-period length T (minutes). Rates produced by
the sampler are always integer multiples of 1/T, because a day's rate is a
request count divided by T.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _day_rng(seed, day):
    # Philox is counter-based; deriving each day's stream from (seed, day)
    # makes sampling order-independent and reproducible across platforms.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, day))))


def validate_demand_matrix(matrix):
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("demand matrix must be square")
    if not np.all((0 <= matrix) & (matrix < np.inf)):
        raise ValueError("demand rates must be nonnegative and finite")
    if np.any(np.diagonal(matrix) != 0):
        raise ValueError("diagonal demand must be zero")
    return matrix


@dataclass(frozen=True)
class DemandDataset:
    """Ordered days of demand-rate matrices over one operation period.

    Attributes:
        matrices: float array of shape (N, n, n), requests per minute.
        period_minutes: operation-period length T.
    """

    matrices: np.ndarray
    period_minutes: float

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[0] < 1 or mats.shape[1] != mats.shape[2]:
            raise ValueError("matrices must have shape (N, n, n) with N >= 1")
        if self.period_minutes <= 0:
            raise ValueError("period_minutes must be positive")
        for day in range(mats.shape[0]):
            validate_demand_matrix(mats[day])
        object.__setattr__(self, "matrices", mats)

    @property
    def day_count(self):
        return self.matrices.shape[0]

    def day(self, t):
        """Demand matrix of day t (1-based, matching dataset order)."""
        if not 1 <= t <= self.day_count:
            raise IndexError(f"day {t} outside 1..{self.day_count}")
        return self.matrices[t - 1]


def sample_dataset(mean_demand, n_days, period_minutes, seed):
    """Draw an N-day dataset of Poisson daily demand around a mean-rate matrix.

    Each day's (o, d) request count is Poisson(mean_rate * T); the day's rate
    is that count divided by T. Deterministic given the seed; day t depends
    only on (seed, t).
    """
    mean_demand = validate_demand_matrix(mean_demand)
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    if period_minutes <= 0:
        raise ValueError("period_minutes must be positive")
    n = mean_demand.shape[0]
    days = np.empty((n_days, n, n))
    expected_counts = mean_demand * period_minutes
    for t in range(n_days):
        counts = _day_rng(seed, t + 1).poisson(expected_counts)
        days[t] = counts / period_minutes
        np.fill_diagonal(days[t], 0.0)
    return DemandDataset(matrices=days, period_minutes=float(period_minutes))


def make_adjacent(dataset, day, od, direction):
    """Dataset copy differing by exactly one request (1/T in one rate entry).

    Args:
        day: 1-based day index.
        od: (origin, destination) 0-based pair with origin != destination.
        direction: "add" or "remove".
    """
    o, d = od
    if o == d:
        raise ValueError("od pair must have distinct endpoints")
    if not 1 <= day <= dataset.day_count:
        raise ValueError(f"day {day} outside 1..{dataset.day_count}")
    delta = 1.0 / dataset.period_minutes
    if direction == "add":
        step = delta
    elif direction == "remove":
        step = -delta
    else:
        raise ValueError("direction must be 'add' or 'remove'")
    current = dataset.matrices[day - 1, o, d]
    if direction == "remove" and current < delta - 1e-12:
        raise ValueError("cannot remove a request from a rate below 1/T")
    matrices = dataset.matrices.copy()
    matrices[day - 1, o, d] = current + step
    return DemandDataset(matrices=matrices, period_minutes=dataset.period_minutes)


def lambda_max(dataset):
    """Largest arrival rate over all days and pairs."""
    return float(np.max(dataset.matrices))


def average_demand(dataset):
    """Entrywise mean of the dataset's daily matrices."""
    return dataset.matrices.mean(axis=0)

