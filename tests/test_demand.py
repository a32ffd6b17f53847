import numpy as np
import pytest

from privroute.demand import (
    DemandDataset,
    average_demand,
    lambda_max,
    make_adjacent,
    sample_dataset,
    validate_demand_matrix,
)
from conftest import is_adjacent


def small_mean(rate=2.0):
    mean = np.zeros((3, 3))
    mean[0, 2] = rate
    mean[1, 0] = rate / 2
    return mean


def test_sample_zero_mean_is_zero():
    ds = sample_dataset(np.zeros((4, 4)), n_days=5, period_minutes=60.0, seed=1)
    assert np.all(ds.matrices == 0)
    ds2 = sample_dataset(np.zeros((4, 4)), n_days=5, period_minutes=60.0, seed=99)
    assert np.array_equal(ds.matrices, ds2.matrices)


def test_sample_deterministic_given_seed():
    a = sample_dataset(small_mean(), 20, 60.0, seed=7)
    b = sample_dataset(small_mean(), 20, 60.0, seed=7)
    assert np.array_equal(a.matrices, b.matrices)
    c = sample_dataset(small_mean(), 20, 60.0, seed=8)
    assert not np.array_equal(a.matrices, c.matrices)


def test_sample_day_substreams_are_order_independent():
    # day t depends only on (seed, t): a longer dataset shares its prefix
    short = sample_dataset(small_mean(), 5, 60.0, seed=3)
    long = sample_dataset(small_mean(), 10, 60.0, seed=3)
    assert np.array_equal(short.matrices, long.matrices[:5])


def test_sample_law_of_large_numbers():
    ds = sample_dataset(small_mean(2.0), n_days=10000, period_minutes=60.0, seed=11)
    sample_mean = ds.matrices[:, 0, 2].mean()
    assert abs(sample_mean - 2.0) / 2.0 < 0.02


def test_sample_rates_are_count_multiples():
    ds = sample_dataset(small_mean(1.3), n_days=50, period_minutes=60.0, seed=2)
    counts = ds.matrices * 60.0
    assert np.max(np.abs(counts - np.round(counts))) < 1e-9


def test_make_adjacent_add_arithmetic():
    mats = np.zeros((3, 4, 4))
    mats[1, 0, 2] = 0.5
    ds = DemandDataset(matrices=mats, period_minutes=60.0)
    bumped = make_adjacent(ds, day=2, od=(0, 2), direction="add")
    assert bumped.matrices[1, 0, 2] == pytest.approx(0.5 + 1.0 / 60.0)
    # all other entries untouched
    diff = bumped.matrices - ds.matrices
    assert np.count_nonzero(diff) == 1


def test_make_adjacent_remove_guard():
    mats = np.zeros((1, 3, 3))
    ds = DemandDataset(matrices=mats, period_minutes=60.0)
    with pytest.raises(ValueError):
        make_adjacent(ds, day=1, od=(0, 1), direction="remove")


@pytest.mark.parametrize(
    "od, shown", [((-1, 0), "(0, 1)"), ((0, 3), "(1, 4)")], ids=["minus-1-to-1", "1-to-4"])
def test_make_adjacent_rejects_a_node_outside_the_dataset(od, shown):
    # (-1, 0) would add the request at pair (3, 1)
    ds = DemandDataset(matrices=np.zeros((2, 3, 3)), period_minutes=60.0)
    with pytest.raises(ValueError, match=rf"\{shown[:-1]}\) must lie in 1\.\.3"):
        make_adjacent(ds, 1, od, "add")


def test_make_adjacent_involution_bit_exact():
    ds = sample_dataset(small_mean(), 5, 60.0, seed=4)
    there = make_adjacent(ds, 3, (0, 2), "add")
    back = make_adjacent(there, 3, (0, 2), "remove")
    assert np.array_equal(back.matrices, ds.matrices)


def test_is_adjacent_cases():
    ds = sample_dataset(small_mean(), 5, 60.0, seed=5)
    assert not is_adjacent(ds, ds)
    bumped = make_adjacent(ds, 2, (0, 2), "add")
    assert is_adjacent(ds, bumped)
    assert is_adjacent(bumped, ds)  # symmetric
    double = make_adjacent(bumped, 4, (1, 0), "add")
    assert not is_adjacent(ds, double)
    big = DemandDataset(matrices=ds.matrices.copy(), period_minutes=60.0)
    big.matrices[0, 0, 2] += 1.0  # way more than 1/T
    assert not is_adjacent(ds, big)


def test_lambda_max():
    mats = np.zeros((2, 3, 3))
    assert lambda_max(DemandDataset(matrices=mats, period_minutes=60.0)) == 0.0
    mats2 = np.zeros((1, 3, 3))
    mats2[0, 1, 2] = 3.5
    assert lambda_max(DemandDataset(matrices=mats2, period_minutes=60.0)) == 3.5
    ds = sample_dataset(small_mean(), 5, 60.0, seed=6)
    bumped = make_adjacent(ds, 1, (0, 2), "add")
    assert lambda_max(bumped) <= lambda_max(ds) + 1.0 / 60.0 + 1e-12


def test_average_demand():
    mats = np.zeros((2, 3, 3))
    mats[0, 0, 2] = 1.0
    mats[1, 0, 2] = 3.0
    ds = DemandDataset(matrices=mats, period_minutes=60.0)
    assert average_demand(ds)[0, 2] == pytest.approx(2.0)
    single = DemandDataset(matrices=mats[:1], period_minutes=60.0)
    assert np.array_equal(average_demand(single), mats[0])


def test_validate_demand_matrix():
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            validate_demand_matrix(np.array([[0.0, value], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        validate_demand_matrix(np.full((2, 2), -1.0))
    with pytest.raises(ValueError):
        validate_demand_matrix(np.eye(2))
    with pytest.raises(ValueError):
        validate_demand_matrix(np.zeros((2, 3)))


def test_dataset_invariants():
    with pytest.raises(ValueError):
        DemandDataset(matrices=np.zeros((0, 2, 2)), period_minutes=60.0)
    with pytest.raises(ValueError):
        DemandDataset(matrices=np.zeros((1, 2, 2)), period_minutes=0.0)
