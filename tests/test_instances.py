from collections import Counter
from itertools import product

import numpy as np
import pytest

from brute_force import enumerate_realizable
from qvar import (
    BusyPeriod,
    ConfigError,
    is_realizable,
    random_busy_period,
    random_realizable_permutation,
    validate_busy_period,
)


def test_sizes_and_validity():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 9):
        bp = random_busy_period(rng, n)
        assert bp.n == n  # construction already enforced every invariant


def test_single_customer():
    bp = random_busy_period(np.random.default_rng(0), 1)
    assert bp.arrivals == (0.0,) and bp.service_starts == (0.0,)


def test_rejects_nonpositive_size():
    with pytest.raises(ConfigError):
        random_busy_period(np.random.default_rng(0), 0)


@pytest.mark.parametrize("n", [True, False, 2.5, 3.0, "3", None, -1])
def test_rejects_sizes_that_are_not_positive_ints(n):
    with pytest.raises(ConfigError, match=f"busy period size must be a positive int, got {n!r}"):
        random_busy_period(np.random.default_rng(0), n)


def test_accepts_numpy_int_sizes():
    a = random_busy_period(np.random.default_rng(4), np.int64(6))
    assert a == random_busy_period(np.random.default_rng(4), 6)


def numpy_busy_period(rng, n):
    """The sampler as it was written on numpy arrays: the reference for the
    draws each seed gives."""
    if n == 1:
        return BusyPeriod((0.0,), (0.0,))
    m = n - 1
    while True:
        times = rng.random(2 * m)
        if 0.0 in times or len(set(times.tolist())) != 2 * m:
            continue
        times = np.sort(times)
        labels = np.zeros(2 * m, dtype=bool)
        labels[:m] = True
        rng.shuffle(labels)
        if np.min(np.cumsum(np.where(labels, 1, -1))) < 0:
            continue
        arrivals = (0.0,) + tuple(times[labels].tolist())
        starts = (0.0,) + tuple(times[~labels].tolist())
        return BusyPeriod(arrivals, starts)


def test_draws_equal_the_numpy_sampler():
    # Same periods and same generator state after every call, so every
    # seed keeps its stream layout.
    for seed in range(200):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 2, 3, 5, 9, 14, 40, 120):
            assert random_busy_period(ours, n) == numpy_busy_period(ref, n), (seed, n)
            assert ours.bit_generator.state == ref.bit_generator.state, (seed, n)


def interleaving(bp):
    """The period's free timestamps in time order: True for an arrival."""
    free = [(t, True) for t in bp.arrivals[1:]] + [(t, False) for t in bp.service_starts[1:]]
    return tuple(is_arrival for _, is_arrival in sorted(free))


def test_interleavings_are_uniform_over_feasible_ones():
    # At n=5 the feasible interleavings of 4 arrivals and 4 starts are the
    # Catalan number C_4 = 14 ballot sequences.
    feasible = {
        labels
        for labels in product((True, False), repeat=8)
        if sum(labels) == 4
        and all(2 * sum(labels[:k]) >= k for k in range(1, 9))
    }
    assert len(feasible) == 14
    rng = np.random.default_rng(2)
    draws = 14_000
    counts = Counter(interleaving(random_busy_period(rng, 5)) for _ in range(draws))
    assert set(counts) == feasible
    expected = draws / len(feasible)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 42  # 13 degrees of freedom: about p = 1e-4


def test_determinism():
    a = random_busy_period(np.random.default_rng(123), 6)
    b = random_busy_period(np.random.default_rng(123), 6)
    assert a == b


def test_member_sampler_valid_and_deterministic():
    rng = np.random.default_rng(7)
    bp = random_busy_period(rng, 8)
    p1 = random_realizable_permutation(np.random.default_rng(11), bp)
    p2 = random_realizable_permutation(np.random.default_rng(11), bp)
    assert p1 == p2
    assert is_realizable(bp, p1)


def test_member_sampler_covers_whole_set():
    # On a tiny instance every realizable order should show up quickly.
    bp = validate_busy_period([0, 1, 2], [0, 2.5, 3])
    rng = np.random.default_rng(3)
    seen = {random_realizable_permutation(rng, bp).mapping for _ in range(60)}
    assert seen == {p.mapping for p in enumerate_realizable(bp)}


@pytest.mark.parametrize(
    "bp",
    [
        random_busy_period(np.random.default_rng(2), 6),
        # The arrivals at 2 and 3 tie with slots opening then.
        validate_busy_period([0, 1, 1.5, 2, 2.5, 3], [0, 2, 3, 4, 5, 6]),
    ],
    ids=["generic", "tie-lattice"],
)
def test_member_sampler_is_uniform(bp):
    orders = [p.mapping for p in enumerate_realizable(bp)]
    assert len(orders) == 36
    rng = np.random.default_rng(7)
    draws = 20_000
    counts = Counter(random_realizable_permutation(rng, bp).mapping for _ in range(draws))
    assert set(counts) == set(orders)
    expected = draws / len(orders)
    chi2 = sum((counts[o] - expected) ** 2 / expected for o in orders)
    # 35 degrees of freedom: about p = 1e-6.  Over seeds 0-59 the statistic
    # peaked at 53.9 on these periods.
    assert chi2 < 90


def test_member_sampler_single_customer():
    bp = random_busy_period(np.random.default_rng(0), 1)
    assert random_realizable_permutation(np.random.default_rng(0), bp).mapping == (1,)
