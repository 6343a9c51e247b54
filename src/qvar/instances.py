"""Random busy periods and random realizable service orders, for search.

These feed the extremality certificate and the descent with instances
that are uniform in the combinatorial sense that matters: which arrivals
interleave with which service starts.  Timestamps are i.i.d. uniform
draws, so every interleaving pattern of the 2(n-1) free timestamps is
equally likely and all timestamps are distinct with probability one.
Service orders are uniform over the realizable orders of a period, placed
from the last customer to the first by the rule of :mod:`qvar.permutations`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .busy_period import BusyPeriod, Permutation
from .permutations import _slot_floors
from .variates import _check_count

__all__ = ["random_busy_period", "random_realizable_permutation"]


def random_busy_period(rng: np.random.Generator, n: int) -> BusyPeriod:
    """A busy period with ``n`` customers and i.i.d. uniform timestamps.

    The shared opening instant is pinned to 0; the remaining ``n-1``
    arrivals and ``n-1`` service starts are uniform draws on (0, 1),
    relabeled until the interleaving satisfies feasibility (every prefix of
    the time axis holds at least as many arrivals as service starts).
    Rejection keeps the interleaving uniform over feasible patterns; by the
    ballot theorem one labelling in ``n`` is feasible, so it takes exactly
    ``n`` tries on average.  Each try draws from ``rng`` as earlier versions
    did, so a seed gives the same periods.  ``n`` must be an integer of at
    least 1 (numpy integers included, bools not), else
    :class:`~qvar.errors.ConfigError`.
    """
    n = _check_count("busy period size", n)
    if n == 1:
        return BusyPeriod((0.0,), (0.0,))
    m = n - 1
    while True:
        times = rng.random(2 * m).tolist()
        if 0.0 in times or len(set(times)) != 2 * m:
            continue  # measure-zero collisions; redraw
        # A fresh list each try: shuffling the last try's labels would
        # permute another starting order.
        labels = [True] * m + [False] * m  # True = arrival
        rng.shuffle(labels)
        height = 0
        for is_arrival in labels:
            height += 1 if is_arrival else -1
            if height < 0:
                break  # this prefix had more starts than arrivals
        else:
            times.sort()
            arrivals = [t for t, is_arrival in zip(times, labels) if is_arrival]
            starts = [t for t, is_arrival in zip(times, labels) if not is_arrival]
            return BusyPeriod((0.0, *arrivals), (0.0, *starts))


def random_realizable_permutation(
    rng: np.random.Generator, bp: BusyPeriod
) -> Permutation:
    """A uniform random realizable service order on ``bp``.

    Customers are placed from the last to the first, each taking a uniform
    pick among its ``i + 1 - floor_i`` free allowed slots, so every
    realizable order has probability one over their number (the rule of
    :mod:`qvar.permutations`).  One draw per customer, last to first, all
    from one ``rng.integers`` call; O(n) per customer for the list of free
    slots.
    """
    floors = _slot_floors(bp)
    last_first = range(bp.n - 1, 0, -1)
    picks = rng.integers([i + 1 - floors[i] for i in last_first]).tolist()
    free, mapping = list(range(1, bp.n)), [1] * bp.n
    for i, pick in zip(last_first, picks):
        mapping[i] = free.pop(bisect_left(free, floors[i]) + pick) + 1
    return Permutation._trusted(tuple(mapping))
