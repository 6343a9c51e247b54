"""Random busy periods and random realizable service orders, for search.

These feed the exhaustive and descent checks with instances that are
uniform in the combinatorial sense that matters: which arrivals interleave
with which service starts.  Timestamps are i.i.d. uniform draws, so every
interleaving pattern of the 2(n-1) free timestamps is equally likely and
all timestamps are distinct with probability one.
"""

from __future__ import annotations

import numpy as np

from .busy_period import BusyPeriod, Permutation
from .permutations import _choices, _slot_floors
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
    """A random realizable service order on ``bp``.

    Slots are assigned to customers in arrival order, each choosing
    uniformly among the slots :func:`~qvar.permutations._choices` allows:
    free, opening after the customer arrives, and leaving every later
    customer a slot (Hall's condition on the slot floors, the rule
    enumeration and the extremality oracle share).  Every realizable order
    has positive probability, though the distribution over orders is not
    uniform.  O(n) per customer.
    """
    floors = _slot_floors(bp)
    used, mapping = 1, [1]
    for i in range(1, bp.n):
        choices = _choices(floors, i, used)
        j = choices[int(rng.integers(len(choices)))]
        used |= 1 << j
        mapping.append(j + 1)
    return Permutation(tuple(mapping))
