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
from .errors import ConfigError
from .permutations import _choices, _slot_floors

__all__ = ["random_busy_period", "random_realizable_permutation"]


def random_busy_period(rng: np.random.Generator, n: int) -> BusyPeriod:
    """A busy period with ``n`` customers and i.i.d. uniform timestamps.

    The shared opening instant is pinned to 0; the remaining ``n-1``
    arrivals and ``n-1`` service starts are uniform draws on (0, 1),
    relabeled until the interleaving satisfies feasibility (every prefix of
    the time axis holds at least as many arrivals as service starts).
    Rejection keeps the interleaving uniform over feasible patterns; the
    expected number of tries is about ``n``.
    """
    if n < 1:
        raise ConfigError(f"busy period size must be >= 1, got {n}")
    if n == 1:
        return BusyPeriod((0.0,), (0.0,))
    m = n - 1
    while True:
        times = rng.random(2 * m)
        if 0.0 in times or len(set(times.tolist())) != 2 * m:
            continue  # measure-zero collisions; redraw
        times = np.sort(times)
        labels = np.zeros(2 * m, dtype=bool)
        labels[:m] = True  # True = arrival
        rng.shuffle(labels)
        if np.min(np.cumsum(np.where(labels, 1, -1))) < 0:
            continue  # some prefix had more starts than arrivals
        arrivals = (0.0,) + tuple(times[labels].tolist())
        starts = (0.0,) + tuple(times[~labels].tolist())
        return BusyPeriod(arrivals, starts)


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
