"""Brute-force references for the tests: every realizable order, the bad
pairs of an order, and per-customer waits.

None of these is on a command's path; the library proves the extremes and
counts bad pairs without listing anything.  Here each quantity is computed
straight from its definition, so the tests can check the library against it.
"""

from bisect import bisect_left

from qvar import BusyPeriod, Permutation
from qvar.busy_period import _require_realizable
from qvar.permutations import _slot_floors


def enumerate_realizable(bp: BusyPeriod) -> list[Permutation]:
    """Every realizable service order, in lexicographic mapping order.

    Backtracking over customers from the last to the first by the rule of
    :mod:`qvar.permutations`, so every branch ends in an order; the orders
    are then sorted.  The count grows factorially with the period.
    """
    floors = _slot_floors(bp)
    free, mapping = list(range(1, bp.n)), [1] * bp.n
    out: list[tuple[int, ...]] = []

    def place(i: int) -> None:
        if i == 0:
            out.append(tuple(mapping))
            return
        for k in range(bisect_left(free, floors[i]), len(free)):
            j = free.pop(k)
            mapping[i] = j + 1
            place(i - 1)
            free.insert(k, j)

    place(bp.n - 1)
    return [Permutation._trusted(m) for m in sorted(out)]


def bad_pairs(bp: BusyPeriod, perm: Permutation) -> list[tuple[int, int]]:
    """The bad pairs ``(i, j)`` of a realizable order (1-based,
    lexicographically): ``i < j`` with ``a_j < b_{p(i)} < b_{p(j)}``."""
    _require_realizable(bp, perm)
    a, n = bp.arrivals, bp.n
    t = [bp.service_starts[m - 1] for m in perm.mapping]  # each customer's slot
    return [
        (i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if a[j] < t[i] < t[j]
    ]


def waiting_times(bp: BusyPeriod, perm: Permutation) -> tuple[float, ...]:
    """Per-customer waits ``b_{p(i)} - a_i`` of a realizable order, in
    arrival order."""
    _require_realizable(bp, perm)
    a, b, m = bp.arrivals, bp.service_starts, perm.mapping
    return tuple(b[m[i] - 1] - a[i] for i in range(bp.n))


def mean_square_wait(bp: BusyPeriod, perm: Permutation) -> float:
    """Average of the squared waits over the period's customers."""
    w = waiting_times(bp, perm)
    total = 0.0
    for x in w:
        total += x * x
    return total / len(w)
