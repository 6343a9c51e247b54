"""Service-order combinatorics: extremal orders, their exact proof, descent.

Within one busy period the realizable service orders form a finite set, and
the pairing objective (see :mod:`qvar.busy_period`) ranks them.  This module
provides

* the two closed-form extremes -- arrival order (first-come-first-served)
  and the stack order produced by last-come-first-served,
* a descent that walks any order down to the stack order in one pass over
  the slots, each swap removing an odd number of *bad pairs* (the exchange
  lemma) while the objective strictly falls, and
* :func:`check_extremality`, which proves in exact arithmetic that the
  closed forms attain the minimum and maximum over every realizable order
  -- the maximum by the rearrangement inequality, the minimum by an
  LP-duality certificate -- and raises if they do not.

Orders are grown from the last customer to the first.  Customer ``i``
(0-based) may take the slots at or above its floor (:func:`_slot_floors`),
and the floors never fall, so every later customer holds a slot at or
above ``floor_i``: whatever they took, exactly ``i + 1 - floor_i`` allowed
slots are still free.  So every pick completes and each order is one
sequence of picks: a uniform pick per customer (the sampler in
:mod:`qvar.instances`) is uniform over realizable orders, and the product
of the counts is their number.

The stack order is computed by bracket matching: interleave the arrival and
service-start timestamps on the time axis, read arrivals as ``(`` and
service starts as ``)``, and match each start with the most recent
unmatched arrival -- exactly the customer a last-come-first-served server
would pull from the waiting room.  At a shared instant the start comes
first: a customer arriving as a slot opens waits for a later slot.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from operator import mul

from .busy_period import (
    BusyPeriod,
    Permutation,
    _exact_times,
    _int_objective,
    _require_realizable,
    is_realizable,
)
from .errors import ExtremalityViolationError

__all__ = [
    "DescentStep",
    "DescentTrace",
    "ExtremalityReport",
    "fcfs_permutation",
    "lcfs_permutation",
    "descent_to_lcfs",
    "check_extremality",
]


def fcfs_permutation(bp: BusyPeriod) -> Permutation:
    """Arrival order: customer ``i`` takes slot ``i``.

    This is the order that pairs the sorted arrivals with the sorted slots,
    so it maximizes the pairing objective over all realizable orders.  It
    is :meth:`Permutation.identity`, so a period of fewer than 64 customers
    gets that length's shared instance.
    """
    return Permutation.identity(bp.n)


def lcfs_permutation(bp: BusyPeriod) -> Permutation:
    """Stack order: each service slot goes to the latest-arrived waiter.

    Runs the bracket matching described in the module docstring in one walk
    over the arrivals after the first: before each arrival is pushed, every
    slot opening no later than it is popped, each going to the latest
    arrival still unmatched; after the last arrival the remaining slots pop
    the rest.  A slot opening at an arrival's instant so opens first.  Each
    customer is pushed and popped once, so the result is a bijection.

    With one or two customers every realizable order is arrival order, so
    those periods get :meth:`Permutation.identity`'s shared instance.
    """
    n = bp.n
    if n < 3:
        return Permutation.identity(n)
    a, b = bp.arrivals, bp.service_starts
    mapping = [1] * n
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    j = 1  # the next slot to open, 0-based; j < i, as a[i] < b[i]
    for i in range(1, n):
        t = a[i]
        while b[j] <= t:
            j += 1
            mapping[pop()] = j
        push(i)
    for j in range(j + 1, n + 1):
        mapping[pop()] = j
    return Permutation._trusted(tuple(mapping))


def _slot_floors(bp: BusyPeriod) -> list[int]:
    """For each customer i (0-based), the smallest 0-based slot it may take.

    Slot j is allowed for customer i>0 iff ``a[i] < b[j]``; allowed slots
    form a suffix, and the floors are non-decreasing in i.
    """
    a, b = bp.arrivals, bp.service_starts
    floors = [0] * bp.n
    j = 1
    for i in range(1, bp.n):
        while b[j] <= a[i]:
            j += 1
        floors[i] = j
    return floors


def _bad_pair_count(bp: BusyPeriod, perm: Permutation) -> int:
    """The number of bad pairs of a realizable order.

    Customers ``i < j`` (so ``a_i < a_j``) form a bad pair when ``a_j <
    b_{p(i)} < b_{p(j)}``: customer j was already waiting when i entered
    service, yet i was served first.  A last-come-first-served server never
    does this, and swapping the two slots strictly lowers the pairing
    objective.  Raises :class:`~qvar.errors.NotRealizableError` for an
    order no discipline could produce.  O(n**2).
    """
    _require_realizable(bp, perm)
    a, n = bp.arrivals, bp.n
    t = [bp.service_starts[m - 1] for m in perm.mapping]  # each customer's slot
    return sum(1 for i in range(n) for j in range(i + 1, n) if a[j] < t[i] < t[j])


def _swaps(
    perm: Permutation, stack: list[int]
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The descent swaps from a realizable order to the stack order
    ``stack``, given as slot -> customer (0-based).

    Walks the slots after the first in time order.  While the order gives
    a slot to its stack owner, the bracket is inert and the walk goes on.
    At a slot it does not, the slot's owner ``i`` and its stack owner ``k``
    form a bad pair ``(i, k)``: ``k`` takes the slot and ``i`` takes
    ``k``'s old slot, which is later.  Every slot passed then holds its
    stack owner, so the walk never goes back.

    Yields ``(i, k, order)`` per swap: the customers (1-based) and the
    order after the swap.  O(1) per slot walked and O(n) per swap, which
    copies the order.
    """
    m = list(perm.mapping)
    owner = sorted(range(len(m)), key=m.__getitem__)  # slot -> customer
    for j in range(1, len(m)):
        i, k = owner[j], stack[j]
        if i != k:
            owner[m[k] - 1] = i
            m[i], m[k] = m[k], j + 1
            yield i + 1, k + 1, tuple(m)


def _stack_owners(bp: BusyPeriod) -> list[int]:
    """The stack order as slot -> customer (0-based)."""
    return sorted(range(bp.n), key=lcfs_permutation(bp).mapping.__getitem__)


@dataclass(frozen=True)
class DescentStep:
    """One descent swap: the slots of customers ``indices == (i, k)`` are
    exchanged, lowering the objective and the bad-pair count.

    Every slot before the swap's slot ``order_before[i - 1]`` already holds
    its stack-order owner, so ``order_before`` and the stack order fix the
    inert brackets the walk has passed.
    """

    indices: tuple[int, int]
    order_before: tuple[int, ...]
    order_after: tuple[int, ...]
    objective_before: float
    objective_after: float
    bad_pairs_before: int
    bad_pairs_after: int

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": "swap",  # constant; kept for readers that filter lines on it
            "indices": list(self.indices),
            "order_before": list(self.order_before),
            "order_after": list(self.order_after),
            "objective_before": self.objective_before,
            "objective_after": self.objective_after,
            "bad_pairs_before": self.bad_pairs_before,
            "bad_pairs_after": self.bad_pairs_after,
        }


@dataclass(frozen=True)
class DescentTrace:
    """Full record of a descent from ``start`` to the stack order, one step
    per swap."""

    start: tuple[int, ...]
    final: tuple[int, ...]
    steps: tuple[DescentStep, ...]

    @property
    def swap_count(self) -> int:
        return len(self.steps)

    def to_jsonl(self) -> str:
        """One JSON object per swap, one per line (1-based indices)."""
        return "\n".join(json.dumps(s.to_dict()) for s in self.steps)


def descent_to_lcfs(bp: BusyPeriod, perm: Permutation) -> DescentTrace:
    """Run descent swaps until the stack order is reached.

    Each swap strictly lowers the pairing objective and the bad-pair count,
    so the number of swaps is at most the starting order's bad-pair count.

    Exchange lemma: swapping a bad pair ``(i, k)`` that holds slots
    ``j < s`` removes exactly ``1 + 2 * #{x : i < x < k, j < p(x) < s}``
    bad pairs.  Floors never fall, so every ``x`` between ``i`` and ``k``
    has floor at most ``floor_k <= j``.  Then ``(i, k)``, and ``(i, x)``
    and ``(x, k)`` for each such ``x`` with ``j < p(x) < s``, go from bad
    to not bad; every other pair keeps its status.  The start's bad pairs
    are counted in full, so a final count of 0 checks the lemma.

    The objective is an exact int (:func:`~qvar.busy_period._exact_times`)
    that the swap changes by ``(a_i - a_k) * (b_s - b_j) < 0``, rounded
    once per value like :func:`~qvar.busy_period.pairing_objective`: the
    floats never rise, and tie when the exact fall is under half an ulp.

    Majorization: the swap turns the waits ``(b_j - a_i, b_s - a_k)``
    into ``(b_s - a_i, b_j - a_k)``.  Their sum is unchanged and their
    maximum rises to ``b_s - a_i``, so each step's wait vector majorizes
    the one before, and every convex cost of the waits rises towards the
    stack order.

    Cost: one O(n**2) count of the start's bad pairs, one stack
    order, one pass over the slots (:func:`_swaps`), and O(n) per swap
    for the lemma's count and the order's copy.  The trace has one step
    per swap, each holding two full orders.
    """
    nbad = _bad_pair_count(bp, perm)
    a, b, scale = _exact_times(bp)
    unit = scale * scale
    order, obj = perm.mapping, _int_objective(a, b, perm.mapping)
    steps: list[DescentStep] = []
    for i, k, swapped in _swaps(perm, _stack_owners(bp)):
        j, s = order[i - 1], order[k - 1]
        new_obj = obj + (a[i - 1] - a[k - 1]) * (b[s - 1] - b[j - 1])
        new_bad = nbad - 1 - 2 * sum(j < t < s for t in order[i : k - 1])
        steps.append(
            DescentStep(
                (i, k), order, swapped, obj / unit, new_obj / unit, nbad, new_bad
            )
        )
        order, obj, nbad = swapped, new_obj, new_bad
    return DescentTrace(start=perm.mapping, final=order, steps=tuple(steps))


@dataclass(frozen=True, slots=True)
class ExtremalityReport:
    """Result of checking one busy period exactly.

    ``argmin`` is the stack order and ``argmax`` arrival order, each the
    only realizable order attaining its exact extreme: the timestamps
    strictly rise, so every other realizable order scores strictly between
    the two.  ``min_objective``/``max_objective`` are the exact
    extremes of :func:`~qvar.busy_period.pairing_objective`, each rounded
    once to the nearest float, so ``min_objective <= max_objective``.
    """

    num_realizable: int
    min_objective: float
    max_objective: float
    argmin: tuple[int, ...]
    argmax: tuple[int, ...]

    def to_dict(self) -> dict[str, object]:
        return {
            "num_realizable": self.num_realizable,
            "min_objective": self.min_objective,
            "max_objective": self.max_objective,
            "argmin": list(self.argmin),
            "argmax": list(self.argmax),
        }


def _improvement(
    floors: list[int], a: list[int], b: list[int], order: tuple[int, ...]
) -> tuple[int, ...] | None:
    """``None`` if the realizable ``order`` minimizes ``sum(a[i] * b[p(i)])``
    over realizable orders, else a realizable order scoring strictly less.

    By LP duality on the assignment polytope (integral; Egervary 1931,
    Kuhn 1955), ``order`` is optimal iff slot potentials ``v`` exist with
    ``v[j] - v[l] <= a[i] * (b[j] - b[l])`` whenever ``i`` owns slot ``l``
    and may take slot ``j`` (``j >= floors[i]``).  Those are shortest-path
    conditions on the slots, with an edge ``l -> j`` of that weight for
    moving ``l``'s owner to ``j``, so Bellman-Ford from ``v = 0`` finds
    them, sweeping the slots downwards (:func:`_sweep`).  A sweep that
    lowers no potential through an edge to a higher slot (``j > l``) ends
    the proof: each slot's potential then fell only through edges from
    higher slots, swept before it, so every edge was relaxed from, and
    checked against, final values, and the potentials are feasible.  A
    change in the ``n``-th sweep means a negative cycle; moving each owner
    along it keeps every customer in an allowed slot and lowers the
    objective by the cycle's weight.  Customer 0 keeps slot 0.  O(n**2)
    per sweep.
    """
    n = len(floors)
    owner = sorted(range(n), key=order.__getitem__)  # slot -> customer
    v, pred = [0] * n, [0] * n
    for _ in range(n):
        last, up = _sweep(owner, floors, a, b, v, pred)
        if not up:
            return None
    # n steps back along pred from a slot changed in the n-th sweep land on
    # a cycle of pred, and every such cycle is negative.
    for _ in range(n):
        last = pred[last]
    moved, j = list(order), last
    while True:
        moved[owner[pred[j]]] = j + 1
        j = pred[j]
        if j == last:
            return tuple(moved)


def _sweep(
    owner: list[int], floors: list[int], a: list[int], b: list[int], v: list[int], pred: list[int]
) -> tuple[int | None, bool]:
    """One Bellman-Ford sweep of :func:`_improvement`, relaxing in place the
    edges out of slots ``n - 1`` down to 1, each slot's edges to lower slots
    and then to higher ones (an edge to its own slot weighs 0).  Returns the
    last slot whose potential fell (None if none did) and whether one fell
    through an edge to a higher slot."""
    n = len(v)
    last, up = None, False
    for l in range(n - 1, 0, -1):
        i = owner[l]
        x = a[i]
        base = v[l] - x * b[l]
        for j in range(floors[i], l):
            t = base + x * b[j]
            if t < v[j]:
                v[j], pred[j], last = t, l, j
        for j in range(l + 1, n):
            t = base + x * b[j]
            if t < v[j]:
                v[j], pred[j], last, up = t, l, j, True
    return last, up


def check_extremality(bp: BusyPeriod) -> ExtremalityReport:
    """Verify exactly that the closed forms attain both extremes of a period.

    In the ints of :func:`~qvar.busy_period._exact_times`, made once.  Both
    timestamp sequences strictly rise (checked), so by the rearrangement
    inequality arrival order is the unique maximizer over all ``n!``
    orders, and it is realizable.  The stack order is checked realizable
    and then proved the minimizer by the duality certificate of
    :func:`_improvement`, which does not use the bracket matching it
    audits, at any length.  ``num_realizable`` is the product of the
    counts ``i + 1 - floor_i`` of the last-to-first rule in the module
    docstring.  When that product is 1 (every floor is its own customer's
    slot) and the stack order is arrival order, the one realizable order
    attains both extremes and needs no certificate.  Raises
    :class:`ExtremalityViolationError` on any violation, naming the stack
    order if it is not realizable and otherwise a strictly better order --
    a counterexample to the theorem or a fault of the closed forms, not a
    data problem.
    """
    n = bp.n
    floors = _slot_floors(bp)
    a, b, scale = _exact_times(bp)
    # int / int is correctly rounded, so the two floats keep their order.
    unit = scale * scale
    arrival = sum(map(mul, a, b))  # _int_objective of arrival order
    for k in range(1, n):
        if not (a[k - 1] < a[k] and b[k - 1] < b[k]):
            swapped = (*range(1, k), k + 1, k, *range(k + 2, n + 1))
            gain = (a[k - 1] - a[k]) * (b[k] - b[k - 1])
            raise ExtremalityViolationError(
                f"arrival order scores {arrival / unit!r} but {swapped} scores "
                f"{(arrival + gain) / unit!r}; arrival order is not the maximizer "
                f"on {bp.to_dict()}"
            )
    count = math.prod(i + 1 - floors[i] for i in range(1, n))
    arrival_order = Permutation.identity(n).mapping
    stack_order = lcfs_permutation(bp)
    stack = stack_order.mapping
    if count == 1 and stack == arrival_order:
        # Every customer's floor is its own slot: arrival order is the only
        # realizable order, and the stack order is it.
        stacked = arrival
    elif not is_realizable(bp, stack_order):
        raise ExtremalityViolationError(
            f"stack order {stack} is not realizable on {bp.to_dict()}"
        )
    else:
        stacked = _int_objective(a, b, stack)
        better = _improvement(floors, a, b, stack)
        if better is not None:
            raise ExtremalityViolationError(
                f"stack order scores {stacked / unit!r} but {better} scores "
                f"{_int_objective(a, b, better) / unit!r}; stack order is not the "
                f"minimizer on {bp.to_dict()}"
            )
    return ExtremalityReport(count, stacked / unit, arrival / unit, stack, arrival_order)
