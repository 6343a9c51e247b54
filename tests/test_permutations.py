import copy
import importlib
import itertools
import json
import math
import pickle
import pkgutil
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import bad_pairs, enumerate_realizable
from qvar import (
    BusyPeriod,
    ExtremalityViolationError,
    NotRealizableError,
    Permutation,
    check_extremality,
    descent_to_lcfs,
    fcfs_permutation,
    is_realizable,
    lcfs_permutation,
    pairing_objective,
    random_busy_period,
    random_realizable_permutation,
    validate_busy_period,
)
import qvar
from qvar import permutations

BP = validate_busy_period([0.0, 1.0, 2.0], [0.0, 2.5, 3.0])
# Fully nested instance: everyone arrives before the second slot opens.
NEST5 = validate_busy_period([0, 1, 2, 3, 4], [0, 4.5, 5, 6, 7])


def brute_force_realizable(bp):
    """Oracle: filter all n! orders by the realizability definition."""
    n = bp.n
    out = []
    for tail in itertools.permutations(range(2, n + 1)):
        mapping = (1,) + tail
        if all(bp.arrivals[i] < bp.service_starts[mapping[i] - 1] for i in range(1, n)):
            out.append(mapping)
    return out


def stack_brackets(bp):
    """Reference bracket matching, written apart from ``lcfs_permutation``:
    walk the events in time order, a slot before an arrival at the same
    instant, push each arrival and pop at each slot.  Returns 0-based
    ``(customer, slot)`` for every slot after the first, in slot order."""
    events = sorted(
        [(t, 1, i) for i, t in enumerate(bp.arrivals) if i]
        + [(t, 0, j) for j, t in enumerate(bp.service_starts) if j]
    )
    stack, pairs = [], []
    for _, is_arrival, x in events:
        if is_arrival:
            stack.append(x)
        else:
            pairs.append((stack.pop(), x))
    return pairs


def test_every_public_name_resolves():
    # A stale ``__all__`` entry would break ``from qvar import *`` and any
    # tool that reads every exported name.
    modules = [qvar] + [
        importlib.import_module(f"qvar.{info.name}")
        for info in pkgutil.iter_modules(qvar.__path__)
        if info.name != "__main__"
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)
    removed = {
        "enumerate_realizable", "TooLargeError", "BadPair", "bad_pairs",
        "descent_swap", "NoBadPairsError", "waiting_times", "mean_square_wait",
    }
    for mod in modules:
        assert not removed & set(getattr(mod, "__all__", ())), mod.__name__
    assert not removed & set(dir(qvar))


def test_fcfs_is_identity():
    assert fcfs_permutation(BP).is_identity()


def test_lcfs_stack_order():
    assert lcfs_permutation(BP).mapping == (1, 3, 2)
    assert lcfs_permutation(NEST5).mapping == (1, 5, 4, 3, 2)


def test_lcfs_single_customer():
    bp = validate_busy_period([0.0], [0.0])
    assert lcfs_permutation(bp).mapping == (1,)


# Periods where arrivals coincide with later slots, which open first:
# customer 3 with slot 2 here; in the longer ones, every arrival from the
# third on but one.
TIED = [
    validate_busy_period([0, 1, 2], [0, 2, 4]),
    validate_busy_period([0, 1, 2, 3], [0, 2, 3, 5]),
    validate_busy_period([0, 1, 2, 3, 4], [0, 3, 4, 4.5, 5]),
    validate_busy_period([0, 0.5, 1, 2, 2.5, 3, 3.5], [0, 1, 2, 3, 3.5, 4, 4.5]),
]


def test_lcfs_is_the_exhaustive_minimizer():
    # Against every realizable order, scored exactly, for 1 to 7 customers:
    # the one- and two-customer shortcut and the stack walk alike.
    rng = np.random.default_rng(35)
    periods = TIED + [random_busy_period(rng, n) for n in range(1, 8) for _ in range(30)]
    for bp in periods:
        lo, _, argmin, _ = _exhaustive_reference(bp)
        assert lcfs_permutation(bp).mapping == argmin, bp
        scores = [_exact_objective(bp, p.mapping) for p in enumerate_realizable(bp)]
        assert scores.count(lo) == 1, bp


def test_enumerate_small():
    perms = [p.mapping for p in enumerate_realizable(BP)]
    assert perms == [(1, 2, 3), (1, 3, 2)]


def test_enumerate_lexicographic_and_matches_brute_force():
    rng = np.random.default_rng(20240817)
    for _ in range(120):
        bp = random_busy_period(rng, int(rng.integers(2, 7)))
        got = [p.mapping for p in enumerate_realizable(bp)]
        assert got == sorted(got)
        assert got == brute_force_realizable(bp)


def test_bad_pairs_examples():
    assert bad_pairs(BP, Permutation((1, 2, 3))) == [(2, 3)]
    assert bad_pairs(BP, Permutation((1, 3, 2))) == []
    # in the nested instance, arrival order leaves every later pair bad
    assert len(bad_pairs(NEST5, Permutation.identity(5))) == 6


def test_bad_pairs_sorted():
    pairs = bad_pairs(NEST5, Permutation.identity(5))
    assert pairs == sorted(pairs)


def test_stack_order_has_no_bad_pairs():
    assert bad_pairs(NEST5, lcfs_permutation(NEST5)) == []


def test_descent_swap_example():
    first = descent_to_lcfs(BP, Permutation((1, 2, 3))).steps[0]
    assert first.order_after == (1, 3, 2)
    assert first.indices == (2, 3)


def test_descent_swap_nested_first_step():
    first = descent_to_lcfs(NEST5, Permutation.identity(5)).steps[0]
    assert first.indices == (2, 5)
    assert first.order_after == (1, 5, 3, 4, 2)


def test_descent_swap_requires_bad_pair():
    # The stack order has no bad pair, so the descent takes no step.
    assert descent_to_lcfs(BP, Permutation((1, 3, 2))).steps == ()


def test_descent_swap_requires_a_realizable_order():
    # Customer 3 arrives at t=2, after slot 2 opens at t=1.5.
    bp = validate_busy_period([0.0, 1.0, 2.0], [0.0, 1.5, 3.0])
    with pytest.raises(NotRealizableError):
        descent_to_lcfs(bp, Permutation((1, 3, 2)))


def test_descent_trace_nested():
    trace = descent_to_lcfs(NEST5, Permutation.identity(5))
    assert trace.start == (1, 2, 3, 4, 5)
    assert trace.final == (1, 5, 4, 3, 2)
    assert [s.indices for s in trace.steps] == [(2, 5), (3, 4)]
    assert trace.swap_count == 2


def test_descent_from_stack_order_is_empty():
    trace = descent_to_lcfs(BP, Permutation((1, 3, 2)))
    assert trace.steps == ()
    assert trace.final == (1, 3, 2)
    assert trace.to_jsonl() == ""


def test_descent_jsonl_fields():
    trace = descent_to_lcfs(BP, Permutation((1, 2, 3)))
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == 1
    step = json.loads(lines[0])
    assert list(step) == [
        "kind", "indices", "order_before", "order_after",
        "objective_before", "objective_after", "bad_pairs_before", "bad_pairs_after",
    ]
    assert step["kind"] == "swap"
    assert step["indices"] == [2, 3]
    assert step["order_before"] == [1, 2, 3]
    assert step["order_after"] == [1, 3, 2]
    assert step["objective_before"] == 8.5
    assert step["objective_after"] == 8.0
    assert step["bad_pairs_before"] == 1
    assert step["bad_pairs_after"] == 0


def test_descent_invariants_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(200):
        bp = random_busy_period(rng, int(rng.integers(2, 11)))
        start = random_realizable_permutation(rng, bp)
        initial_bad = len(bad_pairs(bp, start))
        trace = descent_to_lcfs(bp, start)
        assert trace.final == lcfs_permutation(bp).mapping
        assert trace.swap_count == len(trace.steps) <= initial_bad
        for s in trace.steps:
            assert s.objective_after < s.objective_before
            assert s.bad_pairs_after < s.bad_pairs_before
            _assert_swap_is_at_the_first_unmatched_slot(bp, s)


def test_check_extremality_report():
    report = check_extremality(BP)
    assert report.num_realizable == 2
    assert report.min_objective == 8.0
    assert report.max_objective == 8.5
    assert report.argmin == (1, 3, 2)
    assert report.argmax == (1, 2, 3)
    d = report.to_dict()
    assert d["min_objective"] == 8.0 and d["argmax"] == [1, 2, 3]


def test_values_survive_pickle_and_deepcopy():
    # The period, order and report classes are frozen and slotted; each
    # copy, at every pickle protocol, is an equal value of the same type.
    report = check_extremality(BP)
    copies = [copy.deepcopy]
    copies += [
        lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for value in (BP, Permutation((1, 3, 2)), Permutation.identity(3), report):
        for copy_of in copies:
            got = copy_of(value)
            assert type(got) is type(value) and got == value and hash(got) == hash(value)
    assert pickle.loads(pickle.dumps(report)).to_dict() == report.to_dict()


def test_check_extremality_has_no_false_violation_on_large_timestamps():
    # From a rho=0.95 run: the float objectives of (1, 2, 3) and (1, 3, 2)
    # round so that the stack order seems to beat arrival order.
    bp = validate_busy_period(
        [854161.3166161182, 854161.8127211194, 854161.8357921556],
        [854161.3166161182, 854162.5797050659, 854162.5807999901],
    )
    report = check_extremality(bp)
    assert report.num_realizable == 2
    assert report.argmax == (1, 2, 3)
    assert report.argmin == (1, 3, 2)
    assert report.min_objective <= report.max_objective


def test_check_extremality_argmin_is_exact_under_float_ties():
    # The float objectives of arrival order and the stack order tie here;
    # exactly, the stack order is the minimizer.
    bp = validate_busy_period(
        [586360.3692564073, 586361.2092514129, 586361.3618100923, 586361.3623465378],
        [586360.3692564073, 586361.2131367783, 586361.3744880493, 586361.5077665654],
    )
    report = check_extremality(bp)
    assert report.argmin == (1, 2, 4, 3) == lcfs_permutation(bp).mapping
    assert report.argmax == (1, 2, 3, 4)
    assert report.min_objective == pairing_objective(bp, Permutation((1, 2, 4, 3)))


def test_check_extremality_reaches_n12_without_listing():
    # Everyone arrives before slot 2 opens, so all 11! orders are realizable;
    # the oracle has no size limit and lists none of them.
    bp = validate_busy_period(
        [float(k) for k in range(12)], [0.0] + [11.5 + k for k in range(11)]
    )
    report = check_extremality(bp)
    assert report.num_realizable == math.factorial(11) == 39916800
    assert report.argmax == tuple(range(1, 13))
    assert report.argmin == (1,) + tuple(range(12, 1, -1))


def test_check_extremality_audits_the_stack_order(monkeypatch):
    # The search does not use the bracket matching, so a wrong stack order
    # is caught rather than reproduced.
    monkeypatch.setattr(permutations, "lcfs_permutation", fcfs_permutation)
    with pytest.raises(
        ExtremalityViolationError,
        match=r"stack order scores 8.5 but \(1, 3, 2\) scores 8.0; stack order",
    ):
        check_extremality(BP)


@st.composite
def busy_periods(draw, lattice: bool, max_n: int = 8, single: bool = False):
    """A busy period of 2..max_n customers.

    The 2n - 2 instants after the opening one are labelled arrival or
    service start so that the k-th start follows the k-th arrival; the
    instants are distinct floats near a drawn origin, or points of a k/4
    grid.  On the grid an arrival may share the instant of the start just
    before it, so it equals a slot it cannot take, never its own-rank slot.
    With ``single`` the labels alternate, so each customer arrives no
    earlier than the slot before its own opens: arrival order is the only
    realizable order.
    """
    n = draw(st.integers(2, max_n))
    labels = []
    arrived = started = 0
    while started < n - 1:
        if arrived < n - 1 and (started == arrived or not single and draw(st.booleans())):
            arrived += 1
            labels.append(False)
        else:
            started += 1
            labels.append(True)
    size = 2 * n - 1
    if lattice:
        grid = st.integers(0, 4 * size)
        points = draw(st.lists(grid, min_size=size, max_size=size, unique=True))
        times = [k / 4 for k in sorted(points)]
        for t in range(2, size):
            if labels[t - 2] and not labels[t - 1] and draw(st.booleans()):
                times[t] = times[t - 1]
    else:
        origin = draw(st.sampled_from([0.0, 1.0, 1e3, 586360.0, 854161.0, 1e7]))
        values = st.floats(origin, origin + size, allow_nan=False, allow_infinity=False)
        times = sorted(
            draw(st.lists(values, min_size=size, max_size=size, unique=True))
        )
    arrivals, starts = [times[0]], [times[0]]
    for t, is_start in zip(times[1:], labels):
        (starts if is_start else arrivals).append(t)
    return BusyPeriod(tuple(arrivals), tuple(starts))


def _assert_enumeration_is_exact(bp):
    # A placement rule with a dead end, or one that misses an order, fails
    # here, ties included.
    listed = [p.mapping for p in enumerate_realizable(bp)]
    assert listed == brute_force_realizable(bp)
    assert len(listed) == check_extremality(bp).num_realizable


@given(busy_periods(lattice=False, max_n=7))
@settings(max_examples=100, deadline=None)
def test_enumeration_is_exactly_the_realizable_orders(bp):
    _assert_enumeration_is_exact(bp)


@given(busy_periods(lattice=True, max_n=7))
@settings(max_examples=100, deadline=None)
def test_enumeration_is_exactly_the_realizable_orders_on_a_lattice(bp):
    _assert_enumeration_is_exact(bp)


def _exhaustive_reference(bp):
    """Exact extremes over every listed order: (min, max, argmin, argmax)."""
    a = [Fraction(t) for t in bp.arrivals]
    b = [Fraction(t) for t in bp.service_starts]
    scored = [
        (sum(a[i] * b[m - 1] for i, m in enumerate(p.mapping)), p.mapping)
        for p in enumerate_realizable(bp)
    ]
    # Listing is lexicographic and min/max keep the first of equal keys.
    lo = min(scored, key=lambda s: s[0])
    hi = max(scored, key=lambda s: s[0])
    return lo[0], hi[0], lo[1], hi[1]


def _exact_objective(bp, mapping):
    b = bp.service_starts
    return sum(Fraction(x) * Fraction(b[m - 1]) for x, m in zip(bp.arrivals, mapping))


def _assert_matches_reference(bp):
    report = check_extremality(bp)
    _, _, scale = permutations._exact_times(bp)
    assert scale == max(Fraction(t).denominator for t in bp.arrivals + bp.service_starts)
    lo, hi, argmin, argmax = _exhaustive_reference(bp)
    assert (report.argmin, report.argmax) == (argmin, argmax)
    assert _exact_objective(bp, report.argmin) == lo
    # Each reported objective is its exact value rounded once.
    assert (report.min_objective, report.max_objective) == (float(lo), float(hi))
    assert report.num_realizable == len(enumerate_realizable(bp))


@given(busy_periods(lattice=False))
@settings(max_examples=100, deadline=None)
def test_extreme_orders_match_exact_exhaustive_reference(bp):
    _assert_matches_reference(bp)


@given(busy_periods(lattice=True))
@settings(max_examples=100, deadline=None)
def test_extreme_orders_match_reference_on_a_lattice(bp):
    _assert_matches_reference(bp)


# Periods whose only realizable order is arrival order: apart, tied (the
# third customer arrives as slot 2 opens), one customer, and near 10^6.
SINGLE_ORDER = [
    validate_busy_period([0, 1, 2], [0, 1.5, 2.5]),
    validate_busy_period([0, 1, 2], [0, 2, 3]),
    validate_busy_period([5.0], [5.0]),
    validate_busy_period(
        [854161.3166161182, 854161.8127211194, 854162.5797050659],
        [854161.3166161182, 854162.5797050659, 854162.5807999901],
    ),
]


def _assert_single_order_report(bp):
    # One realizable order attains both extremes: the report is the one
    # the certificate path gives, field by field, without the certificate.
    with mock.patch.object(permutations, "_improvement") as improvement:
        report = check_extremality(bp)
    assert not improvement.called
    order = Permutation.identity(bp.n)
    objective = pairing_objective(bp, order)
    assert report == permutations.ExtremalityReport(
        1, objective, objective, order.mapping, order.mapping
    )
    _assert_matches_reference(bp)


def test_single_order_periods_skip_the_certificate(monkeypatch):
    for bp in SINGLE_ORDER:
        _assert_single_order_report(bp)
    # A stack order other than arrival order takes no shortcut; there it is
    # not realizable, and refused before the certificate.
    calls = []
    improvement = permutations._improvement
    monkeypatch.setattr(
        permutations, "_improvement", lambda *args: calls.append(args[3]) or improvement(*args)
    )
    monkeypatch.setattr(
        permutations, "lcfs_permutation", lambda bp: Permutation._trusted((1, 3, 2))
    )
    with pytest.raises(ExtremalityViolationError, match=r"\(1, 3, 2\) is not realizable"):
        check_extremality(SINGLE_ORDER[0])
    assert calls == []


@pytest.mark.parametrize(
    "times, stack",
    [
        # one realizable order; (1, 3, 2) scores 5.5 against its 6.5
        (([0, 1, 2], [0, 1.5, 2.5]), (1, 3, 2)),
        # two realizable orders; the certificate would name (3, 2, 1)
        (([0, 1, 2], [0, 2.5, 3]), (2, 3, 1)),
    ],
)
def test_check_extremality_refuses_an_unrealizable_stack_order(monkeypatch, times, stack):
    # A stack order no discipline could produce, even one scoring below
    # every realizable order, is a violation naming that order.
    bp = validate_busy_period(*times)
    assert not is_realizable(bp, Permutation(stack))
    monkeypatch.setattr(permutations, "lcfs_permutation", lambda bp: Permutation._trusted(stack))
    with pytest.raises(ExtremalityViolationError) as info:
        check_extremality(bp)
    assert str(info.value).startswith(f"stack order {stack} is not realizable on ")


@pytest.mark.parametrize("lattice", [False, True])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_single_order_periods_match_the_exhaustive_reference(lattice, data):
    bp = data.draw(busy_periods(lattice=lattice, single=True))
    assert len(enumerate_realizable(bp)) == 1
    _assert_single_order_report(bp)


@pytest.mark.parametrize("lattice", [False, True])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_certificate_holds_exactly_on_the_minimizers(lattice, data):
    # Any realizable order, not only the stack order: the certificate passes
    # iff the order is optimal, and otherwise names a strictly better one.
    bp = data.draw(busy_periods(lattice=lattice))
    order = data.draw(st.sampled_from(enumerate_realizable(bp))).mapping
    a, b, _ = permutations._exact_times(bp)
    better = permutations._improvement(permutations._slot_floors(bp), a, b, order)
    lowest = _exhaustive_reference(bp)[0]
    assert (better is None) == (_exact_objective(bp, order) == lowest)
    if better is not None:
        assert is_realizable(bp, Permutation(better))
        assert _exact_objective(bp, better) < _exact_objective(bp, order)


def test_check_extremality_audits_arrival_order(monkeypatch):
    # The maximum rests on both sequences rising; a fall is reported with
    # the adjacent swap that beats arrival order.
    exact_times = permutations._exact_times

    def falling(bp):
        a, b, scale = exact_times(bp)
        return [a[0], a[2], a[1]], b, scale

    monkeypatch.setattr(permutations, "_exact_times", falling)
    with pytest.raises(
        ExtremalityViolationError,
        match=r"arrival order scores 8.0 but \(1, 3, 2\) scores 8.5; arrival order",
    ):
        check_extremality(BP)


@pytest.mark.parametrize("lattice", [False, True])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_closed_forms_pass_the_public_constructor(lattice, data):
    # Both are built unchecked; the lattice puts arrivals on slot instants.
    bp = data.draw(busy_periods(lattice=lattice, max_n=40))
    stack = lcfs_permutation(bp)
    assert Permutation(stack.mapping) == stack
    pairs = [1] * bp.n
    for k, j in stack_brackets(bp):
        pairs[k] = j + 1
    assert stack.mapping == tuple(pairs)
    first = fcfs_permutation(bp)
    assert Permutation(first.mapping) == first and first.is_identity()


@given(busy_periods(lattice=True))
@settings(max_examples=100, deadline=None)
def test_descent_reaches_the_stack_order_on_a_lattice(bp):
    stack = lcfs_permutation(bp).mapping
    for perm in enumerate_realizable(bp):
        trace = descent_to_lcfs(bp, perm)
        assert trace.final == stack
        for step in trace.steps:
            assert step.objective_after < step.objective_before


def test_descent_objective_is_exact_far_from_zero():
    # Far from zero a float sum of the objective rounds unevenly: re-summed
    # after each swap, it rises at swap (11, 12).  Each printed value is the
    # exact objective rounded once, so the floats never rise; they tie where
    # the exact fall is under half an ulp, as at (11, 12).
    bp = random_busy_period(np.random.default_rng(25), 12)
    bp = validate_busy_period(
        [t + 1e6 for t in bp.arrivals], [t + 1e6 for t in bp.service_starts]
    )
    steps = descent_to_lcfs(bp, fcfs_permutation(bp)).steps
    assert (11, 12) in [s.indices for s in steps]
    for s in steps:
        assert s.objective_before == pairing_objective(bp, Permutation(s.order_before))
        assert s.objective_after == pairing_objective(bp, Permutation(s.order_after))
        assert s.objective_after <= s.objective_before
        assert _exact_objective(bp, s.order_after) < _exact_objective(bp, s.order_before)


def _assert_exchange_lemma(bp):
    """Swapping any bad pair ``(i, k)`` of slots ``j < s`` gives a
    realizable order with exactly ``1 + 2 * #{x : i < x < k, j < p(x) < s}``
    fewer bad pairs and a strictly smaller exact objective."""
    for perm in enumerate_realizable(bp):
        m = perm.mapping
        pairs = bad_pairs(bp, perm)
        for i, k in pairs:
            j, s = m[i - 1], m[k - 1]
            swapped = list(m)
            swapped[i - 1], swapped[k - 1] = s, j
            after = Permutation(tuple(swapped))
            assert is_realizable(bp, after)
            between = sum(j < t < s for t in m[i : k - 1])
            assert len(bad_pairs(bp, after)) == len(pairs) - 1 - 2 * between
            assert _exact_objective(bp, after.mapping) < _exact_objective(bp, m)


@pytest.mark.parametrize("lattice", [False, True])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_exchange_lemma_counts_the_removed_bad_pairs(lattice, data):
    _assert_exchange_lemma(data.draw(busy_periods(lattice=lattice, max_n=7)))


def _top_sums(bp, mapping):
    """Partial sums of the exact waits, largest first."""
    b = bp.service_starts
    waits = [Fraction(b[m - 1]) - Fraction(x) for x, m in zip(bp.arrivals, mapping)]
    return list(itertools.accumulate(sorted(waits, reverse=True)))


@pytest.mark.parametrize("lattice", [False, True])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_each_descent_step_majorizes_the_last(lattice, data):
    # The wait sum is kept and no top-k sum of the sorted waits falls.
    bp = data.draw(busy_periods(lattice=lattice, max_n=30))
    seed = data.draw(st.integers(0, 2**32 - 1))
    start = random_realizable_permutation(np.random.default_rng(seed), bp)
    for step in descent_to_lcfs(bp, start).steps:
        before = _top_sums(bp, step.order_before)
        after = _top_sums(bp, step.order_after)
        assert after[-1] == before[-1]
        assert all(x <= y for x, y in zip(before, after))


def _assert_swap_is_at_the_first_unmatched_slot(bp, step):
    """In ``order_before`` every slot before the swap's slot holds its
    stack owner, and the swap's slot goes from ``i`` to its stack owner
    ``k``."""
    m = step.order_before
    i, k = step.indices
    for c, j in stack_brackets(bp):
        if j + 1 == m[i - 1]:
            assert (c + 1, step.order_after[c]) == (k, j + 1)
            return
        assert m[c] == j + 1
    raise AssertionError(f"swap {step.indices} moves slot 1")


def _assert_descent_is_exact(bp, start):
    """The trace's counts equal a full recount, each swap meets the exact
    certificate, each swap is at the first slot without its stack owner,
    the walk never goes back, a rerun repeats it, and the JSONL is one line
    per step."""
    trace = descent_to_lcfs(bp, start)
    assert trace.final == lcfs_permutation(bp).mapping
    assert trace.swap_count == len(trace.steps)
    a, b = bp.arrivals, bp.service_starts
    recount = {}
    for step in trace.steps:
        for order in (step.order_before, step.order_after):
            if order not in recount:
                recount[order] = bad_pairs(bp, Permutation(order))
        assert step.bad_pairs_before == len(recount[step.order_before])
        assert step.bad_pairs_after == len(recount[step.order_after])
        i, k = step.indices
        m = step.order_before
        assert a[i - 1] < a[k - 1] and b[m[i - 1] - 1] < b[m[k - 1] - 1]
        assert (i, k) in recount[m]
        assert (step.objective_before, step.objective_after) == (
            pairing_objective(bp, Permutation(m)),
            pairing_objective(bp, Permutation(step.order_after)),
        )
        _assert_swap_is_at_the_first_unmatched_slot(bp, step)
    slots = [step.order_before[step.indices[0] - 1] for step in trace.steps]
    assert all(x < y for x, y in zip(slots, slots[1:]))
    assert descent_to_lcfs(bp, start) == trace  # a rerun takes the same steps
    lines = trace.to_jsonl().splitlines()
    assert [json.loads(line) for line in lines] == [s.to_dict() for s in trace.steps]


@given(busy_periods(lattice=False, max_n=60), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_descent_counts_and_jsonl_are_exact(bp, seed):
    _assert_descent_is_exact(bp, random_realizable_permutation(np.random.default_rng(seed), bp))


@given(busy_periods(lattice=True, max_n=60), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_descent_counts_and_jsonl_are_exact_on_a_lattice(bp, seed):
    _assert_descent_is_exact(bp, fcfs_permutation(bp))
    _assert_descent_is_exact(bp, random_realizable_permutation(np.random.default_rng(seed), bp))


def test_descent_counts_and_jsonl_are_exact_at_n120():
    rng = np.random.default_rng(120)
    bp = random_busy_period(rng, 120)
    _assert_descent_is_exact(bp, random_realizable_permutation(rng, bp))


@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_product_formula_counts_the_listed_orders(seed, n):
    bp = random_busy_period(np.random.default_rng(seed), n)
    assert check_extremality(bp).num_realizable == len(enumerate_realizable(bp))


def test_uniqueness_of_stack_order_small():
    # exactly one realizable order has zero bad pairs, and it is the stack order
    rng = np.random.default_rng(4242)
    for _ in range(200):
        bp = random_busy_period(rng, int(rng.integers(2, 7)))
        quiet = [
            p.mapping
            for p in enumerate_realizable(bp)
            if not bad_pairs(bp, p)
        ]
        assert quiet == [lcfs_permutation(bp).mapping]


@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
@settings(max_examples=120, deadline=None)
def test_envelope_brackets_every_member(seed, n):
    rng = np.random.default_rng(seed)
    bp = random_busy_period(rng, n)
    lo = pairing_objective(bp, lcfs_permutation(bp))
    hi = pairing_objective(bp, fcfs_permutation(bp))
    member = random_realizable_permutation(rng, bp)
    assert is_realizable(bp, member)
    assert lo <= pairing_objective(bp, member) <= hi


@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
@settings(max_examples=120, deadline=None)
def test_stack_order_never_has_bad_pairs(seed, n):
    bp = random_busy_period(np.random.default_rng(seed), n)
    assert bad_pairs(bp, lcfs_permutation(bp)) == []
