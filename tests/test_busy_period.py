import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import enumerate_realizable, mean_square_wait, waiting_times
from qvar import (
    BusyPeriod,
    FirstServiceNotImmediateError,
    InfeasibleError,
    LengthMismatchError,
    MalformedInputError,
    NotRealizableError,
    NotSortedError,
    Permutation,
    SizeMismatchError,
    ValidationError,
    check_extremality,
    fcfs_permutation,
    is_realizable,
    lcfs_permutation,
    pairing_objective,
    random_busy_period,
    validate_busy_period,
)

# One busy period used throughout: three arrivals at 0,1,2 and service
# slots opening at 0, 2.5, 3.  Both later customers are waiting when the
# second slot opens, so two service orders are possible.
BP = validate_busy_period([0.0, 1.0, 2.0], [0.0, 2.5, 3.0])
IDENT = Permutation((1, 2, 3))
SWAPPED = Permutation((1, 3, 2))


def test_validate_accepts_and_coerces():
    bp = validate_busy_period([0, 1, 2], [0, 2.5, 3])
    assert bp.n == 3
    assert bp.arrivals == (0.0, 1.0, 2.0)
    assert isinstance(bp.arrivals[0], float)
    # numpy scalars and other reals load as floats
    bp = validate_busy_period(
        [np.float64(0), np.int64(1), Fraction(3, 2)], [np.float32(0), 2.5, np.int32(3)]
    )
    assert bp == validate_busy_period([0.0, 1.0, 1.5], [0.0, 2.5, 3.0])
    assert all(type(t) is float for t in bp.arrivals + bp.service_starts)


def test_single_customer_period():
    bp = validate_busy_period([3.5], [3.5])
    assert bp.n == 1


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        validate_busy_period([0, 1], [0])


def test_empty_rejected():
    with pytest.raises(ValidationError):
        validate_busy_period([], [])


def test_not_sorted():
    with pytest.raises(NotSortedError):
        validate_busy_period([0, 2, 1], [0, 3, 4])
    with pytest.raises(NotSortedError):
        validate_busy_period([0, 1, 2], [0, 3, 3])


def test_fields_are_copied_into_tuples():
    # A list passed in and changed later cannot change the validated period.
    arrivals, mapping = [0.0, 1.0, 2.0], [1, 3, 2]
    bp, perm = BusyPeriod(arrivals, [0.0, 2.5, 3.0]), Permutation(mapping)
    arrivals[2], mapping[1] = 0.5, 2
    assert bp.arrivals == (0.0, 1.0, 2.0) and perm.mapping == (1, 3, 2)
    assert bp == BP and hash(bp) == hash(BP)
    assert perm == SWAPPED and hash(perm) == hash(SWAPPED)
    with pytest.raises(TypeError):
        bp.arrivals[2] = 0.5
    assert check_extremality(bp).argmin == perm.mapping
    # Arrays are copied too, so they are checked like any other sequence.
    assert BusyPeriod(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.5, 3.0])) == BP
    with pytest.raises(NotSortedError):
        BusyPeriod(np.array([0.0, 2.0, 1.0]), np.array([0.0, 2.5, 3.0]))
    with pytest.raises(ValidationError):
        BusyPeriod(np.array([]), np.array([]))


def test_first_service_not_immediate():
    with pytest.raises(FirstServiceNotImmediateError):
        validate_busy_period([0, 1], [0.5, 2])


def test_duplicate_timestamp_across_sequences():
    # Customer 3 arrives as slot 2 opens.  The slot opens first, so only
    # customer 2 can take it.
    bp = validate_busy_period([0, 1, 2], [0, 2, 4])
    assert enumerate_realizable(bp) == [Permutation.identity(3)]
    assert lcfs_permutation(bp) == Permutation.identity(3)


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        validate_busy_period([0, math.nan], [0, 1])
    with pytest.raises(ValidationError):
        validate_busy_period([0, 1], [0, math.inf])


def test_infeasible_reports_position():
    # The second slot opens at 0.5 but the second arrival is only at t=1:
    # the server would have nobody to serve.
    with pytest.raises(InfeasibleError) as exc:
        validate_busy_period([0, 1, 2], [0, 0.5, 3])
    assert exc.value.index == 2
    assert exc.value.arrival == 1.0
    assert exc.value.service_start == 0.5


def test_malformed_values():
    with pytest.raises(MalformedInputError):
        validate_busy_period([0, "x"], [0, 1])
    # Strings, bools and other non-reals are refused, not coerced.
    for bad in ("1", b"1", True, False, None, [1], Decimal(1), 10**400):
        with pytest.raises(MalformedInputError, match="timestamps must be numbers"):
            validate_busy_period([0, bad], [0, 3])
    with pytest.raises(MalformedInputError, match="timestamps must be numbers"):
        validate_busy_period([0, 1], 5)
    with pytest.raises(MalformedInputError, match="timestamps must be numbers"):
        BusyPeriod.from_dict(
            {"arrivals": ["0", True, "2"], "service_starts": [False, "2.5", 3]}
        )


@pytest.mark.parametrize(
    "arrivals, starts",
    [((True, 2.0), (True, 3.0)), (("a",), ("a",)), (5, 5), ((0, 10**400), (0, 10**401))],
    ids=["bools", "strings", "not-sequences", "past-the-float-range"],
)
def test_constructor_refuses_what_validation_refuses(arrivals, starts):
    for build in (BusyPeriod, validate_busy_period):
        with pytest.raises(MalformedInputError, match="timestamps must be numbers"):
            build(arrivals, starts)


def test_dict_round_trip():
    d = BP.to_dict()
    assert d == {"arrivals": [0.0, 1.0, 2.0], "service_starts": [0.0, 2.5, 3.0]}
    again = BusyPeriod.from_dict(json.loads(json.dumps(d)))
    assert again == BP


def test_from_dict_shape_errors():
    with pytest.raises(MalformedInputError):
        BusyPeriod.from_dict({"arrivals": [0.0]})
    with pytest.raises(MalformedInputError):
        BusyPeriod.from_dict({"arrivals": "nope", "service_starts": [0.0]})
    with pytest.raises(MalformedInputError):
        BusyPeriod.from_dict([1, 2, 3])


def test_permutation_validation():
    with pytest.raises(ValidationError):
        Permutation((1, 1))
    with pytest.raises(ValidationError):
        Permutation((0, 1))
    with pytest.raises(ValidationError):
        Permutation((1, 4, 2))
    with pytest.raises(ValidationError):
        Permutation(())
    with pytest.raises(ValidationError):
        Permutation.identity(0)


def test_short_identities_are_shared():
    # Below 64 customers arrival order is one shared instance per length;
    # a longer one is built on each call.
    for n in range(1, 64):
        assert Permutation.identity(n) is Permutation.identity(n)
        assert Permutation.identity(n).mapping == tuple(range(1, n + 1))
    assert Permutation.identity(np.int64(5)) == Permutation.identity(5)
    long = Permutation.identity(64)
    assert long == Permutation.identity(64) and long is not Permutation.identity(64)
    for n in (0, -1):
        with pytest.raises(ValidationError):
            Permutation.identity(n)
    with pytest.raises(TypeError):
        Permutation.identity(3.0)


def test_permutation_basics():
    p = Permutation((1, 3, 2))
    assert len(p) == 3
    assert p(2) == 3
    assert Permutation.identity(3).is_identity()
    assert not p.is_identity()


def test_realizable():
    assert is_realizable(BP, IDENT)
    assert is_realizable(BP, SWAPPED)
    # customer 1 must take the first slot
    assert not is_realizable(BP, Permutation((2, 1, 3)))


def test_size_mismatch():
    with pytest.raises(SizeMismatchError):
        pairing_objective(BP, Permutation((1, 2)))
    with pytest.raises(SizeMismatchError):
        is_realizable(BP, Permutation((1,)))


def test_objective_values():
    assert pairing_objective(BP, IDENT) == 8.5
    assert pairing_objective(BP, SWAPPED) == 8.0


def test_waits():
    assert waiting_times(BP, IDENT) == (0.0, 1.5, 1.0)
    assert waiting_times(BP, SWAPPED) == (0.0, 2.0, 0.5)


def test_waits_reject_unrealizable():
    bp = validate_busy_period([0, 1, 2], [0, 1.5, 3])
    # slot 2 opens at 1.5, before customer 3 arrives at 2
    with pytest.raises(NotRealizableError):
        waiting_times(bp, Permutation((1, 3, 2)))


def test_mean_square_wait_values():
    assert mean_square_wait(BP, IDENT) == pytest.approx(3.25 / 3)
    assert mean_square_wait(BP, SWAPPED) == pytest.approx(4.25 / 3)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_extreme_orders_always_realizable(seed, n):
    bp = random_busy_period(np.random.default_rng(seed), n)
    assert is_realizable(bp, fcfs_permutation(bp))
    assert is_realizable(bp, lcfs_permutation(bp))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_second_moment_decomposition(seed, n):
    # mean square wait = mean(b^2) - (2/n)*objective + mean(a^2): the whole
    # reason the pairing objective is the right lever.
    bp = random_busy_period(np.random.default_rng(seed), n)
    for perm in (fcfs_permutation(bp), lcfs_permutation(bp)):
        direct = mean_square_wait(bp, perm)
        b2 = sum(b * b for b in bp.service_starts) / bp.n
        a2 = sum(a * a for a in bp.arrivals) / bp.n
        rebuilt = b2 - 2.0 * pairing_objective(bp, perm) / bp.n + a2
        assert direct == pytest.approx(rebuilt, rel=1e-12, abs=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
@settings(max_examples=150, deadline=None)
def test_wait_sum_is_order_free(seed, n):
    # Every realizable order hands out the same slots, so the total wait
    # is a property of the period alone.  Timestamps from the generator
    # are dyadic, so fsum makes the comparison exact.
    bp = random_busy_period(np.random.default_rng(seed), n)
    ident = math.fsum(waiting_times(bp, fcfs_permutation(bp)))
    stack = math.fsum(waiting_times(bp, lcfs_permutation(bp)))
    assert ident == stack
