"""Busy periods and service-order permutations.

A *busy period* is one maximal stretch of uninterrupted work in a
single-server queue: ``n`` customers arrive at times ``a_1 < ... < a_n``
and the server begins ``n`` services at times ``b_1 < ... < b_n``, starting
the moment the first customer walks in (``b_1 == a_1``) and never idling
until all ``n`` are done.  The timestamps alone do not say *who* got which
service slot -- that is a permutation: customer ``i`` is the ``p(i)``-th
customer to enter service.

Any non-preemptive, work-conserving discipline produces a permutation that

* keeps customer 1 in slot 1 (nobody else is present when service begins), and
* never starts a customer before that customer has arrived
  (``a_i < b_{p(i)}``).

We call such permutations *realizable*.  Mean waiting time is the same for
every realizable order; the mean **squared** wait is not, and
``pairing_objective`` is the quantity that separates them: over one busy
period,

    mean square wait = (mean of b_j^2) - (2/n) * pairing_objective
                       + (mean of a_i^2)

so orders pairing early arrivals with early slots (large objective) give the
smallest second moment, and vice versa.

Invariants enforced at construction:

* equal lengths, at least one customer,
* all timestamps real numbers (not bools) and finite,
* both sequences strictly increasing,
* ``arrivals[0] == service_starts[0]``,
* ``arrivals[i] < service_starts[i]`` for every later ``i`` (otherwise no
  schedule could keep the server busy: by the time the ``i``-th slot opens,
  fewer than ``i`` customers would have arrived).

An arrival may coincide with a later slot.  The slot opens first: since
realizability is strict, a customer arriving at that instant cannot take
it and waits for a later one, as in the simulator.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from numbers import Real

from .errors import (
    FirstServiceNotImmediateError,
    InfeasibleError,
    LengthMismatchError,
    MalformedInputError,
    NotRealizableError,
    NotSortedError,
    SizeMismatchError,
    ValidationError,
)

__all__ = [
    "BusyPeriod",
    "Permutation",
    "validate_busy_period",
    "is_realizable",
    "pairing_objective",
]


def _check_strictly_increasing(values: tuple[float, ...], label: str) -> None:
    for k in range(1, len(values)):
        if not values[k] > values[k - 1]:
            raise NotSortedError(
                f"{label} must be strictly increasing: "
                f"{label}[{k}]={values[k]!r} does not exceed "
                f"{label}[{k - 1}]={values[k - 1]!r}"
            )


@dataclass(frozen=True)
class BusyPeriod:
    """Validated arrival and service-start times of one busy period.

    Both sequences are strictly increasing tuples of real numbers of equal
    length with a shared first element; an arrival may equal a later slot,
    which it then cannot take.  See the module docstring for the full set
    of invariants.  Any sequences given are copied into tuples before the
    checks, so instances are immutable, hashable and safe to share.  A
    field that is not a sequence, or a timestamp that is not a real number
    (a bool included), raises :class:`MalformedInputError`.

    A period that a first-come :class:`~qvar.simulate.BusyPeriodView`
    hands out reads its times on first use: until then it holds only its
    trace's arrival and slot arrays and its own bounds, and answers ``n``
    from the bounds.  The first read of either field builds both tuples,
    keeps them and drops the arrays.  So an unread period keeps its trace's
    arrays alive, and a period that has been read does not.  Either way it
    is the same value: it compares, hashes, prints and pickles as the
    period built from its times.
    """

    # The two fields, the customer count, and while a window is unread its
    # trace's (arrivals, slot starts) pair and its first customer there.
    __slots__ = ("arrivals", "service_starts", "n", "_trace", "_lo")

    arrivals: tuple[float, ...]
    service_starts: tuple[float, ...]

    def __post_init__(self) -> None:
        a, b = _real_times(self.arrivals), _real_times(self.service_starts)
        _set_arrivals(self, a)
        _set_starts(self, b)
        _set_n(self, len(a))
        if len(a) != len(b):
            raise LengthMismatchError(
                f"got {len(a)} arrivals but {len(b)} service starts"
            )
        if not a:
            raise ValidationError("a busy period needs at least one customer")
        for label, times in (("arrival time", a), ("service start", b)):
            for t in times:
                if not math.isfinite(t):
                    raise ValidationError(f"non-finite {label} {t!r}")
        _check_strictly_increasing(a, "arrivals")
        _check_strictly_increasing(b, "service_starts")
        if a[0] != b[0]:
            raise FirstServiceNotImmediateError(
                f"first service starts at t={b[0]!r} but the period opens "
                f"with an arrival at t={a[0]!r}"
            )
        for i in range(1, len(a)):
            if not a[i] < b[i]:
                raise InfeasibleError(i + 1, a[i], b[i])

    @classmethod
    def _trusted(
        cls, arrivals: tuple[float, ...], service_starts: tuple[float, ...]
    ) -> "BusyPeriod":
        """Build without running the checks above.

        Only for a caller that has already proved every invariant on the
        same values, as :func:`qvar.simulate.extract_busy_periods` does on
        arrays; anything else goes through the constructor.
        """
        bp = object.__new__(cls)
        _set_arrivals(bp, arrivals)
        _set_starts(bp, service_starts)
        _set_n(bp, len(arrivals))
        return bp

    @classmethod
    def _window(cls, trace: tuple, lo: int, hi: int) -> "BusyPeriod":
        """The period of customers ``[lo, hi)`` of ``trace``, an (arrivals,
        slot starts) pair of float arrays, read on first use; same contract
        as :meth:`_trusted`."""
        bp = object.__new__(cls)
        _set_trace(bp, trace)
        _set_lo(bp, lo)
        _set_n(bp, hi - lo)
        return bp

    def __getattr__(self, name: str):
        # Called only for an attribute that is not set: the times of a
        # window not yet read, else a name the instance lacks.
        if name in ("arrivals", "service_starts") and self._trace is not None:
            arrivals, starts = self._trace
            lo = self._lo
            hi = lo + self.n
            # Both fields before the arrays go, for a thread reading alongside.
            _set_arrivals(self, tuple(arrivals[lo:hi].tolist()))
            _set_starts(self, tuple(starts[lo:hi].tolist()))
            _set_trace(self, None)
        return object.__getattribute__(self, name)

    def __reduce__(self):
        # Frozen and without a __dict__: pickled and copied as its times.
        return type(self), (self.arrivals, self.service_starts)

    def to_dict(self) -> dict[str, list[float]]:
        """JSON-friendly form: ``{"arrivals": [...], "service_starts": [...]}``."""
        return {
            "arrivals": list(self.arrivals),
            "service_starts": list(self.service_starts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BusyPeriod":
        if not isinstance(data, Mapping):
            raise MalformedInputError(
                f"expected an object with 'arrivals' and 'service_starts', "
                f"got {type(data).__name__}"
            )
        try:
            raw_a = data["arrivals"]
            raw_b = data["service_starts"]
        except KeyError as exc:
            raise MalformedInputError(f"missing key {exc.args[0]!r}") from None
        for key, raw in (("arrivals", raw_a), ("service_starts", raw_b)):
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise MalformedInputError(f"{key!r} must be an array of numbers")
        return validate_busy_period(raw_a, raw_b)


# Slot setters past the frozen guard, for the construction paths above.
_set_arrivals, _set_starts, _set_n, _set_trace, _set_lo = (
    getattr(BusyPeriod, name).__set__ for name in BusyPeriod.__slots__
)


def _real_times(values: object) -> tuple:
    """``values`` as a tuple of real numbers, refusing anything else, bools
    and ints beyond the float range included, with :class:`MalformedInputError`."""
    try:
        times = tuple(values)
        for t in times:
            if type(t) is not float:  # else a real number, without the slow Real ABC check
                if isinstance(t, bool) or not isinstance(t, Real):
                    raise TypeError(f"got {t!r}")
                float(t)  # an int beyond the float range overflows
    except (TypeError, OverflowError) as exc:
        raise MalformedInputError(f"timestamps must be numbers: {exc}") from None
    return times


def _exact_times(bp: BusyPeriod) -> tuple[list[int], list[int], int]:
    """The period's timestamps as ints over one common power of two, and that power.

    Every float is a dyadic rational ``num / 2**k``; multiplying all of them
    by the largest such denominator keeps each one exact, so integer
    objectives compare exactly.  The period is not shifted to start at 0:
    float subtraction rounds and can create ties.
    """
    ratios = [t.as_integer_ratio() for t in bp.arrivals + bp.service_starts]
    scale = max(den for _, den in ratios)
    k = scale.bit_length()
    # Each denominator is a power of two: multiplying by scale // den is a shift.
    ints = [num << (k - den.bit_length()) for num, den in ratios]
    return ints[: bp.n], ints[bp.n :], scale


def _int_objective(a: list[int], b: list[int], mapping: Sequence[int]) -> int:
    """The pairing objective times ``scale**2``, in :func:`_exact_times` ints."""
    return sum(x * b[m - 1] for x, m in zip(a, mapping))


def validate_busy_period(
    arrivals: Sequence[float], service_starts: Sequence[float]
) -> BusyPeriod:
    """Coerce two timestamp sequences into a validated :class:`BusyPeriod`
    of floats.

    A timestamp that is not a real number, or is a bool, raises
    :class:`MalformedInputError`, as in the constructor; else the
    :class:`~qvar.errors.ValidationError` subclass naming the first violated
    invariant is raised.
    """
    a, b = _real_times(arrivals), _real_times(service_starts)
    return BusyPeriod(tuple(map(float, a)), tuple(map(float, b)))


@dataclass(frozen=True, slots=True)
class Permutation:
    """A service order: customer ``i`` takes service slot ``mapping[i-1]``.

    Stored 1-based to match how positions are written in traces and proofs.
    Construction copies the mapping into a tuple and verifies it is a
    bijection on ``1..n``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(self.mapping)
        object.__setattr__(self, "mapping", mapping)
        n = len(mapping)
        if n == 0:
            raise ValidationError("a permutation needs at least one element")
        seen = [False] * n
        for v in mapping:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"permutation entries must be ints, got {v!r}")
            if not 1 <= v <= n:
                raise ValidationError(
                    f"permutation entry {v} out of range 1..{n}"
                )
            if seen[v - 1]:
                raise ValidationError(f"permutation repeats the value {v}")
            seen[v - 1] = True

    @classmethod
    def _trusted(cls, mapping: tuple[int, ...]) -> "Permutation":
        """Build without checking that ``mapping`` is a bijection on ``1..n``;
        same contract as :meth:`BusyPeriod._trusted`."""
        perm = object.__new__(cls)
        _set_mapping(perm, mapping)
        return perm

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """Arrival order on ``n`` customers.

        For an int ``1 <= n < 64`` every call returns the same shared
        instance, built at import; a longer order is built afresh on each
        call, so the shared ones stay a few kB whatever lengths are asked for.
        """
        if n < 1:
            raise ValidationError("a permutation needs at least one element")
        if type(n) is int and n < len(_IDENTITIES):
            return _IDENTITIES[n]
        return cls._trusted(tuple(range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        """Slot taken by customer ``i`` (1-based)."""
        return self.mapping[i - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.mapping))


_set_mapping = Permutation.mapping.__set__

# Arrival orders of 1 to 63 customers, shared: half the busy periods at
# rho=0.95 hold one customer, and iterating a first-come view or taking a
# closed form on a short period returns one of these.  Sharing every length
# would keep O(n**2) ints alive for the longest period ever seen.
_IDENTITIES = (None, *(Permutation._trusted(tuple(range(1, n + 1))) for n in range(1, 64)))


def _check_sizes(bp: BusyPeriod, perm: Permutation) -> None:
    if len(perm) != bp.n:
        raise SizeMismatchError(
            f"permutation of length {len(perm)} cannot order a busy period "
            f"with {bp.n} customers"
        )


def is_realizable(bp: BusyPeriod, perm: Permutation) -> bool:
    """True when some non-preemptive discipline could produce this order.

    Customer 1 must hold slot 1, and each later customer must arrive before
    the slot it is assigned opens.
    """
    _check_sizes(bp, perm)
    if perm.mapping[0] != 1:
        return False
    b = bp.service_starts
    a = bp.arrivals
    for i in range(1, bp.n):
        if not a[i] < b[perm.mapping[i] - 1]:
            return False
    return True


def _require_realizable(bp: BusyPeriod, perm: Permutation) -> None:
    """Raise :class:`NotRealizableError` unless :func:`is_realizable`."""
    if not is_realizable(bp, perm):
        raise NotRealizableError(
            f"service order {perm.mapping} is not realizable on this busy period"
        )


def pairing_objective(bp: BusyPeriod, perm: Permutation) -> float:
    """Sum over customers of (arrival time) * (assigned service-start time).

    The single quantity through which the service order influences the mean
    squared wait of the period -- larger objective, smaller second moment.
    Summed exactly in the ints of :func:`_exact_times` and rounded once
    (int / int is correctly rounded), so orders can tie but never swap.
    """
    _check_sizes(bp, perm)
    a, b, scale = _exact_times(bp)
    return _int_objective(a, b, perm.mapping) / (scale * scale)
