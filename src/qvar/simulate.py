"""Single-server queue simulator with pluggable service disciplines.

A work-conserving server fixes the service-start slots of every busy
period; the discipline only picks which waiting customer takes each slot.
Slot ``k`` opens at the completion ``t`` of slot ``k-1``, after every
customer who arrived strictly before ``t`` has joined the waiting room; if
nobody is waiting, the next arrival opens a busy period at its own arrival
instant.  So a completion wins a tie with an arrival: the customer arriving
at that instant finds a free server or the freshly started successor, never
a stale state.

First-come takes the oldest waiter, last-come the newest, random-order a
uniform pick driven by the dedicated decision stream.  Arrivals, service
durations, and decisions come from three independent streams (see
:mod:`qvar.variates`), so switching discipline changes *only* who waits
how long, never the workload itself.

Slot k, the k-th service to start in time order, lasts service draw k,
whoever it serves.  Service times are i.i.d. and no discipline reads them,
so this fixes each discipline's law, and all disciplines share one
server-busy trajectory path by path: the same busy periods and the same
service-start times.  The variance comparison is then a per-busy-period
statement.

A run takes three steps.  The trajectory (each slot's start and end, bitwise
equal to adding the durations slot by slot, the busy periods, and the
waiters each slot finds) is computed once with array operations; the
service durations are summed into the slots and not kept.  First come
serves each slot's own customer, so the trajectory is its trace.  Last come
(bracket matching) and random order (all runs of a block walked in
lockstep) assign customers only on contested runs: slots finding two or
more waiters and the slot emptying the list after them; any other slot
serves its own customer.  Random order makes the seed's decision stream
afresh and reads it block by block, one draw per slot, so no run keeps a
full-length array of decisions.  Their traces place each slot's times at
its customer and keep no trajectory: the runs of a config share one only
while something holds its first-come trace.
"""

from __future__ import annotations

import json
import weakref
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from enum import Enum
from math import inf, isfinite
from pathlib import Path

import numpy as np

from .busy_period import BusyPeriod, Permutation, validate_busy_period
from .errors import ConfigError, MalformedInputError, MalformedTraceError
from .variates import (
    Distribution,
    _check_count,
    _check_rate,
    _check_seed,
    draw_variates,
    make_streams,
    parse_distribution,
)

__all__ = [
    "Discipline",
    "SimConfig",
    "SimTrace",
    "BusyPeriodView",
    "Trajectory",
    "run_simulation",
    "extract_busy_periods",
    "per_period_wait_sums",
    "write_trace_jsonl",
    "read_trace_jsonl",
]


class Discipline(str, Enum):
    FCFS = "fcfs"
    LCFS = "lcfs"
    RANDOM_ORDER = "random"


def _check_discipline(word: Discipline | str) -> Discipline:
    """The :class:`Discipline` a word names; :class:`ConfigError` if none."""
    try:
        return Discipline(word)
    except ValueError:
        raise ConfigError(
            f"unknown discipline {word!r}; choose from "
            f"{', '.join(d.value for d in Discipline)}"
        ) from None


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one simulation run.

    ``arrival_rate``/``service_rate`` set the time scale; ``arrival_dist``/
    ``service_dist`` are distribution shapes, the words
    :func:`~qvar.variates.parse_distribution` reads: ``exponential`` (the
    default), ``deterministic``, ``uniform`` or ``uniform:lo,hi`` (bounds
    whose mean must be ``1/rate``).  :meth:`distributions` gives each shape
    at its rate, so ``dataclasses.replace`` with a new rate rescales it.
    The first customer arrives at t=0; ``num_arrivals`` customers are
    generated and all are served to completion, so unstable configurations
    still terminate.
    """

    arrival_rate: float
    service_rate: float
    num_arrivals: int
    seed: int
    discipline: Discipline = Discipline.FCFS
    arrival_dist: str = "exponential"
    service_dist: str = "exponential"

    def __post_init__(self) -> None:
        _check_rate("arrival_rate", self.arrival_rate)
        _check_rate("service_rate", self.service_rate)
        object.__setattr__(
            self, "num_arrivals", _check_count("num_arrivals", self.num_arrivals)
        )
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "discipline", _check_discipline(self.discipline))
        self.distributions()

    def distributions(self) -> tuple[Distribution, Distribution]:
        """The arrival (inter-arrival) and service laws: each shape at its rate."""
        return (
            parse_distribution(self.arrival_dist, self.arrival_rate),
            parse_distribution(self.service_dist, self.service_rate),
        )

    @property
    def utilization(self) -> float:
        return self.arrival_rate / self.service_rate

    @property
    def is_stable(self) -> bool:
        return self.arrival_rate < self.service_rate

    def to_dict(self) -> dict[str, object]:
        arrival, service = self.distributions()
        return {
            "arrival_rate": self.arrival_rate,
            "service_rate": self.service_rate,
            "num_arrivals": self.num_arrivals,
            "seed": self.seed,
            "discipline": self.discipline.value,
            "coupling": "position",  # constant: every slot k lasts draw k
            "arrival_dist": arrival.to_dict(),
            "service_dist": service.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-customer times of one run, in arrival order, plus period heads.

    ``period_starts`` holds the 0-based customer index opening each busy
    period (always starting with 0).  Arrays are float64/int64 and frozen
    read-only; a customer's wait is ``service_starts - arrivals`` and its
    sojourn ``departures - arrivals``.  A first-come-first-served trace
    from :func:`run_simulation` is a :class:`Trajectory`.
    """

    arrivals: np.ndarray
    service_starts: np.ndarray
    departures: np.ndarray
    period_starts: np.ndarray
    config: SimConfig | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name, dtype in (
            ("arrivals", np.float64),
            ("service_starts", np.float64),
            ("departures", np.float64),
            ("period_starts", np.int64),
        ):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = len(self.arrivals)
        if not (len(self.service_starts) == n and len(self.departures) == n):
            raise MalformedTraceError("trace arrays must have equal lengths")
        if n == 0:
            raise MalformedTraceError("a trace must contain at least one customer")
        heads = self.period_starts
        if len(heads) == 0 or heads[0] != 0:
            raise MalformedTraceError("the first customer must open a busy period")
        if np.any(heads[1:] <= heads[:-1]) or heads[-1] >= n:
            raise MalformedTraceError(
                "period starts must be strictly increasing customer indices "
                f"below {n}"
            )

    @property
    def n(self) -> int:
        return len(self.arrivals)

    @property
    def num_periods(self) -> int:
        return len(self.period_starts)

    def waits(self) -> np.ndarray:
        return self.service_starts - self.arrivals

    def service_times(self) -> np.ndarray:
        return self.departures - self.service_starts


class Trajectory(SimTrace):
    """The first-come trace of a config, built from the config alone: each
    slot's start and end, the busy periods, and :attr:`queue`, the waiters
    each slot finds, counted on first use.  Its ``config`` is first come.

    Runs that differ only in discipline share one, a pure function of the
    config without its discipline: :func:`run_simulation` reuses the one it
    drew while anyone holds it.  It keeps neither the service durations,
    folded into the slots, nor the decision stream, which only random order
    reads and makes from the seed.  Slot ends past the float range raise
    :class:`ConfigError`.
    """

    def __init__(self, config: SimConfig) -> None:
        arrival, service = config.distributions()
        arrival_rng, service_rng, _ = make_streams(config.seed)
        n = config.num_arrivals
        arrivals = np.zeros(n, dtype=np.float64)
        if n > 1:
            np.cumsum(draw_variates(arrival, arrival_rng, n - 1), out=arrivals[1:])
        starts, ends, heads = _compute_slots(
            arrivals, draw_variates(service, service_rng, n)
        )
        # The last slot ends after every arrival, start and departure.
        if not isfinite(ends[-1]):
            raise ConfigError(
                f"arrival rate {config.arrival_rate!r} and service rate "
                f"{config.service_rate!r} give times beyond the float range"
            )
        super().__init__(
            arrivals, starts, ends, heads, replace(config, discipline=Discipline.FCFS)
        )

    @cached_property
    def queue(self) -> np.ndarray:
        """The waiters when each slot opens, its own customer included: the
        customers arrived strictly before it (a completion wins a tie) less
        the slots before it.  A period's head finds only its own customer.

        Each block's slot starts and arrivals, both sorted, are merged by
        one stable sort with the starts first, so a start sorts before an
        equal arrival: slot ``k`` lands after the ``k`` starts before it and
        the arrivals strictly before it."""
        starts, heads, n = self.service_starts, self.period_starts, self.n
        queue = np.empty(n, dtype=_index_dtype(n))
        bounds = np.append(heads, n)
        for _, _, lo, hi in _period_blocks(bounds, _BLOCK):
            m = hi - lo
            order = np.argsort(
                np.concatenate((starts[lo:hi], self.arrivals[lo:hi])), kind="stable"
            )
            queue[lo:hi] = np.flatnonzero(order < m) - 2 * np.arange(m)
        queue[heads] = 1
        return queue


def _index_dtype(n: int) -> type[np.signedinteger]:
    """The integer type indexing ``n`` customers: int32 below 2**31, else int64."""
    return np.int32 if n < 1 << 31 else np.int64


# The trajectories drawn by run_simulation, by config with the discipline
# set to first-come.  A first-come trace is its trajectory; nothing else
# here keeps one alive.
_drawn: weakref.WeakValueDictionary[SimConfig, Trajectory] = (
    weakref.WeakValueDictionary()
)


def run_simulation(config: SimConfig) -> SimTrace:
    """Simulate ``config.num_arrivals`` customers and return the full trace.

    The run reuses the :class:`Trajectory` of the config, discipline aside,
    while its first-come trace lives, and draws one only if there is none;
    so callers share a trajectory across disciplines by holding the
    first-come trace.  A first-come run returns the trajectory itself;
    last-come and random-order traces keep none.  Deterministic: equal
    configs give bitwise-equal traces, on a reused trajectory or a new one.
    The decision stream is made only when the discipline is random-order:
    each such run takes the seed's stream at its start,
    ``make_streams(config.seed)[2]``.
    """
    key = replace(config, discipline=Discipline.FCFS)
    trajectory = _drawn.get(key)
    if trajectory is None:
        trajectory = _drawn[key] = Trajectory(key)
    d = config.discipline
    if d is Discipline.FCFS:
        return trajectory
    picks = make_streams(config.seed)[2] if d is Discipline.RANDOM_ORDER else None
    served = _slot_customers(trajectory.queue, trajectory.period_starts, picks)
    starts = np.empty_like(trajectory.service_starts)
    ends = np.empty_like(trajectory.departures)
    starts[served], ends[served] = trajectory.service_starts, trajectory.departures
    return SimTrace(trajectory.arrivals, starts, ends, trajectory.period_starts, config)


def _compute_slots(
    arrivals: np.ndarray, durations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot starts, slot ends and period heads.  ``durations`` is used up:
    its buffer becomes the slot starts.

    Slot ``k`` lasts ``durations[k]`` from ``max(D[k-1], a[k])`` and opens a
    busy period when ``a[k] >= D[k-1]``.  Lindley's max-plus form guesses
    the heads: in exact arithmetic ``k`` opens a period when ``a[k] - C[k-1]``
    reaches the running maximum of that quantity, ``C`` being the prefix
    sums of the durations.  The ends are then summed as the recursion sums
    them, period by period in groups of equal size (:func:`_period_sums`),
    and every head is re-checked exactly against them until the guess
    holds.  Each pass corrects at least the first wrong head.
    """
    n = len(arrivals)
    x = np.empty(n)
    x[0] = arrivals[0]
    np.cumsum(durations[:-1], out=x[1:])
    np.subtract(arrivals[1:], x[1:], out=x[1:])
    peak = np.maximum.accumulate(x)
    guess = np.empty(n, dtype=bool)
    guess[0] = True
    np.greater_equal(x[1:], peak[:-1], out=guess[1:])
    del x, peak
    while True:
        heads = np.flatnonzero(guess)
        ends = _period_sums(arrivals, durations, heads)
        exact = np.empty(n, dtype=bool)
        exact[0] = True
        np.greater_equal(arrivals[1:], ends[:-1], out=exact[1:])
        if np.array_equal(exact, guess):
            break
        guess = exact
    starts = durations
    starts[1:] = ends[:-1]
    starts[heads] = arrivals[heads]
    return starts, ends, heads


def _period_sums(
    arrivals: np.ndarray, durations: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """Slot ends for periods opening at ``heads``: each period's opening
    arrival plus its durations, added left to right like the recursion
    (``np.cumsum`` along a row is that sequential sum).  A one-customer
    period ends at its arrival plus its duration.  Longer periods are
    grouped by size, and each group is summed as rows of its width, in
    chunks of at most ``_BLOCK`` customers or of one row."""
    ends = durations.copy()
    ends[heads] += arrivals[heads]
    sizes = np.diff(heads, append=len(durations))
    multi = np.flatnonzero(sizes > 1)
    sizes = sizes[multi]
    # Sizes below 2**16 get 16-bit keys and so numpy's radix sort.
    key = np.uint16 if sizes.max(initial=0) < 1 << 16 else np.int64
    by_size = np.argsort(sizes.astype(key), kind="stable")
    first, sizes = heads[multi[by_size]], sizes[by_size]
    # The first row of each size; none when every period has one customer.
    groups = np.flatnonzero(np.diff(sizes, prepend=0)).tolist()
    for lo, hi in zip(groups, groups[1:] + [len(sizes)]):
        w = int(sizes[lo])
        r = max(1, _BLOCK // w)
        for k in range(lo, hi, r):
            idx = first[k : min(k + r, hi), None] + np.arange(w)
            ends[idx] = np.cumsum(ends[idx], axis=1)
    return ends


def _slot_customers(
    queue: np.ndarray, heads: np.ndarray, decisions: np.random.Generator | None
) -> np.ndarray:
    """The customer each slot serves, from the waiters each slot finds
    (counted once per trajectory): last come first when ``decisions`` is
    None, else random order, drawing one decision per slot of each block in
    turn.  Each rule sees only a block's contested slots, numbered
    consecutively; any other slot finds just its own customer."""
    n = len(queue)
    served = np.arange(n, dtype=queue.dtype)
    bounds = np.append(heads, n)
    for _, _, lo, hi in _period_blocks(bounds, _BLOCK):
        block = queue[lo:hi]
        contested = block >= 2
        contested[1:] |= block[:-1] >= 2
        slots = np.flatnonzero(contested)
        if decisions is None:
            picked = _stack_match(block[slots])
        else:
            picked = _random_pick(block[slots], decisions.random(hi - lo)[slots])
        served[lo + slots] = lo + slots[picked]
    return served


def _stack_match(queue: np.ndarray) -> np.ndarray:
    """Last come first as bracket matching: in time order an arrival pushes
    and a slot pops.  Slot ``k`` pops at depth ``queue[k]`` once ``queue[k]
    + k`` customers have arrived, so arrival ``i`` pushes to depth ``i + 1``
    minus the slots opening no later than it.  A pop takes the latest push
    to its own depth, so the j-th pop at a depth serves the j-th push to it."""
    m = len(queue)
    opened = np.cumsum(np.bincount(queue + np.arange(m), minlength=m + 1)[:m])
    depth = np.arange(1, m + 1) - opened
    # Depths are at most m; 16-bit keys get numpy's radix sort.
    key = np.uint16 if m < 1 << 16 else np.int64
    served = np.empty(m, dtype=np.int64)
    served[np.argsort(queue.astype(key), kind="stable")] = np.argsort(
        depth.astype(key), kind="stable"
    )
    return served


def _random_pick(queue: np.ndarray, decisions: np.ndarray) -> np.ndarray:
    """Random order on contested slots: slot ``k`` swaps the waiter at
    ``int(decisions[k] * queue[k])`` to the end of the waiting list and
    serves it.  The runs, each ending at the slot that empties the list,
    are walked in lockstep: step ``t`` takes the ``t``-th slot of every run
    at once, each run keeping its list in its own stretch of one buffer.
    The Python steps are the longest run, not the slots walked."""
    w = len(queue)
    # Customers join the waiting list in turn: slot k opens once queue[k] + k
    # have arrived, ``joins[k]`` of them since the slot before.
    joins = np.diff(queue + np.arange(w), prepend=0)
    # Slot ``base + t`` is step ``t`` of the run opening at ``base``, whose
    # waiting list is kept in ``buf[base:]``.
    opens = np.ones(w, dtype=bool)
    opens[1:] = queue[:-1] == 1
    base = np.maximum.accumulate(np.where(opens, np.arange(w), 0))
    t = np.arange(w) - base
    take = base + (decisions * queue).astype(np.int64)
    last = base + queue - 1
    # Customer c joins at slot g, after c - base - t[g] others of its run
    # still wait: it goes to the list's end, entry c - t[g].
    joined = t[np.repeat(np.arange(w), joins)]
    # Sorted by step, each step's slots and its joiners are one slice
    # (16-bit keys get numpy's radix sort).
    key = np.uint16 if w < 1 << 16 else np.int64
    by_step = np.argsort(t.astype(key), kind="stable")
    joiners = np.argsort(joined.astype(key), kind="stable")
    take, last = take[by_step], last[by_step]
    dest = joiners - joined[joiners]
    slot_cuts = np.cumsum(np.bincount(t)).tolist()
    join_cuts = np.cumsum(np.bincount(joined, minlength=len(slot_cuts))).tolist()
    buf = np.empty(w, dtype=np.int64)
    picked = np.empty(w, dtype=np.int64)
    i = c = 0
    for j, d in zip(slot_cuts, join_cuts):
        buf[dest[c:d]] = joiners[c:d]
        at = take[i:j]
        picked[i:j] = buf[at]
        buf[at] = buf[last[i:j]]  # the swap-pop
        i, c = j, d
    served = np.empty(w, dtype=np.int64)
    served[by_step] = picked
    return served


# Customers per block of the waiter count, the slot assignment, the
# extraction pass, the wait sums and the occupancy sum in :mod:`qvar.stats`,
# and per chunk of equal-size rows in the trajectory sums.  Period blocks
# hold whole periods (a longer period gets one block to itself), so a
# block's temporary arrays stay a few MB at any trace length.
_BLOCK = 1 << 16
# Customers per block that iterating an extracted view turns into tuples at
# once.  A customer's Python floats and ints take about 110 bytes, so this
# block is smaller: the numpy passes keep ``_BLOCK``, since the random-order
# lockstep walk takes more steps over smaller blocks.
_TUPLE_BLOCK = 1 << 13


def _period_blocks(
    bounds: np.ndarray, size: int
) -> Iterator[tuple[int, int, int, int]]:
    """Consecutive blocks of whole periods, about ``size`` customers each
    (``_BLOCK`` or ``_TUPLE_BLOCK``); a period longer than ``size`` gets a
    block of its own.  ``bounds`` holds every period's first customer and
    then the number of customers.  Each block is ``(p, q, lo, hi)``: periods
    ``[p, q)`` and their customers ``[lo, hi)``, all Python ints."""
    p, last = 0, len(bounds) - 1
    while p < last:
        lo = int(bounds[p])
        q = max(int(np.searchsorted(bounds, lo + size, side="right")) - 1, p + 1)
        hi = int(bounds[q])
        yield p, q, lo, hi
        p = q


class BusyPeriodView(Sequence[tuple[BusyPeriod, Permutation]]):
    """Read-only sequence of the ``(BusyPeriod, Permutation)`` pairs of a
    checked trace, built on access.

    Holds the trace's own arrivals and service starts, each customer's
    1-based slot rank within its period, and the period bounds (each
    period's first customer, then the number of customers).  A period's
    slots are its starts placed at their ranks, rebuilt on access: for one
    period when indexed, and when iterated for blocks of whole periods of
    about ``_TUPLE_BLOCK`` customers, one block's tuples at a time.  A
    pair's objects live only as long as the caller keeps them.
    """

    # A plain class: a dataclass would add about 1 ms to importing qvar.
    __slots__ = ("arrivals", "starts", "ranks", "bounds")

    def __init__(
        self, arrivals: np.ndarray, starts: np.ndarray, ranks: np.ndarray, bounds: np.ndarray
    ) -> None:
        self.arrivals, self.starts, self.ranks, self.bounds = arrivals, starts, ranks, bounds

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[p] for p in range(len(self))[index]]
        p = range(len(self))[index]
        a, slots, ranks = self._columns(self.bounds[p], self.bounds[p + 1], -1)
        return BusyPeriod._trusted(a, slots), Permutation._trusted(ranks)

    def __iter__(self) -> Iterator[tuple[BusyPeriod, Permutation]]:
        # Each block's arrays become tuples once; a pair gets their slices.
        bp, perm = BusyPeriod._trusted, Permutation._trusted
        for p, q, lo, hi in _period_blocks(self.bounds, _TUPLE_BLOCK):
            cuts = self.bounds[p : q + 1] - lo
            shift = np.repeat(cuts[:-1] - 1, np.diff(cuts))
            a, slots, ranks = self._columns(lo, hi, shift)
            for i, j in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
                yield bp(a[i:j], slots[i:j]), perm(ranks[i:j])
            del a, slots, ranks  # before the next block's are built

    def _columns(self, lo: int, hi: int, shift: np.ndarray | int) -> tuple[tuple, ...]:
        """The arrivals, slots and ranks of customers ``[lo, hi)`` as tuples of
        Python floats and ints: a period's slots are its starts placed at
        their ranks, a customer's at ``shift + rank``, ``shift`` being its
        period's head from ``lo`` less one (an int64 array over a block, ``-1``
        for one period; the ranks are signed, so ``-1 + rank`` stays in their
        type)."""
        ranks = self.ranks[lo:hi]
        slots = np.empty(hi - lo)
        slots[shift + ranks] = self.starts[lo:hi]
        return tuple(tuple(c.tolist()) for c in (self.arrivals[lo:hi], slots, ranks))


def extract_busy_periods(trace: SimTrace) -> BusyPeriodView:
    """Split a trace into validated busy periods with their service orders.

    Within each period the service starts are sorted into slot order, and
    each customer is assigned the rank of its own start.  An arrival may
    coincide with a later slot of its period; as in the simulator, that
    slot opens first, so the customer arriving then cannot take it.  The
    checks run as element-wise array comparisons over blocks of whole
    periods:

    * work conservation, exactly: a period opens no earlier than the
      previous one ended, its first slot coincides with its opening
      arrival, and every later slot equals the previous departure;
    * every :class:`BusyPeriod` invariant on the arrivals and slots;
    * realizability: every customer but the first arrives before its own
      service starts.

    The first offending period, in period order, raises.  Within it the
    checks apply in the order above: overlap, first slot and idling raise
    :class:`MalformedTraceError`; a broken invariant raises the
    :class:`~qvar.errors.ValidationError` subclass of
    :func:`validate_busy_period`; an unrealizable order raises
    :class:`MalformedTraceError`.

    The result is a lazy :class:`BusyPeriodView`: beside the trace's own
    arrays it keeps only the ranks and the period bounds, and builds each
    pair only when it is indexed or iterated.  A rank is a position within
    its period, so the longest period bounds it: the ranks take 2 bytes per
    customer (int16) when every period has fewer than 2**15 customers, else
    the run's index type.
    """
    bounds = np.append(trace.period_starts, trace.n)
    longest = int(np.diff(bounds).max())
    dtype = np.int16 if longest < 1 << 15 else _index_dtype(trace.n)
    ranks = np.empty(trace.n, dtype=dtype)
    prev_end = -inf
    for p, q, lo, hi in _period_blocks(bounds, _BLOCK):
        ranks[lo:hi], prev_end = _check_block(trace, bounds[p : q + 1], prev_end)
    ranks.flags.writeable = False
    return BusyPeriodView(trace.arrivals, trace.service_starts, ranks, bounds)


def _check_block(
    trace: SimTrace, bounds: np.ndarray, prev_end: float
) -> tuple[np.ndarray, float]:
    """Check the periods with bounds ``bounds`` as described in
    :func:`extract_busy_periods`, given the end of the period before them;
    return their customers' ranks and the end of the last one."""
    lo, hi = int(bounds[0]), int(bounds[-1])
    m = hi - lo
    heads = bounds[:-1] - lo
    sizes = np.diff(bounds)
    a = trace.arrivals[lo:hi]
    s = trace.service_starts[lo:hi]
    period = np.repeat(np.arange(len(heads)), sizes)
    # Slot order: by period, then start, ties kept in customer order.
    by_slot = np.lexsort((s, period))
    slots = s[by_slot]
    deps = trace.departures[lo:hi][by_slot]
    offset = np.arange(m) - np.repeat(heads, sizes)  # position in the period
    ranks = np.empty(m, dtype=np.int64)
    ranks[by_slot] = offset + 1
    later = offset > 0

    prev = np.concatenate(([prev_end], deps[heads[1:] - 1]))
    overlap = a[heads] < prev
    first = slots[heads] != a[heads]
    idle = later.copy()
    idle[1:] &= slots[1:] != deps[:-1]
    # BusyPeriod invariants on arrivals and slots: finite, both strictly
    # rising, each arrival before the slot of its rank.
    broken = ~(np.isfinite(a) & np.isfinite(slots))
    broken[1:] |= later[1:] & ~((a[1:] > a[:-1]) & (slots[1:] > slots[:-1]))
    broken |= later & ~(a < slots)
    unrealizable = later & ~(a < s)  # served before arriving
    bad = (
        overlap
        | first
        | np.logical_or.reduceat(idle | broken | unrealizable, heads)
    )
    if bad.any():
        p = int(bad.argmax())
        i, j = heads[p], heads[p] + sizes[p]
        if overlap[p]:
            raise MalformedTraceError(
                f"busy period opening at t={a[i]!r} overlaps the previous "
                f"period ending at t={float(prev[p])!r}"
            )
        if first[p]:
            raise MalformedTraceError(
                f"first service of the period at t={slots[i]!r} does not "
                f"coincide with the opening arrival at t={a[i]!r}"
            )
        if idle[i:j].any():
            k = i + int(idle[i:j].argmax())
            raise MalformedTraceError(
                f"service slot {k - i + 1} opens at t={slots[k]!r} but the "
                f"previous service ended at t={deps[k - 1]!r}; "
                f"the server idled inside a busy period"
            )
        # Raises the broken invariant's own error, if there is one.
        validate_busy_period(a[i:j].tolist(), slots[i:j].tolist())
        raise MalformedTraceError(
            f"period opening at t={a[i]!r} serves a customer no later than "
            f"it arrives under the recorded order {tuple(ranks[i:j].tolist())}"
        )
    return ranks, float(deps[-1])


def per_period_wait_sums(trace: SimTrace) -> np.ndarray:
    """Total wait in each busy period, summed in a discipline-free order.

    Within a period the k-th smallest service start is never earlier than
    the k-th arrival, so the sorted-start-minus-arrival differences are
    small and nonnegative; summing those (instead of differencing two
    large timestamp sums) avoids cancellation.  Traces sharing timestamps
    but not service orders reduce in the exact same sequence and agree
    bitwise.  Periods must not interleave, as in every work-conserving
    trace, so that each block of whole periods can be sorted on its own.
    """
    bounds = np.append(trace.period_starts, trace.n)
    sums = np.empty(trace.num_periods)
    for p, q, lo, hi in _period_blocks(bounds, _BLOCK):
        gaps = np.sort(trace.service_starts[lo:hi]) - trace.arrivals[lo:hi]
        sums[p:q] = np.add.reduceat(gaps, bounds[p:q] - lo)
    return sums


def write_trace_jsonl(trace: SimTrace, path: str | Path) -> None:
    """One JSON object per customer, in arrival order, 1-based ``customer``."""
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        a = trace.arrivals.tolist()
        s = trace.service_starts.tolist()
        d = trace.departures.tolist()
        for i in range(trace.n):
            fh.write(
                json.dumps(
                    {
                        "customer": i + 1,
                        "arrival": a[i],
                        "service_start": s[i],
                        "departure": d[i],
                    }
                )
            )
            fh.write("\n")


def read_trace_jsonl(path: str | Path) -> SimTrace:
    """Load a trace written by :func:`write_trace_jsonl`.

    Busy-period boundaries are reconstructed from the zero-wait signature
    ``service_start == arrival``.  In a simulated trace it holds exactly for
    the customers who open a period: every other slot serves someone who
    arrived strictly before it opened, since a customer arriving at the
    instant a slot opens waits for a later one.
    """
    arrivals: list[float] = []
    starts: list[float] = []
    deps: list[float] = []
    p = Path(path)
    with p.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                customer = rec["customer"]
                a, s, d = rec["arrival"], rec["service_start"], rec["departure"]
            # ValueError also covers undecodable bytes and an int past the digit limit.
            except (ValueError, RecursionError, KeyError, TypeError) as exc:
                raise MalformedInputError(f"{p}:{lineno}: {exc}") from None
            # json yields bools for true/false and floats for Infinity/NaN.
            if type(customer) is not int or customer != len(arrivals) + 1:
                raise MalformedInputError(
                    f"{p}:{lineno}: expected customer {len(arrivals) + 1}, "
                    f"got {customer!r}"
                )
            try:
                finite = all(type(t) in (int, float) and isfinite(t) for t in (a, s, d))
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise MalformedInputError(f"{p}:{lineno}: times must be finite numbers")
            arrivals.append(float(a))
            starts.append(float(s))
            deps.append(float(d))
    if not arrivals:
        raise MalformedInputError(f"{p}: empty trace")
    for i in range(1, len(arrivals)):
        if not arrivals[i] > arrivals[i - 1]:
            raise MalformedInputError(
                f"{p}: arrivals must be strictly increasing "
                f"(customer {i + 1} at t={arrivals[i]!r})"
            )
    heads = [i for i in range(len(arrivals)) if starts[i] == arrivals[i]]
    if not heads or heads[0] != 0:
        raise MalformedInputError(
            f"{p}: the first customer must have service_start == arrival"
        )
    return SimTrace(
        arrivals=np.asarray(arrivals),
        service_starts=np.asarray(starts),
        departures=np.asarray(deps),
        period_starts=np.asarray(heads, dtype=np.int64),
    )
