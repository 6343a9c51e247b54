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
equal to adding the durations slot by slot, and the busy periods) is
computed once with array operations; the service durations are summed into
the slots and not kept.  First come serves each slot's own customer, so the
trajectory is its trace.  The waiters each slot finds follow from the slots
alone, so every trace counts them alike (:attr:`SimTrace.queue`).  Last come
(bracket matching) and random order (all runs of a block walked in
lockstep) assign customers only on contested runs: slots finding two or
more waiters and the slot emptying the list after them; any other slot
serves its own customer.  Random order makes the seed's decision stream
afresh and reads it block by block, one draw per slot, so no run keeps a
full-length array of decisions.  Every trace holds the trajectory's arrays,
in slot order; one that is not first-come adds only each customer's slot
offset: customer ``c`` takes slot ``c + offsets[c]``.  So the runs of a
config share one trajectory, buffers and all, while something holds its
first-come trace.
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

from .busy_period import _IDENTITIES, BusyPeriod, Permutation, validate_busy_period
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


@dataclass(frozen=True, eq=False, init=False)
class SimTrace:
    """One run: the server's trajectory and the slot each customer takes.

    The trajectory is the ``arrivals`` in customer order, ``slot_starts``
    and ``slot_ends`` in slot order (each period's services as they start),
    and ``period_starts``, the 0-based customer and slot opening each busy
    period (always starting with 0), all float64/int64.  ``offsets`` holds
    each customer's slot less its own index: customer ``c`` takes slot ``c
    + offsets[c]``, inside its own period.  They are int16 while every
    period has fewer than 2**15 customers, else the run's index type; None
    when every customer takes its own slot, as under first come.  Every
    array is read-only.  ``service_starts`` and ``departures`` are then each
    customer's: the slot arrays themselves without offsets, else new arrays
    gathered on each access.  A customer's wait is ``service_starts -
    arrivals`` (:meth:`waits`) and its sojourn ``departures - arrivals``.
    :attr:`queue` counts the waiters each slot finds.

    The constructor takes per-customer times, as :func:`read_trace_jsonl`
    reads them, sorts each period's starts into its slots (ties kept in
    customer order) with the departures alongside, and points each
    customer's offset at its own start; so ``service_starts`` and
    ``departures`` give back the values passed, bitwise.  Period starts
    that are not integers (floats, strings, bools), and a period opening
    before the previous period's last slot (by start) ends, raise
    :class:`MalformedTraceError`.  A first-come trace from
    :func:`run_simulation` is the config's trajectory, whose arrays its
    other disciplines' traces share while it lives.
    """

    arrivals: np.ndarray
    # Properties below, and fields for ``dataclasses.replace`` and the repr:
    # each property is its field's class attribute, which no generated
    # ``__init__`` reads.
    service_starts: np.ndarray
    departures: np.ndarray
    period_starts: np.ndarray
    config: SimConfig | None = field(default=None, compare=False)

    def __init__(
        self,
        arrivals: np.ndarray,
        service_starts: np.ndarray,
        departures: np.ndarray,
        period_starts: np.ndarray,
        config: SimConfig | None = None,
    ) -> None:
        arrivals, starts, deps = (
            np.asarray(a, dtype=np.float64) for a in (arrivals, service_starts, departures)
        )
        heads = _check_heads(period_starts)
        n = len(arrivals)
        if not (len(starts) == n and len(deps) == n):
            raise MalformedTraceError("trace arrays must have equal lengths")
        if n == 0:
            raise MalformedTraceError("a trace must contain at least one customer")
        if len(heads) == 0 or heads[0] != 0:
            raise MalformedTraceError("the first customer must open a busy period")
        if np.any(heads[1:] <= heads[:-1]) or heads[-1] >= n:
            raise MalformedTraceError(
                "period starts must be strictly increasing customer indices "
                f"below {n}"
            )
        # Slot order: by period, then start, ties kept in customer order.
        served = np.lexsort((starts, np.repeat(heads, np.diff(heads, append=n))))
        offsets = None
        if np.any(served != np.arange(n)):
            offsets = np.empty(n, dtype=_offset_dtype(np.append(heads, n)))
            offsets[served] = np.arange(n) - served
            starts, deps = starts[served], deps[served]
        ends = deps[heads[1:] - 1]
        overlap = arrivals[heads[1:]] < ends
        if overlap.any():
            p = int(overlap.argmax())
            raise MalformedTraceError(
                f"busy period opening at t={float(arrivals[heads[p + 1]])!r} overlaps "
                f"the previous period ending at t={float(ends[p])!r}"
            )
        self._set(arrivals, starts, deps, offsets, heads, config)

    @classmethod
    def _trusted(cls, *arrays) -> SimTrace:
        """A trace of the simulator's arrays, taken as they are: the arrivals,
        slot starts, slot ends, offsets, period heads and the config."""
        trace = object.__new__(cls)
        trace._set(*arrays)
        return trace

    def _set(self, *values) -> None:
        names = ("arrivals", "slot_starts", "slot_ends", "offsets", "period_starts", "config")
        for name, value in zip(names, values):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def service_starts(self) -> np.ndarray:
        return self._by_customer(self.slot_starts)

    @property
    def departures(self) -> np.ndarray:
        return self._by_customer(self.slot_ends)

    def _by_customer(self, column: np.ndarray) -> np.ndarray:
        """A slot-order ``column`` in customer order, read-only."""
        if self.offsets is None:
            return column
        out = np.empty(self.n)
        for lo, hi, slots in self._chunks():
            out[lo:hi] = column[slots]
        out.flags.writeable = False
        return out

    def _chunks(self, skip: int = 0) -> Iterator[tuple[int, int, slice | np.ndarray]]:
        """The slots of customers ``skip`` to ``n``, ``_TUPLE_BLOCK`` customers
        at a time: ``(lo, hi, slots)``, where ``slots`` indexes the slot
        arrays at customers ``[lo, hi)`` in turn, each customer's index plus
        its offset; a slice when there are no offsets."""
        n = self.n
        for lo in range(skip, n, _TUPLE_BLOCK):
            hi = min(lo + _TUPLE_BLOCK, n)
            if self.offsets is None:
                yield lo, hi, slice(lo, hi)
            else:
                yield lo, hi, np.arange(lo, hi) + self.offsets[lo:hi]

    @property
    def n(self) -> int:
        return len(self.arrivals)

    @property
    def num_periods(self) -> int:
        return len(self.period_starts)

    def waits(self) -> np.ndarray:
        return self._waits(0)

    def _waits(self, skip: int) -> np.ndarray:
        """The waits of customers ``skip`` to ``n``, in a new array."""
        waits = np.empty(self.n - skip)
        for lo, hi, slots in self._chunks(skip):
            np.subtract(
                self.slot_starts[slots], self.arrivals[lo:hi], out=waits[lo - skip : hi - skip]
            )
        return waits

    def service_times(self) -> np.ndarray:
        return self.departures - self.service_starts

    @cached_property
    def queue(self) -> np.ndarray:
        """The waiters when each slot opens, its own customer included: the
        customers arrived strictly before it (a completion wins a tie) less
        the slots before it.  A period's head finds only its own customer.
        Read-only, counted on first use.  It depends on the slots and not on
        who takes them, so every discipline's trace of a config gives the
        first-come trace's count, bitwise.

        Each block's slot starts and arrivals are merged by one stable sort
        with the starts first, so a start sorts before an equal arrival:
        slot ``k`` lands after the ``k`` starts before it and the arrivals
        strictly before it."""
        starts, heads, n = self.slot_starts, self.period_starts, self.n
        queue = np.empty(n, dtype=_index_dtype(n))
        bounds = np.append(heads, n)
        for _, _, lo, hi in _period_blocks(bounds, _BLOCK):
            m = hi - lo
            order = np.argsort(
                np.concatenate((starts[lo:hi], self.arrivals[lo:hi])), kind="stable"
            )
            queue[lo:hi] = np.flatnonzero(order < m) - 2 * np.arange(m)
        queue[heads] = 1
        queue.flags.writeable = False
        return queue


def _index_dtype(n: int) -> type[np.signedinteger]:
    """The integer type indexing ``n`` customers: int32 below 2**31, else int64."""
    return np.int32 if n < 1 << 31 else np.int64


def _check_heads(period_starts) -> np.ndarray:
    """``period_starts`` as int64, refusing any head that is not an integer
    (floats, strings and bools) with :class:`MalformedTraceError`."""
    if not (isinstance(period_starts, np.ndarray) and period_starts.dtype.kind in "iu"):
        for h in period_starts:
            if isinstance(h, (bool, np.bool_)) or not isinstance(h, (int, np.integer)):
                raise MalformedTraceError(
                    f"period starts must be integer customer indices, got {h!r}"
                )
    return np.asarray(period_starts, dtype=np.int64)


# The first-come traces drawn by run_simulation, by config; nothing else
# here keeps one alive.
_drawn: weakref.WeakValueDictionary[SimConfig, SimTrace] = weakref.WeakValueDictionary()


def run_simulation(config: SimConfig) -> SimTrace:
    """Simulate ``config.num_arrivals`` customers and return the full trace.

    The first-come trace is the trajectory: each slot's start and end and
    the busy periods, a pure function of the config without its discipline.
    The run reuses the first-come trace of the config, discipline aside,
    while it lives, and draws one only if there is none; so callers share a
    trajectory across disciplines by holding the first-come trace, which a
    first-come run returns.  A last-come or random-order trace holds the
    trajectory's own arrays and adds only each customer's slot offset.
    Deterministic: equal configs give bitwise-equal traces, on a reused
    trajectory or a new one.  The decision stream is made only when
    the discipline is random-order: each such run takes the seed's stream
    at its start, ``make_streams(config.seed)[2]``.  Slot ends past the
    float range raise :class:`ConfigError`.
    """
    key = replace(config, discipline=Discipline.FCFS)
    trajectory = _drawn.get(key)
    if trajectory is None:
        trajectory = _drawn[key] = _draw(key)
    d = config.discipline
    if d is Discipline.FCFS:
        return trajectory
    picks = make_streams(config.seed)[2] if d is Discipline.RANDOM_ORDER else None
    heads = trajectory.period_starts
    offsets = _slot_offsets(trajectory.queue, heads, picks)
    return SimTrace._trusted(
        trajectory.arrivals, trajectory.slot_starts, trajectory.slot_ends, offsets, heads, config
    )


def _draw(config: SimConfig) -> SimTrace:
    """The first-come trace of a first-come ``config``, from its arrival and
    service streams.  The service durations are folded into the slots and
    not kept."""
    arrival, service = config.distributions()
    arrival_rng, service_rng, _ = make_streams(config.seed)
    n = config.num_arrivals
    arrivals = np.zeros(n, dtype=np.float64)
    if n > 1:
        np.cumsum(draw_variates(arrival, arrival_rng, n - 1), out=arrivals[1:])
    starts, ends, heads = _compute_slots(arrivals, draw_variates(service, service_rng, n))
    # The last slot ends after every arrival, start and departure.
    if not isfinite(ends[-1]):
        raise ConfigError(
            f"arrival rate {config.arrival_rate!r} and service rate "
            f"{config.service_rate!r} give times beyond the float range"
        )
    return SimTrace._trusted(arrivals, starts, ends, None, heads, config)


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


def _slot_offsets(
    queue: np.ndarray, heads: np.ndarray, decisions: np.random.Generator | None
) -> np.ndarray | None:
    """Each customer's slot less its own index, from the waiters each slot
    finds (counted once per trajectory): last come first when ``decisions``
    is None, else random order, drawing one decision per slot of each block
    in turn.  Each rule sees only a block's contested slots, numbered
    consecutively; any other slot serves its own customer.  None when every
    slot does."""
    n = len(queue)
    bounds = np.append(heads, n)
    offsets = np.zeros(n, dtype=_offset_dtype(bounds))
    moved = False
    for _, _, lo, hi in _period_blocks(bounds, _BLOCK):
        block = queue[lo:hi]
        contested = block >= 2
        contested[1:] |= block[:-1] >= 2
        slots = np.flatnonzero(contested)
        if decisions is None:
            picked = _stack_match(block[slots])
        else:
            picked = _random_pick(block[slots], decisions.random(hi - lo)[slots])
        # Slot slots[k] serves customer slots[picked[k]].
        offsets[lo + slots[picked]] = slots - slots[picked]
        moved = moved or bool((picked != np.arange(len(picked))).any())
    return offsets if moved else None


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
# Customers per chunk of the passes that fill a full-length result beside
# the trace: a trace's gathers into customer order, and the tuples that
# iterating an extracted view builds at once.  A customer's Python floats
# and ints take about 110 bytes, and a gathered one 16 bytes of index and
# value, so this chunk is smaller: the other numpy passes keep ``_BLOCK``,
# since the random-order lockstep walk takes more steps over smaller blocks.
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


def _heads_of(bounds: np.ndarray) -> np.ndarray:
    """Each customer's period head over a block of whole periods with bounds
    ``bounds``, counted from the block's first customer."""
    return np.repeat(bounds[:-1] - bounds[0], np.diff(bounds))


def _offset_dtype(bounds: np.ndarray) -> type[np.signedinteger]:
    """The type of the slot offsets of the periods with bounds ``bounds``:
    int16 while every period is below 2**15 customers, else the run's index
    type."""
    return np.int16 if np.diff(bounds).max() < 1 << 15 else _index_dtype(int(bounds[-1]))


class BusyPeriodView(Sequence[tuple[BusyPeriod, Permutation]]):
    """Read-only sequence of the ``(BusyPeriod, Permutation)`` pairs of a
    checked trace, built on access.

    Holds the trace's own arrivals, slot starts and slot offsets (None when
    every customer takes its own slot), and the period bounds (each
    period's first customer, then the number of customers).  Without
    offsets every order is arrival order: no ranks are read, each pair
    holds :meth:`Permutation.identity`, shared for periods of fewer than
    64 customers, and each period reads its times on first use (see
    :class:`BusyPeriod`).  Such a period keeps the trace's arrivals and
    slot starts alive until its times are read, and not after.  With
    offsets, a period's arrivals, slots and 1-based ranks are read off the
    arrays on access: for one period when indexed, and when iterated for
    blocks of whole periods of about ``_TUPLE_BLOCK`` customers, one
    block's tuples at a time.  A period's objects live only as long as the
    caller keeps them.
    """

    # A plain class: a dataclass would add about 1 ms to importing qvar.
    __slots__ = ("arrivals", "starts", "offsets", "bounds")

    def __init__(
        self,
        arrivals: np.ndarray,
        starts: np.ndarray,
        offsets: np.ndarray | None,
        bounds: np.ndarray,
    ) -> None:
        self.arrivals, self.starts, self.offsets, self.bounds = arrivals, starts, offsets, bounds

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[p] for p in range(len(self))[index]]
        p = range(len(self))[index]
        if self.offsets is None:
            lo, hi = self.bounds[p : p + 2].tolist()
            window = BusyPeriod._window((self.arrivals, self.starts), lo, hi)
            return window, Permutation.identity(hi - lo)
        a, slots, ranks = self._columns(p, p + 1)
        return BusyPeriod._trusted(a, slots), Permutation._trusted(ranks)

    def __iter__(self) -> Iterator[tuple[BusyPeriod, Permutation]]:
        if self.offsets is None:
            # Windows onto the trace, with the shared arrival orders.
            window, trace = BusyPeriod._window, (self.arrivals, self.starts)
            shared, identity = _IDENTITIES, Permutation.identity
            cap = len(shared)
            for p, q, _, _ in _period_blocks(self.bounds, _TUPLE_BLOCK):
                cuts = self.bounds[p : q + 1].tolist()
                for lo, hi in zip(cuts, cuts[1:]):
                    m = hi - lo
                    yield window(trace, lo, hi), shared[m] if m < cap else identity(m)
            return
        # Each block's arrays become tuples once; a pair gets their slices.
        bp, perm = BusyPeriod._trusted, Permutation._trusted
        for p, q, lo, _ in _period_blocks(self.bounds, _TUPLE_BLOCK):
            cuts = (self.bounds[p : q + 1] - lo).tolist()
            a, slots, ranks = self._columns(p, q)
            for i, j in zip(cuts, cuts[1:]):
                yield bp(a[i:j], slots[i:j]), perm(ranks[i:j])
            del a, slots, ranks  # before the next block's are built

    def _columns(self, p: int, q: int) -> tuple[tuple, tuple, tuple]:
        """The arrivals, slots and ranks of periods ``[p, q)`` as tuples of
        Python floats and ints: a customer's rank is its index less its
        period's head, plus its offset, plus one."""
        bounds = self.bounds[p : q + 1]
        lo, hi = int(bounds[0]), int(bounds[-1])
        ranks = np.arange(1, hi - lo + 1) - _heads_of(bounds)
        ranks += self.offsets[lo:hi]
        return (
            tuple(self.arrivals[lo:hi].tolist()),
            tuple(self.starts[lo:hi].tolist()),
            tuple(ranks.tolist()),
        )


def extract_busy_periods(trace: SimTrace) -> BusyPeriodView:
    """Split a trace into validated busy periods with their service orders.

    The trajectory is checked in slot order, and each customer's slot offset
    only for realizability.  An arrival may coincide with a later slot of its
    period; as in the simulator, that slot opens first, so the customer
    arriving then cannot take it.  The checks run as element-wise array
    comparisons over blocks of whole periods:

    * work conservation, exactly: a period opens no earlier than the
      previous one ended, its first slot coincides with its opening
      arrival, and every later slot equals the previous slot's end;
    * every :class:`BusyPeriod` invariant on the arrivals and slots;
    * realizability: every customer but the first arrives before the slot
      its offset names starts.

    The first offending period, in period order, raises.  Within it the
    checks apply in the order above: overlap, first slot and idling raise
    :class:`MalformedTraceError`; a broken invariant raises the
    :class:`~qvar.errors.ValidationError` subclass of
    :func:`validate_busy_period`; an unrealizable order raises
    :class:`MalformedTraceError`.

    Extraction trusts read-only arrays it has already checked, as
    :attr:`SimTrace.queue` does: once a trace holding a live first-come
    trace's four trajectory arrays (arrivals, slot starts, slot ends,
    period starts) has passed, a later trace holding those same four
    objects gets only the realizability check of its offsets.  What it
    remembers is that first-come trace, weakly, so nothing is kept alive.

    The result is a lazy :class:`BusyPeriodView` over the trace's own
    arrivals, slot starts and offsets, which keeps only the period bounds
    beside them and builds each pair only when it is indexed or iterated.
    """
    bounds = np.append(trace.period_starts, trace.n)
    offsets = trace.offsets
    trajectory = _trajectory_of(trace)
    if trajectory in _checked:
        if offsets is not None:
            for p, q, lo, hi in _period_blocks(bounds, _BLOCK):
                _check_offsets(trace, bounds[p : q + 1], offsets[lo:hi])
    else:
        prev_end = -inf
        for p, q, lo, hi in _period_blocks(bounds, _BLOCK):
            block = None if offsets is None else offsets[lo:hi]
            prev_end = _check_block(trace, bounds[p : q + 1], block, prev_end)
        if trajectory is not None:
            _checked.add(trajectory)
    return BusyPeriodView(trace.arrivals, trace.slot_starts, offsets, bounds)


# First-come traces whose trajectory extraction has checked; held weakly,
# as :data:`_drawn` holds them.
_checked: weakref.WeakSet[SimTrace] = weakref.WeakSet()


def _trajectory_of(trace: SimTrace) -> SimTrace | None:
    """The live first-come trace of ``trace``'s config whose four trajectory
    arrays ``trace`` holds, the very objects; else None."""
    if trace.config is None:
        return None
    held = _drawn.get(replace(trace.config, discipline=Discipline.FCFS))
    if held is None or not all(
        getattr(held, name) is getattr(trace, name)
        for name in ("arrivals", "slot_starts", "slot_ends", "period_starts")
    ):
        return None
    return held


def _check_block(
    trace: SimTrace, bounds: np.ndarray, offsets: np.ndarray | None, prev_end: float
) -> float:
    """Check the periods with bounds ``bounds`` and their customers' slot
    offsets (None: each customer in its own slot) as described in
    :func:`extract_busy_periods`, given the end of the period before them;
    return the end of the last one."""
    lo, hi = int(bounds[0]), int(bounds[-1])
    heads = bounds[:-1] - lo
    sizes = np.diff(bounds)
    a = trace.arrivals[lo:hi]
    slots = trace.slot_starts[lo:hi]
    deps = trace.slot_ends[lo:hi]
    own = np.arange(hi - lo)
    later = own > _heads_of(bounds)  # not a period's first slot

    prev = np.concatenate(([prev_end], deps[heads[1:] - 1]))
    overlap = a[heads] < prev
    first = slots[heads] != a[heads]
    idle = later.copy()
    idle[1:] &= slots[1:] != deps[:-1]
    # BusyPeriod invariants on arrivals and slots: finite, both strictly
    # rising, each arrival but the first before the slot at its own index.
    broken = ~(np.isfinite(a) & np.isfinite(slots))
    broken[1:] |= later[1:] & ~((a[1:] > a[:-1]) & (slots[1:] > slots[:-1]))
    broken |= later & ~(a < slots)
    # Served before arriving: each customer's slot is its index plus its
    # offset.  In its own slot, that is the invariant just checked.
    if offsets is not None:
        broken |= later & ~(a < slots[own + offsets])
    bad = overlap | first | np.logical_or.reduceat(idle | broken, heads)
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
        raise _unrealizable(a[i], offsets[i:j])
    return float(deps[-1])


def _check_offsets(trace: SimTrace, bounds: np.ndarray, offsets: np.ndarray) -> None:
    """The realizability check of :func:`_check_block` alone, for the periods
    with bounds ``bounds`` of a trajectory already checked."""
    lo, hi = int(bounds[0]), int(bounds[-1])
    a = trace.arrivals[lo:hi]
    own = np.arange(hi - lo)
    late = (own > _heads_of(bounds)) & ~(a < trace.slot_starts[lo:hi][own + offsets])
    if late.any():
        p = int(np.searchsorted(bounds, lo + int(late.argmax()), side="right")) - 1
        i, j = int(bounds[p]) - lo, int(bounds[p + 1]) - lo
        raise _unrealizable(a[i], offsets[i:j])


def _unrealizable(opening: float, offsets: np.ndarray) -> MalformedTraceError:
    """The error for a period opening at ``opening`` whose customers take
    the slots ``offsets`` name, one of them no later than it arrives."""
    ranks = np.arange(1, len(offsets) + 1) + offsets
    return MalformedTraceError(
        f"period opening at t={opening!r} serves a customer no later than "
        f"it arrives under the recorded order {tuple(ranks.tolist())}"
    )


def per_period_wait_sums(trace: SimTrace) -> np.ndarray:
    """Total wait in each busy period, summed in a discipline-free order.

    Within a period the k-th slot, in slot order as the trace stores it,
    never opens before the k-th arrival, so the slot-start-minus-arrival
    differences are small and nonnegative; summing those (instead of
    differencing two large timestamp sums) avoids cancellation.  The sums
    read only the trajectory, so traces sharing it agree bitwise whatever
    their offsets.
    """
    bounds = np.append(trace.period_starts, trace.n)
    sums = np.empty(trace.num_periods)
    for p, q, lo, hi in _period_blocks(bounds, _BLOCK):
        gaps = trace.slot_starts[lo:hi] - trace.arrivals[lo:hi]
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
    instant a slot opens waits for a later one.  A file that is not such a
    record raises :class:`MalformedInputError`; one whose periods overlap
    in time, :class:`MalformedTraceError` from the :class:`SimTrace`
    constructor.
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
