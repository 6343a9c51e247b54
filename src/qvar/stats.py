"""Waiting-time summaries of a simulation trace.

``compute_stats`` discards a warm-up prefix of customers, then reports
plug-in estimators for the waiting-time law (mean, unbiased variance,
second moment conditional on waiting, fraction who wait) together with
batch-means standard errors (the retained customers are cut into 20
contiguous batches; the spread of per-batch means/variances estimates the
error of the overall figures, which a correlated stationary stream would
otherwise understate).

It also measures everything a Little's-law audit needs: the time average of
the number-in-system step function over the retained horizon, the mean
sojourn, and the effective arrival rate (retained customers divided by the
horizon length).  The horizon runs from the first retained arrival to the
last retained departure, and customers are clipped to it, so the estimate
is self-consistent rather than assuming stationarity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite
from numbers import Real

import numpy as np

from .errors import ConfigError, EmptyAfterWarmupError
from .simulate import SimTrace

__all__ = ["WaitStats", "compute_stats", "DEFAULT_WARMUP", "DEFAULT_BATCHES"]

DEFAULT_WARMUP = 0.1
DEFAULT_BATCHES = 20


@dataclass(frozen=True)
class WaitStats:
    """Flat summary of the retained portion of one run.

    ``se_mean_wait``/``se_var_wait`` are batch-means standard errors, or
    ``None`` when fewer than two customers per batch are available;
    ``second_moment_given_wait`` is ``None`` when nobody waited.  The exact
    identity ``mean_sojourn == mean_wait + mean_service`` is enforced by
    construction (the sojourn mean is computed as that sum).
    """

    count: int
    warmup_discarded: int
    mean_wait: float
    var_wait: float
    se_mean_wait: float | None
    se_var_wait: float | None
    second_moment_given_wait: float | None
    frac_waiting: float
    mean_service: float
    mean_sojourn: float
    time_avg_in_system: float
    horizon: float
    effective_arrival_rate: float

    def to_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _batch_errors(waits: np.ndarray) -> tuple[float | None, float | None]:
    """Batch-means standard errors for the mean and the (ddof=1) variance."""
    if len(waits) < 2 * DEFAULT_BATCHES:
        return None, None
    chunks = np.array_split(waits, DEFAULT_BATCHES)
    means = np.array([c.mean() for c in chunks])
    variances = np.array([c.var(ddof=1) for c in chunks])
    se_mean = float(means.std(ddof=1) / np.sqrt(DEFAULT_BATCHES))
    se_var = float(variances.std(ddof=1) / np.sqrt(DEFAULT_BATCHES))
    return se_mean, se_var


def _time_average_in_system(trace: SimTrace, t0: float, t1: float) -> float:
    """Mean of the number-in-system step function over [t0, t1].

    Every customer contributes the overlap of its [arrival, departure]
    interval with the window; dividing the summed overlap by the window
    length gives the time average.  The overlaps are gathered a block of
    customers at a time into one array, in customer order.
    """
    occupied = np.empty(trace.n)
    for lo, hi, slots in trace._chunks():
        chunk = occupied[lo:hi]
        np.minimum(trace.slot_ends[slots], t1, out=chunk)
        chunk -= np.maximum(trace.arrivals[lo:hi], t0)
    np.clip(occupied, 0.0, None, out=occupied)
    return float(occupied.sum() / (t1 - t0))


def _check_warmup(warmup_fraction: object) -> float:
    """``warmup_fraction`` as a Python float if it is a real number in
    [0, 1) (numpy floats included, bools not), else :class:`ConfigError`."""
    if (
        isinstance(warmup_fraction, bool)
        or not isinstance(warmup_fraction, Real)
        or not 0.0 <= warmup_fraction < 1.0
    ):
        raise ConfigError(f"warmup_fraction must lie in [0, 1), got {warmup_fraction!r}")
    return float(warmup_fraction)


def _wait_moments(trace: SimTrace, warmup_fraction: float) -> tuple:
    """The retained waits, then the figures ``qvar compare`` reports: mean
    wait, its batch-means error, ``ddof=1`` variance and its error, and
    P(W > 0): waits are never negative, so the nonzero ones are exactly
    those that wait.  A figure past the float range raises
    :class:`ConfigError`."""
    skip = int(trace.n * _check_warmup(warmup_fraction))
    if skip >= trace.n:
        raise EmptyAfterWarmupError(f"warm-up of {skip} customers leaves none of {trace.n}")
    waits = trace._waits(skip)
    var_wait = float(waits.var(ddof=1)) if len(waits) >= 2 else 0.0
    se_mean, se_var = _batch_errors(waits)
    moments = float(waits.mean()), se_mean, var_wait, se_var
    _check_finite("mean wait, its error, variance, its error", moments)
    return waits, *moments, float(np.count_nonzero(waits) / len(waits))


def _check_finite(names: str, figures: tuple) -> None:
    """Raise :class:`ConfigError` unless every figure is finite or None:
    sums and squares of long waits can pass the float range."""
    if not all(f is None or isfinite(f) for f in figures):
        raise ConfigError(f"waits too long for finite moments: ({names}) = {figures!r}")


def compute_stats(
    trace: SimTrace, warmup_fraction: float = DEFAULT_WARMUP
) -> WaitStats:
    """Summarize ``trace`` after dropping the first ``warmup_fraction`` customers.

    The discard count is ``floor(n * warmup_fraction)``.  The wait moments
    and P(W > 0) are ``qvar compare``'s; E[W²|W>0], service, sojourn and
    occupancy are computed only here.  The occupancy window (and hence the
    effective arrival rate) runs from the first retained arrival to the last
    retained departure; all customers are clipped to it, so early arrivals
    that linger into the window still count toward occupancy.
    """
    waits, mean_wait, se_mean, var_wait, se_var, frac = _wait_moments(trace, warmup_fraction)
    count = len(waits)
    skip = trace.n - count

    # Each full-length temporary is dropped after its last reader.
    positive = waits[waits > 0.0]
    del waits
    positive *= positive
    second_moment = float(positive.mean()) if len(positive) else None
    del positive
    _check_finite("E[W²|W>0]", (second_moment,))
    # The retained service times, and the largest of each block's departures.
    service = np.empty(count)
    last = []
    for lo, hi, slots in trace._chunks(skip):
        ends = trace.slot_ends[slots]
        np.subtract(ends, trace.slot_starts[slots], out=service[lo - skip : hi - skip])
        last.append(ends.max())
    mean_service = float(service.mean())
    del service

    t0 = float(trace.arrivals[skip])
    t1 = float(np.max(last))
    horizon = t1 - t0
    if horizon <= 0.0:
        # Single retained customer with zero wait; occupancy is undefined,
        # report zeros rather than dividing by zero.
        time_avg = eff_rate = 0.0
    else:
        # Occupancy counts *every* customer overlapping the window, warm-up
        # ones included, so the Little's-law comparison against
        # (retained rate) x (retained mean sojourn) stays a genuine
        # two-route check rather than an identity.
        time_avg = _time_average_in_system(trace, t0, t1)
        eff_rate = count / horizon
    return WaitStats(
        count=count,
        warmup_discarded=skip,
        mean_wait=mean_wait,
        var_wait=var_wait,
        se_mean_wait=se_mean,
        se_var_wait=se_var,
        second_moment_given_wait=second_moment,
        frac_waiting=frac,
        mean_service=mean_service,
        mean_sojourn=mean_wait + mean_service,
        time_avg_in_system=time_avg,
        horizon=horizon,
        effective_arrival_rate=eff_rate,
    )
