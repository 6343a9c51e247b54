"""Inter-arrival and service-time distributions, and reproducible streams.

Randomness policy
-----------------
One 64-bit seed drives a whole run.  ``make_streams`` feeds it to
``numpy.random.SeedSequence`` and spawns three independent children -- for
inter-arrivals, service times, and queue-selection decisions, in that
order -- each powering a PCG64 generator.  Consequences worth relying on:

* Changing the service discipline never perturbs the arrival or service
  streams: disciplines that need no randomness simply leave the decision
  stream untouched.
* Drawing a count in consecutive chunks and drawing it as one block
  produce bitwise-identical values (``Generator.random`` consumes the
  underlying bit stream identically either way, and the transforms below
  are element-wise).

Exponential variates use the inverse transform ``-log(1 - U) / rate`` with
``U`` uniform on [0, 1), so the argument of the log lives in (0, 1] and the
result is always finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, InvalidRateError, UnstableError

__all__ = [
    "Distribution",
    "parse_distribution",
    "draw_variates",
    "make_streams",
]

_MEAN_MATCH_RTOL = 1e-9  # a distribution's mean must reproduce 1/rate


def _check_rate(what: str, rate: object) -> None:
    """Raise :class:`InvalidRateError` unless ``rate`` is a positive finite number."""
    if not isinstance(rate, Real) or not isfinite(rate) or rate <= 0:
        raise InvalidRateError(f"{what} must be a positive finite number, got {rate!r}")


def _check_stable(
    arrival: str, arrival_rate: float, service: str, service_rate: float
) -> None:
    """Raise :class:`UnstableError` unless the arrival rate is below the
    service rate; ``arrival``/``service`` name the two rates in the message."""
    if not arrival_rate < service_rate:
        raise UnstableError(
            f"unstable configuration: {arrival} {arrival_rate!r} is not below "
            f"{service} {service_rate!r}"
        )


def _check_seed(seed: object) -> int:
    """``seed`` as an int if it is an unsigned 64-bit integer (numpy integers
    included, bools not), else :class:`ConfigError`."""
    if not isinstance(seed, Integral) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an int, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must fit in an unsigned 64-bit int, got {seed}")
    return seed


def _check_count(what: str, n: object) -> int:
    """``n`` as an int if it is an integer of at least 1 (numpy integers
    included, bools not), else :class:`ConfigError`."""
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"{what} must be a positive int, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class Distribution:
    """A positive-variate distribution: exponential, deterministic, or uniform.

    Build via the class methods; the relevant parameters are

    * ``exponential``: ``rate`` (mean ``1/rate``),
    * ``deterministic``: ``value``, every draw equal,
    * ``uniform``: ``lo``/``hi`` with ``0 <= lo < hi``.
    """

    kind: str
    rate: float | None = None
    value: float | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "exponential":
            _check_rate("exponential rate", self.rate)
        elif self.kind == "deterministic":
            if self.value is None or not np.isfinite(self.value) or self.value <= 0:
                raise ConfigError(
                    f"deterministic value must be positive finite, got {self.value!r}"
                )
        elif self.kind == "uniform":
            if (
                self.lo is None
                or self.hi is None
                or not np.isfinite(self.lo)
                or not np.isfinite(self.hi)
                or self.lo < 0
                or not self.lo < self.hi
            ):
                raise ConfigError(
                    f"uniform bounds must satisfy 0 <= lo < hi, "
                    f"got lo={self.lo!r} hi={self.hi!r}"
                )
        else:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def exponential(cls, rate: float) -> "Distribution":
        return cls(kind="exponential", rate=float(rate))

    @classmethod
    def deterministic(cls, value: float) -> "Distribution":
        return cls(kind="deterministic", value=float(value))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "Distribution":
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @property
    def mean(self) -> float:
        if self.kind == "exponential":
            assert self.rate is not None
            return 1.0 / self.rate
        if self.kind == "deterministic":
            assert self.value is not None
            return self.value
        assert self.lo is not None and self.hi is not None
        return 0.5 * (self.lo + self.hi)

    def describe(self) -> str:
        if self.kind == "exponential":
            return f"exponential(rate={self.rate!r})"
        if self.kind == "deterministic":
            return f"deterministic(value={self.value!r})"
        return f"uniform(lo={self.lo!r}, hi={self.hi!r})"

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind}
        for field in ("rate", "value", "lo", "hi"):
            v = getattr(self, field)
            if v is not None:
                out[field] = v
        return out


def parse_distribution(spec: str, rate: float) -> Distribution:
    """Turn a distribution shape into the :class:`Distribution` with mean 1/rate.

    Accepted shapes: ``exponential``, ``deterministic``, ``uniform`` (meaning
    uniform on ``(0, 2/rate)``), and ``uniform:lo,hi`` with explicit bounds,
    which must reproduce the mean ``1/rate`` to within one part in 1e9.
    """
    _check_rate("rate", rate)
    if not isinstance(spec, str):
        raise ConfigError(
            f"a distribution shape must be a str such as 'exponential', "
            f"got {type(spec).__name__}"
        )
    word, _, tail = spec.partition(":")
    if word == "exponential":
        if tail:
            raise ConfigError("exponential takes no parameters")
        return Distribution.exponential(rate)
    if word == "deterministic":
        if tail:
            raise ConfigError("deterministic takes no parameters")
        return Distribution.deterministic(1.0 / rate)
    if word == "uniform":
        if not tail:
            if not isfinite(2.0 / rate):
                raise ConfigError(
                    f"uniform on (0, 2/rate) needs a finite 2/rate, got rate {rate!r}"
                )
            return Distribution.uniform(0.0, 2.0 / rate)
        try:
            lo_s, hi_s = tail.split(",")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise ConfigError(
                f"uniform bounds must look like 'uniform:lo,hi', got {spec!r}"
            ) from None
        dist = Distribution.uniform(lo, hi)
        target = 1.0 / rate
        if abs(dist.mean - target) > _MEAN_MATCH_RTOL * target:
            raise ConfigError(
                f"{dist.describe()} has mean {dist.mean!r} but the configured "
                f"rate {rate!r} requires mean {target!r}"
            )
        return dist
    raise ConfigError(
        f"unknown distribution {spec!r}; choose exponential, deterministic, "
        f"or uniform[:lo,hi]"
    )


def draw_variates(
    dist: Distribution, rng: np.random.Generator, size: int
) -> np.ndarray:
    """``size`` draws as a float64 array, bitwise equal to the same count
    drawn in consecutive chunks from ``rng``."""
    if size < 0:
        raise ConfigError(f"size must be >= 0, got {size}")
    if dist.kind == "deterministic":
        assert dist.value is not None
        return np.full(size, dist.value, dtype=np.float64)
    # Each transform writes into the uniforms' buffer, with the bits of the
    # plain expression.
    u = rng.random(size)
    if dist.kind == "exponential":
        np.subtract(1.0, u, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        u /= dist.rate
        return u
    assert dist.lo is not None and dist.hi is not None
    u *= dist.hi - dist.lo
    u += dist.lo
    return u


def make_streams(
    seed: int,
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """The three generators (arrival, service, decision) for one run.

    ``seed`` must be an unsigned 64-bit integer.  Children are spawned from
    ``SeedSequence(seed)`` in a fixed order, so equal seeds give equal
    streams regardless of platform or discipline.
    """
    children = np.random.SeedSequence(_check_seed(seed)).spawn(3)
    arrival, service, decision = (np.random.Generator(np.random.PCG64(c)) for c in children)
    return arrival, service, decision
