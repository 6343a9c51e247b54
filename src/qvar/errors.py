"""Exception hierarchy.

Layout mirrors how failures are reported at the command line:

* ``ValidationError`` and its children mean the *input* was bad (malformed
  file, inconsistent flags, impossible timestamps).  The CLI maps these to
  exit code 2.
* ``ExtremalityViolationError`` is special: it means the exact oracle
  found a service order strictly outside the proven first-come/last-come
  envelope, i.e. the theorem the package exists to demonstrate failed on a
  concrete instance.  Exit code 3.
* Every other ``QvarError`` is a runtime failure (exit code 1).
"""

from __future__ import annotations


class QvarError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QvarError):
    """Invalid input data or configuration (CLI exit code 2)."""


class LengthMismatchError(ValidationError):
    """Arrival and service-start sequences have different lengths."""


class NotSortedError(ValidationError):
    """A timestamp sequence is not strictly increasing."""


class FirstServiceNotImmediateError(ValidationError):
    """The first service start differs from the first arrival.

    In a busy period the server is idle just before the first customer
    arrives, so that customer's service must begin the instant it arrives.
    """


class InfeasibleError(ValidationError):
    """Some customer's service slot would start before enough customers exist.

    Carries the 1-based position ``index`` at which the arrival time fails
    to precede the service start of the same rank.
    """

    def __init__(self, index: int, arrival: float, service_start: float):
        self.index = index
        self.arrival = arrival
        self.service_start = service_start
        super().__init__(
            f"arrival {index} at t={arrival!r} does not precede service start "
            f"{index} at t={service_start!r}; no work-conserving schedule can "
            f"produce these times"
        )


class SizeMismatchError(ValidationError):
    """A permutation's length differs from the busy period it is paired with."""


class NotRealizableError(ValidationError):
    """The permutation cannot be produced by any non-preemptive discipline.

    Either customer 1 is not assigned the first service start, or some
    customer would start service before arriving.
    """


class InvalidRateError(ValidationError):
    """A rate parameter is not a positive finite number."""


class UnstableError(ValidationError):
    """Arrival rate >= service rate where a stable queue is required."""


class ConfigError(ValidationError):
    """A configuration value is out of range or inconsistent."""


class MalformedInputError(ValidationError):
    """An input file does not have the expected structure."""


class MalformedTraceError(QvarError):
    """A simulation trace violates work conservation.

    Within one busy period every service start after the first must equal
    the previous departure, and the first must equal the period's first
    arrival; periods must not overlap.
    """


class EmptyAfterWarmupError(QvarError):
    """Discarding the warm-up prefix left no customers to summarize."""


class ExtremalityViolationError(QvarError):
    """The exact oracle contradicted the variance-extremality theorem.

    Raised when some realizable service order attains a pairing objective
    outside the [last-come, first-come] envelope (CLI exit code 3).  If this
    fires on valid data it is a genuine counterexample, not a user error.
    """
