"""qvar: a single-server queueing laboratory for waiting-time variance.

Every work-conserving, non-preemptive service discipline leaves the mean
wait untouched but moves the *variance* of the wait: serving in arrival
order minimizes it, serving the latest arrival first maximizes it.  This
package lets you see that from three independent directions --

* a discrete-event simulator with first-come, last-come, and random-order
  disciplines sharing identical arrival/service randomness,
* exact combinatorics on extracted busy periods (a proof in exact
  arithmetic that arrival order and the stack order are the extremes over
  every realizable service order, and a swap-by-swap descent from any
  order to the stack order), and
* closed-form formulas for the memoryless queue to calibrate against.

See the ``qvar`` command-line tool or import the pieces directly.
"""

from .busy_period import (
    BusyPeriod,
    Permutation,
    is_realizable,
    pairing_objective,
    validate_busy_period,
)
from .errors import (
    ConfigError,
    EmptyAfterWarmupError,
    ExtremalityViolationError,
    FirstServiceNotImmediateError,
    InfeasibleError,
    InvalidRateError,
    LengthMismatchError,
    MalformedInputError,
    MalformedTraceError,
    NotRealizableError,
    NotSortedError,
    QvarError,
    SizeMismatchError,
    UnstableError,
    ValidationError,
)
from .instances import random_busy_period, random_realizable_permutation
from .permutations import (
    DescentStep,
    DescentTrace,
    ExtremalityReport,
    check_extremality,
    descent_to_lcfs,
    fcfs_permutation,
    lcfs_permutation,
)
from .analytics import (
    ComparisonTable,
    ConsistencyReport,
    DisciplineSummary,
    LittleReport,
    MM1Prediction,
    compare_disciplines,
    consistency_check,
    little_check,
    mm1_predict,
)
from .simulate import (
    BusyPeriodView,
    Discipline,
    SimConfig,
    SimTrace,
    extract_busy_periods,
    per_period_wait_sums,
    read_trace_jsonl,
    run_simulation,
    write_trace_jsonl,
)
from .stats import WaitStats, compute_stats
from .variates import (
    Distribution,
    draw_variates,
    make_streams,
    parse_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data model
    "BusyPeriod",
    "Permutation",
    "validate_busy_period",
    "is_realizable",
    "pairing_objective",
    # combinatorics
    "DescentStep",
    "DescentTrace",
    "ExtremalityReport",
    "fcfs_permutation",
    "lcfs_permutation",
    "descent_to_lcfs",
    "check_extremality",
    # random instances
    "random_busy_period",
    "random_realizable_permutation",
    # variates and streams
    "Distribution",
    "parse_distribution",
    "draw_variates",
    "make_streams",
    # simulation
    "Discipline",
    "SimConfig",
    "SimTrace",
    "BusyPeriodView",
    "run_simulation",
    "extract_busy_periods",
    "per_period_wait_sums",
    "write_trace_jsonl",
    "read_trace_jsonl",
    # statistics
    "WaitStats",
    "compute_stats",
    # analytics
    "MM1Prediction",
    "ConsistencyReport",
    "LittleReport",
    "DisciplineSummary",
    "ComparisonTable",
    "mm1_predict",
    "consistency_check",
    "little_check",
    "compare_disciplines",
    # errors
    "QvarError",
    "ValidationError",
    "LengthMismatchError",
    "NotSortedError",
    "FirstServiceNotImmediateError",
    "InfeasibleError",
    "SizeMismatchError",
    "NotRealizableError",
    "InvalidRateError",
    "UnstableError",
    "ConfigError",
    "MalformedInputError",
    "MalformedTraceError",
    "EmptyAfterWarmupError",
    "ExtremalityViolationError",
]
