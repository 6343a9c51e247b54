"""Closed forms for the memoryless queue, audits, and discipline comparisons.

For exponential arrivals (rate λ) and exponential service (rate μ > λ) the
stationary waiting-time law is classical: the chance of waiting at all is
the utilization, the mean wait is the same under every work-conserving
non-preemptive discipline, and the second moments under first-come and
last-come service have explicit expressions.  With ρ = λ/μ and time
measured in mean service units (μ = 1):

* ``P(W > 0) = ρ``  and  ``E[W] = ρ / (1 - ρ)``,
* ``E[W² | W > 0] = 2 / (1 - ρ)²``   (first-come-first-served),
* ``E[W² | W > 0] = 2 / (1 - ρ)³``   (last-come-first-served),
* ``Var[W] = ρ(2 - ρ) / (1 - ρ)²``   (first-come),
* ``Var[W] = ρ(2 - ρ + ρ²) / (1 - ρ)³`` (last-come).

General μ follows by dimensional analysis: waits carry 1/μ, second moments
and variances 1/μ².  ``consistency_check`` re-derives each variance from
the other two formulas (``Var = P(W>0)·E[W²|W>0] - E[W]²``), so a typo in
any one of them cannot survive.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .errors import ConfigError
from .simulate import Discipline, SimConfig, _check_discipline, run_simulation
from .stats import DEFAULT_WARMUP, WaitStats, _check_warmup, _wait_moments
from .variates import _check_rate, _check_stable

__all__ = [
    "MM1Prediction",
    "ConsistencyReport",
    "LittleReport",
    "DisciplineSummary",
    "ComparisonTable",
    "mm1_predict",
    "consistency_check",
    "little_check",
    "compare_disciplines",
    "COMPARISON_CSV_COLUMNS",
    "csv_table",
]


@dataclass(frozen=True)
class MM1Prediction:
    """Stationary waiting-time figures for an exponential/exponential queue.

    All fields are in actual time units (waits ∝ 1/μ, second moments and
    variances ∝ 1/μ²); ``scale`` records 1/μ and ``lambda_norm`` the
    dimensionless utilization the formulas were evaluated at.
    """

    lambda_norm: float
    scale: float
    p_wait: float
    mean_wait: float
    second_moment_given_wait_fcfs: float
    second_moment_given_wait_lcfs: float
    var_wait_fcfs: float
    var_wait_lcfs: float

    def variance_for(self, discipline: Discipline | str) -> float | None:
        """Predicted Var[W] for a discipline, None where no closed form exists."""
        d = _check_discipline(discipline)
        if d is Discipline.FCFS:
            return self.var_wait_fcfs
        if d is Discipline.LCFS:
            return self.var_wait_lcfs
        return None


def mm1_predict(arrival_rate: float, service_rate: float) -> MM1Prediction:
    """Evaluate the closed forms at ρ = arrival_rate / service_rate.

    Requires both rates positive and ``arrival_rate < service_rate``; the
    stationary law does not exist otherwise.
    """
    _check_rate("arrival_rate", arrival_rate)
    _check_rate("service_rate", service_rate)
    _check_stable("arrival rate", arrival_rate, "service rate", service_rate)
    rho = arrival_rate / service_rate
    one = 1.0 - rho
    scale = 1.0 / service_rate
    return MM1Prediction(
        lambda_norm=rho,
        scale=scale,
        p_wait=rho,
        mean_wait=(rho / one) * scale,
        second_moment_given_wait_fcfs=(2.0 / one**2) * scale**2,
        second_moment_given_wait_lcfs=(2.0 / one**3) * scale**2,
        var_wait_fcfs=(rho * (2.0 - rho) / one**2) * scale**2,
        var_wait_lcfs=(rho * (2.0 - rho + rho**2) / one**3) * scale**2,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Whether each variance matches its moment-based reconstruction."""

    ok: bool
    fcfs_gap: float
    lcfs_gap: float
    tolerance: float


def consistency_check(
    pred: MM1Prediction, tolerance: float = 1e-12
) -> ConsistencyReport:
    """Re-derive each variance as ``P(W>0)·E[W²|W>0] - E[W]²`` and compare.

    Gaps are relative to the stated variance; the two routes share no
    algebra, so agreement pins all five formulas together.
    """
    gaps = []
    for smgw, var in (
        (pred.second_moment_given_wait_fcfs, pred.var_wait_fcfs),
        (pred.second_moment_given_wait_lcfs, pred.var_wait_lcfs),
    ):
        rebuilt = pred.p_wait * smgw - pred.mean_wait**2
        gaps.append(abs(rebuilt - var) / var)
    return ConsistencyReport(
        ok=gaps[0] <= tolerance and gaps[1] <= tolerance,
        fcfs_gap=gaps[0],
        lcfs_gap=gaps[1],
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class LittleReport:
    """Both sides of E[K] = λ_eff · E[S] and their relative gap."""

    lhs: float
    rhs: float
    relative_gap: float


def little_check(stats: WaitStats, lambda_effective: float) -> LittleReport:
    """Compare measured occupancy against arrival rate times mean sojourn.

    ``lambda_effective`` should be the measured rate over the retained
    horizon (``stats.effective_arrival_rate``), not the configured one.
    """
    lhs = stats.time_avg_in_system
    rhs = lambda_effective * stats.mean_sojourn
    if rhs == 0.0:
        gap = 0.0 if lhs == 0.0 else float("inf")
    else:
        gap = abs(lhs - rhs) / rhs
    return LittleReport(lhs=lhs, rhs=rhs, relative_gap=gap)


COMPARISON_CSV_COLUMNS = (
    "discipline",
    "seed_count",
    "mean_wait",
    "se_mean",
    "var_wait",
    "se_var",
    "p_wait",
    "predicted_var",
)


@dataclass(frozen=True)
class DisciplineSummary:
    """One comparison row: seed-averaged statistics for one discipline.

    Standard errors are pooled across seeds (root-sum-square over the
    per-seed batch-means errors, divided by the seed count); ``None`` when
    any per-seed error was unavailable.  A one-seed row (``seed_count=1``)
    carries that seed's own figures and errors.  ``predicted_var`` is the
    closed form where one exists and was requested, else ``None``.
    """

    discipline: str
    seed_count: int
    mean_wait: float
    se_mean: float | None
    var_wait: float
    se_var: float | None
    p_wait: float
    predicted_var: float | None

    def to_dict(self) -> dict[str, object]:
        return {c: getattr(self, c) for c in COMPARISON_CSV_COLUMNS}


@dataclass(frozen=True)
class ComparisonTable:
    """Pooled rows per discipline, plus each seed's own rows in ``per_seed``."""

    rows: tuple[DisciplineSummary, ...]
    per_seed: dict[str, tuple[DisciplineSummary, ...]]
    seeds: tuple[int, ...]

    @property
    def ordering_ok(self) -> bool:
        """True when aggregated variances are non-decreasing in
        first-come, random-order, last-come order (for the disciplines
        actually present)."""
        order = {d.value: k for k, d in enumerate(
            (Discipline.FCFS, Discipline.RANDOM_ORDER, Discipline.LCFS)
        )}
        present = sorted(
            (r for r in self.rows if r.discipline in order),
            key=lambda r: order[r.discipline],
        )
        return all(
            a.var_wait <= b.var_wait for a, b in zip(present, present[1:])
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "seeds": list(self.seeds),
            "ordering_ok": self.ordering_ok,
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_csv(self) -> str:
        """Spec'd columns, one line per discipline (see :func:`csv_table`)."""
        return csv_table(COMPARISON_CSV_COLUMNS, [r.to_dict() for r in self.rows])


def csv_table(columns: Sequence[str], rows: Iterable[Mapping[str, object]]) -> str:
    """A header line and one line per row: floats at 17 significant digits,
    None as blank."""

    def cell(v: object) -> str:
        if v is None:
            return ""
        return format(v, ".17g") if isinstance(v, float) else str(v)

    lines = [",".join(columns)]
    lines += (",".join(cell(r[c]) for c in columns) for r in rows)
    return "\n".join(lines) + "\n"


def _pooled_se(errors: list[float | None]) -> float | None:
    total = 0.0
    for e in errors:
        if e is None:
            return None
        total += e * e
    return total**0.5 / len(errors)


def _stats_for(
    job: tuple[SimConfig, tuple[Discipline, ...], float, MM1Prediction | None]
) -> list[DisciplineSummary]:
    cfg, disciplines, warmup, prediction = job
    # Held for the loop, the first-come trace lends every run its trajectory.
    first_come = run_simulation(replace(cfg, discipline=Discipline.FCFS))
    rows = []
    for d in disciplines:
        trace = run_simulation(replace(first_come.config, discipline=d))
        waits, *moments = _wait_moments(trace, warmup)
        del trace, waits  # neither the waits nor the trace outlive their row
        predicted = prediction.variance_for(d) if prediction is not None else None
        rows.append(DisciplineSummary(d.value, 1, *moments, predicted))
    return rows


def _use_filters(filters: list) -> None:
    """Start a worker with its caller's warning filters, as a forked one has
    them; a spawned one would start with the defaults."""
    warnings.filters[:] = filters


def _resolve_workers() -> int:
    env = os.environ.get("QVAR_THREADS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"QVAR_THREADS must be an integer, got {env!r}") from None
        if value < 1:
            raise ConfigError(f"QVAR_THREADS must be >= 1, got {value}")
        return value
    return 1


def compare_disciplines(
    base: SimConfig,
    seeds: list[int] | tuple[int, ...],
    *,
    disciplines: tuple[Discipline | str, ...] = (
        Discipline.FCFS,
        Discipline.LCFS,
        Discipline.RANDOM_ORDER,
    ),
    warmup_fraction: float = DEFAULT_WARMUP,
    oracle: bool = False,
) -> ComparisonTable:
    """Run every discipline on every seed and aggregate the wait moments.

    All runs share ``base`` except for discipline and seed, so matched seeds
    share their arrival and service draws exactly; each seed's first-come
    trace is held while its disciplines run, so its trajectory is drawn
    once, whether or not first come is among them.  Each seed must
    pass :class:`SimConfig`'s seed rule, each discipline is a
    :class:`Discipline` or its word, at least one is required, and seeds
    and disciplines must not repeat.  With ``oracle=True`` the closed-form
    variances are attached where they exist, which requires exponential
    arrival and service distributions.  Seeds fan out across the number of
    processes the ``QVAR_THREADS`` environment variable names (default 1,
    serial), each started with the caller's warning filters; results reduce
    in (discipline, seed) order either way.  Only the wait moments are
    computed, bitwise as in ``compute_stats``; occupancy and E[W²|W>0] come
    from ``qvar simulate``.
    """
    if not seeds:
        raise ConfigError("at least one seed is required")
    disciplines = tuple(_check_discipline(d) for d in disciplines)
    if not disciplines:
        raise ConfigError("at least one discipline is required")
    configs = [replace(base, seed=s) for s in seeds]
    seeds = [c.seed for c in configs]
    for what, values in (("seed", seeds), ("discipline", [d.value for d in disciplines])):
        if len(set(values)) != len(values):
            raise ConfigError(f"each {what} may be given only once, got {list(values)}")
    _check_stable("arrival rate", base.arrival_rate, "service rate", base.service_rate)
    prediction: MM1Prediction | None = None
    if oracle:
        if (base.arrival_dist, base.service_dist) != ("exponential", "exponential"):
            raise ConfigError(
                "closed-form predictions exist only for exponential arrivals "
                "and exponential service; drop the oracle or the custom "
                "distributions"
            )
        prediction = mm1_predict(base.arrival_rate, base.service_rate)
    warmup_fraction = _check_warmup(warmup_fraction)

    jobs = [(c, disciplines, warmup_fraction, prediction) for c in configs]
    workers = _resolve_workers()
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_use_filters, initargs=(warnings.filters[:],)
        ) as pool:
            by_seed = list(pool.map(_stats_for, jobs))
    else:
        by_seed = [_stats_for(j) for j in jobs]

    rows = []
    per_seed: dict[str, tuple[DisciplineSummary, ...]] = {}
    count = len(seeds)
    for idx, d in enumerate(disciplines):
        chunk = [stats[idx] for stats in by_seed]
        per_seed[d.value] = tuple(chunk)
        rows.append(
            DisciplineSummary(
                discipline=d.value,
                seed_count=count,
                mean_wait=sum(s.mean_wait for s in chunk) / count,
                se_mean=_pooled_se([s.se_mean for s in chunk]),
                var_wait=sum(s.var_wait for s in chunk) / count,
                se_var=_pooled_se([s.se_var for s in chunk]),
                p_wait=sum(s.p_wait for s in chunk) / count,
                predicted_var=chunk[0].predicted_var,
            )
        )
    return ComparisonTable(rows=tuple(rows), per_seed=per_seed, seeds=tuple(seeds))
