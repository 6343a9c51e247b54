from dataclasses import replace

import numpy as np
import pytest

from qvar import (
    ConfigError,
    SimConfig,
    SimTrace,
    WaitStats,
    compare_disciplines,
    compute_stats,
    run_simulation,
)


def det_trace(interarrival, service, n, discipline="fcfs"):
    return run_simulation(
        SimConfig(
            arrival_rate=1.0 / interarrival,
            service_rate=1.0 / service,
            num_arrivals=n,
            seed=0,
            discipline=discipline,
            arrival_dist="deterministic",
            service_dist="deterministic",
        )
    )


def test_hand_arithmetic():
    # waits are exactly [0, 0.5, 1.0]
    stats = compute_stats(det_trace(1.0, 1.5, 3), warmup_fraction=0.0)
    assert stats.count == 3
    assert stats.warmup_discarded == 0
    assert stats.mean_wait == pytest.approx(0.5)
    assert stats.var_wait == pytest.approx(0.25)
    assert stats.frac_waiting == pytest.approx(2.0 / 3.0)
    assert stats.second_moment_given_wait == pytest.approx((0.25 + 1.0) / 2)
    assert stats.mean_service == pytest.approx(1.5)
    assert stats.mean_sojourn == stats.mean_wait + stats.mean_service
    # small sample: no batch errors
    assert stats.se_mean_wait is None and stats.se_var_wait is None


def test_all_zero_waits():
    stats = compute_stats(det_trace(2.0, 1.0, 5), warmup_fraction=0.0)
    assert stats.mean_wait == 0.0
    assert stats.var_wait == 0.0
    assert stats.frac_waiting == 0.0
    assert stats.second_moment_given_wait is None


def test_occupancy_hand_example():
    # one busy period: arrivals 0,1,2; starts 0,2.5,5; departures 2.5,5,7.5.
    # Time in system: 2.5, 4, 5.5 over a horizon of 7.5.
    stats = compute_stats(det_trace(1.0, 2.5, 3), warmup_fraction=0.0)
    assert stats.horizon == pytest.approx(7.5)
    assert stats.time_avg_in_system == pytest.approx(12.0 / 7.5)
    assert stats.effective_arrival_rate == pytest.approx(3 / 7.5)
    assert stats.mean_sojourn == pytest.approx(4.0)
    # occupancy route equals rate x sojourn route exactly on a clean cut
    assert stats.time_avg_in_system == pytest.approx(
        stats.effective_arrival_rate * stats.mean_sojourn
    )


def test_warmup_floor():
    stats = compute_stats(det_trace(2.0, 1.0, 10), warmup_fraction=0.25)
    assert stats.warmup_discarded == 2
    assert stats.count == 8


def test_warmup_validation():
    trace = det_trace(2.0, 1.0, 10)
    for bad in (1.0, -0.1, float("nan"), "0.1", False, True, None, np.bool_(False)):
        with pytest.raises(ConfigError, match="warmup_fraction must lie in"):
            compute_stats(trace, warmup_fraction=bad)
    # A numpy float gives bitwise the stats of the equal Python float: the
    # discard count is not computed in float16, which overflows at 100,000.
    trace = run_simulation(SimConfig(0.9, 1.0, 100_000, 5))
    for warmup in (np.float16(0.5), np.float32(0.1), np.float64(0.1)):
        want = compute_stats(trace, float(warmup))
        assert repr(compute_stats(trace, warmup)) == repr(want), warmup
    assert compute_stats(trace, np.float16(0.5)).warmup_discarded == 50_000


# numpy warns of the overflow before the refusal.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_moments_past_the_float_range_are_refused():
    # Finite waits of about 1e201 have squares past the float range: no
    # report may carry an inf or nan figure.
    cfg = SimConfig(0.9e-200, 1e-200, 1_000, 1)
    trace = run_simulation(cfg)
    assert np.isfinite(trace.departures).all()
    message = r"waits too long for finite moments: \(mean wait, its error, variance"
    with pytest.raises(ConfigError, match=message):
        compute_stats(trace)
    with pytest.raises(ConfigError, match=message):
        compare_disciplines(cfg, [1, 2])
    # Waits of 0, b and 2b keep Var[W] = b² finite, but not E[W²|W>0] = 2.5b².
    big = 9e153
    trace = SimTrace(
        np.array([0.0, 1.0, 2.0]), np.array([0.0, big, 2 * big]),
        np.array([big, 2 * big, 3 * big]), np.array([0]),
    )
    assert np.isfinite(trace.waits().var(ddof=1))
    with pytest.raises(ConfigError, match=r"\(E\[W²\|W>0\]\) = \(inf,\)"):
        compute_stats(trace, warmup_fraction=0.0)


def test_batch_errors_shrink_with_sample_size():
    cfg = SimConfig(arrival_rate=0.5, service_rate=1.0, num_arrivals=4_000, seed=21)
    small = compute_stats(run_simulation(cfg))
    big = compute_stats(run_simulation(replace(cfg, num_arrivals=64_000)))
    assert small.se_mean_wait is not None and big.se_mean_wait is not None
    assert big.se_mean_wait < small.se_mean_wait
    assert big.se_var_wait < small.se_var_wait
    assert small.se_mean_wait > 0.0


def test_batch_errors_roughly_calibrated():
    # An M/M/1 run with a correct standard error should put the true mean
    # inside +/- 3 SE most of the time; check one healthy configuration.
    cfg = SimConfig(arrival_rate=0.5, service_rate=1.0, num_arrivals=200_000, seed=3)
    stats = compute_stats(run_simulation(cfg))
    assert stats.se_mean_wait is not None
    assert abs(stats.mean_wait - 1.0) < 4 * stats.se_mean_wait


def test_single_customer_trace():
    stats = compute_stats(det_trace(2.0, 1.0, 1), warmup_fraction=0.0)
    assert stats.count == 1
    assert stats.var_wait == 0.0
    assert stats.horizon == pytest.approx(1.0)
    assert stats.time_avg_in_system == pytest.approx(1.0)


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random"])
def test_occupancy_keeps_its_bits(discipline):
    # Clipping in one buffer gives the bits of the plain expression.
    trace = run_simulation(SimConfig(0.9, 1.0, 20_000, 7, discipline=discipline))
    stats = compute_stats(trace)
    t0, t1 = float(trace.arrivals[2_000]), float(trace.departures[2_000:].max())
    lo = np.maximum(trace.arrivals, t0)
    hi = np.minimum(trace.departures, t1)
    expected = float(np.clip(hi - lo, 0.0, None).sum() / (t1 - t0))
    assert stats.warmup_discarded == 2_000
    assert stats.time_avg_in_system == expected


def plain_stats(trace, warmup_fraction=0.1):
    """Every :class:`WaitStats` field as a plain expression over whole
    arrays, each temporary kept: the reference for the bits."""
    skip = int(trace.n * warmup_fraction)
    a = trace.arrivals[skip:]
    s = trace.service_starts[skip:]
    d = trace.departures[skip:]
    waits, services = s - a, d - s
    count = len(waits)
    positive = waits[waits > 0.0]
    se_mean = se_var = None
    if count >= 40:
        chunks = np.array_split(waits, 20)
        means = np.array([c.mean() for c in chunks])
        variances = np.array([c.var(ddof=1) for c in chunks])
        se_mean = float(means.std(ddof=1) / np.sqrt(20))
        se_var = float(variances.std(ddof=1) / np.sqrt(20))
    t0, t1 = float(a[0]), float(d.max())
    lo = np.maximum(trace.arrivals, t0)
    hi = np.minimum(trace.departures, t1)
    occupancy = float(np.clip(hi - lo, 0.0, None).sum() / (t1 - t0))
    return WaitStats(
        count=count,
        warmup_discarded=skip,
        mean_wait=float(waits.mean()),
        var_wait=float(waits.var(ddof=1)) if count >= 2 else 0.0,
        se_mean_wait=se_mean,
        se_var_wait=se_var,
        second_moment_given_wait=(
            float(np.mean(positive**2)) if len(positive) else None
        ),
        frac_waiting=float(len(positive) / count),
        mean_service=float(services.mean()),
        mean_sojourn=float(waits.mean()) + float(services.mean()),
        time_avg_in_system=occupancy,
        horizon=t1 - t0,
        effective_arrival_rate=count / (t1 - t0),
    )


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random"])
@pytest.mark.parametrize(
    "run",
    [
        # Over two occupancy blocks, the last one partial.
        SimConfig(0.95, 1.0, 150_000, 4),
        SimConfig(0.9, 1.0, 20_000, 7),
        # D/D/1 ties: each completion meets the next arrival, nobody waits.
        SimConfig(1.0, 1.0, 500, 0, arrival_dist="deterministic", service_dist="deterministic"),
        # D/D/1 overload: every wait is positive and grows.
        SimConfig(1.0, 2.0 / 3.0, 500, 0, arrival_dist="deterministic", service_dist="deterministic"),
    ],
    ids=["mm1-rho95", "mm1-rho90", "dd1-ties", "dd1-overload"],
)
@pytest.mark.parametrize("warmup", [0.0, 0.1])
def test_every_field_keeps_its_bits(discipline, run, warmup):
    trace = run_simulation(replace(run, discipline=discipline))
    # repr shows each float exactly: equal reprs are equal bits.
    assert repr(compute_stats(trace, warmup)) == repr(plain_stats(trace, warmup))
