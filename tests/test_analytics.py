from dataclasses import replace

import numpy as np
import pytest

from qvar import (
    ConfigError,
    Discipline,
    InvalidRateError,
    SimConfig,
    UnstableError,
    WaitStats,
    compare_disciplines,
    compute_stats,
    consistency_check,
    little_check,
    mm1_predict,
    run_simulation,
)
from qvar.analytics import COMPARISON_CSV_COLUMNS, _resolve_workers

RHO_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_half_load_exact_values():
    pred = mm1_predict(0.5, 1.0)
    assert pred.lambda_norm == 0.5
    assert pred.p_wait == 0.5
    assert pred.mean_wait == 1.0
    assert pred.second_moment_given_wait_fcfs == 8.0
    assert pred.second_moment_given_wait_lcfs == 16.0
    assert pred.var_wait_fcfs == 3.0
    assert pred.var_wait_lcfs == 7.0


def test_variance_for():
    pred = mm1_predict(0.5, 1.0)
    assert pred.variance_for("fcfs") == 3.0
    assert pred.variance_for("lcfs") == 7.0
    assert pred.variance_for("random") is None


def test_rate_validation():
    with pytest.raises(InvalidRateError):
        mm1_predict(0.0, 1.0)
    with pytest.raises(InvalidRateError):
        mm1_predict(0.5, float("inf"))
    with pytest.raises(UnstableError):
        mm1_predict(1.0, 1.0)
    with pytest.raises(UnstableError):
        mm1_predict(1.5, 1.0)


def test_light_traffic_limit():
    pred = mm1_predict(1e-12, 1.0)
    assert pred.var_wait_fcfs < 1e-11
    assert pred.var_wait_lcfs < 1e-11


def test_scale_covariance():
    base = mm1_predict(0.5, 1.0)
    for c in (2.0, 4.0, 0.5):
        scaled = mm1_predict(0.5 * c, 1.0 * c)
        assert scaled.lambda_norm == base.lambda_norm
        assert scaled.p_wait == base.p_wait
        assert scaled.var_wait_fcfs == base.var_wait_fcfs / c**2
        assert scaled.var_wait_lcfs == base.var_wait_lcfs / c**2
        assert scaled.mean_wait == base.mean_wait / c
    odd = mm1_predict(0.5 * 3.0, 3.0)
    assert odd.var_wait_lcfs == pytest.approx(base.var_wait_lcfs / 9.0, rel=1e-12)


def test_consistency_on_grid():
    for rho in RHO_GRID:
        report = consistency_check(mm1_predict(rho, 1.0))
        assert report.ok, (rho, report)
        assert report.fcfs_gap <= 1e-12
        assert report.lcfs_gap <= 1e-12


def test_variance_ratio_exceeds_one_on_grid():
    for rho in RHO_GRID:
        pred = mm1_predict(rho, 1.0)
        assert pred.var_wait_lcfs / pred.var_wait_fcfs > 1.0


def test_little_check_reports():
    stats_zero = _fake_stats(time_avg=0.0, sojourn=0.0)
    assert little_check(stats_zero, 0.0).relative_gap == 0.0
    stats = _fake_stats(time_avg=1.02, sojourn=2.0)
    report = little_check(stats, 0.5)
    assert report.lhs == 1.02
    assert report.rhs == 1.0
    assert report.relative_gap == pytest.approx(0.02)
    mismatch = little_check(_fake_stats(time_avg=1.0, sojourn=0.0), 0.0)
    assert mismatch.relative_gap == float("inf")


def _fake_stats(time_avg, sojourn):
    return WaitStats(
        count=1,
        warmup_discarded=0,
        mean_wait=0.0,
        var_wait=0.0,
        se_mean_wait=None,
        se_var_wait=None,
        second_moment_given_wait=None,
        frac_waiting=0.0,
        mean_service=sojourn,
        mean_sojourn=sojourn,
        time_avg_in_system=time_avg,
        horizon=1.0,
        effective_arrival_rate=1.0,
    )


BASE = SimConfig(arrival_rate=0.5, service_rate=1.0, num_arrivals=20_000, seed=1)


def test_compare_table_shape_and_ordering():
    table = compare_disciplines(BASE, [1, 2], oracle=True)
    assert [r.discipline for r in table.rows] == ["fcfs", "lcfs", "random"]
    assert all(r.seed_count == 2 for r in table.rows)
    by = {r.discipline: r for r in table.rows}
    assert by["fcfs"].predicted_var == 3.0
    assert by["lcfs"].predicted_var == 7.0
    assert by["random"].predicted_var is None
    assert by["fcfs"].var_wait < by["random"].var_wait < by["lcfs"].var_wait
    assert table.ordering_ok
    # same workload either way: means agree to simulation noise
    assert by["fcfs"].mean_wait == pytest.approx(by["lcfs"].mean_wait, rel=2e-2)
    assert len(table.per_seed["fcfs"]) == 2
    assert table.seeds == (1, 2)


def test_compare_single_discipline_row():
    from qvar import Discipline

    table = compare_disciplines(
        replace(BASE, num_arrivals=5_000), [3], disciplines=(Discipline.FCFS,)
    )
    assert len(table.rows) == 1
    assert table.rows[0].discipline == "fcfs"
    assert table.rows[0].predicted_var is None  # oracle not requested
    assert table.ordering_ok


def test_compare_takes_discipline_words():
    cfg = replace(BASE, num_arrivals=2_000)
    words = compare_disciplines(cfg, [1], disciplines=("fcfs", "lcfs"))
    members = compare_disciplines(cfg, [1], disciplines=(Discipline.FCFS, Discipline.LCFS))
    assert [r.discipline for r in words.rows] == ["fcfs", "lcfs"]
    assert words == members


def test_compare_refuses_unknown_or_no_disciplines():
    with pytest.raises(ConfigError, match="unknown discipline 'sjf'; choose from"):
        compare_disciplines(BASE, [1], disciplines=("fcfs", "sjf"))
    with pytest.raises(ConfigError, match="at least one discipline"):
        compare_disciplines(BASE, [1], disciplines=())
    with pytest.raises(ConfigError, match="only once"):
        compare_disciplines(BASE, [1], disciplines=("fcfs", Discipline.FCFS))


def test_compare_requires_stability():
    with pytest.raises(UnstableError):
        compare_disciplines(replace(BASE, arrival_rate=2.0), [1])


def test_compare_requires_seeds():
    with pytest.raises(ConfigError):
        compare_disciplines(BASE, [])


def test_compare_seeds_follow_the_config_seed_rule():
    with pytest.raises(ConfigError):
        compare_disciplines(BASE, [1.7])
    table = compare_disciplines(replace(BASE, num_arrivals=2_000), [np.int64(3)])
    assert table.seeds == (3,) and type(table.seeds[0]) is int
    (row,) = table.per_seed["fcfs"]
    assert_same_figures(row, compute_stats(run_simulation(replace(BASE, num_arrivals=2_000, seed=3))))


def test_oracle_requires_exponential():
    mdi = replace(BASE, service_dist="deterministic")
    with pytest.raises(ConfigError):
        compare_disciplines(mdi, [1], oracle=True)
    # without the oracle the comparison runs and leaves predictions blank
    table = compare_disciplines(replace(mdi, num_arrivals=5_000), [1])
    assert all(r.predicted_var is None for r in table.rows)


def test_csv_output():
    table = compare_disciplines(replace(BASE, num_arrivals=5_000), [1, 2], oracle=True)
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(COMPARISON_CSV_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "fcfs"
    assert first[1] == "2"
    assert float(first[2]) == pytest.approx(1.0, abs=0.2)
    assert first[7] == "3"  # 3.0 at 17 significant digits
    random_row = lines[3].split(",")
    assert random_row[7] == ""  # no closed form for random order
    # full round-trip precision in every float cell
    reparsed = float(first[4])
    assert format(reparsed, ".17g") == first[4]


def test_json_output():
    table = compare_disciplines(replace(BASE, num_arrivals=5_000), [1])
    d = table.to_dict()
    assert d["seeds"] == [1]
    assert {row["discipline"] for row in d["rows"]} == {"fcfs", "lcfs", "random"}
    assert set(d["rows"][0]) == set(COMPARISON_CSV_COLUMNS)


def test_workers_resolution(monkeypatch):
    monkeypatch.delenv("QVAR_THREADS", raising=False)
    assert _resolve_workers() == 1
    monkeypatch.setenv("QVAR_THREADS", "3")
    assert _resolve_workers() == 3
    monkeypatch.setenv("QVAR_THREADS", "zero")
    with pytest.raises(ConfigError):
        _resolve_workers()
    monkeypatch.setenv("QVAR_THREADS", "0")
    with pytest.raises(ConfigError):
        _resolve_workers()


def test_parallel_matches_serial(monkeypatch):
    cfg = replace(BASE, num_arrivals=2_000)
    monkeypatch.setenv("QVAR_THREADS", "1")
    serial = compare_disciplines(cfg, [1, 2])
    monkeypatch.setenv("QVAR_THREADS", "2")
    parallel = compare_disciplines(cfg, [1, 2])
    assert serial.rows == parallel.rows


def assert_same_figures(row, stats):
    """A one-seed compare row holds the five figures ``compute_stats`` gives
    for the same run, bit for bit and of the same types (``repr`` tells
    -0.0 from 0.0 and a numpy scalar from a float).  Compare computes
    nothing else, so the other ``WaitStats`` fields are not part of this."""
    assert row.seed_count == 1
    got = (row.mean_wait, row.se_mean, row.var_wait, row.se_var, row.p_wait)
    want = (stats.mean_wait, stats.se_mean_wait, stats.var_wait, stats.se_var_wait,
            stats.frac_waiting)
    assert list(map(repr, got)) == list(map(repr, want))


# The id names the trajectory model, the manifests' constant "coupling".
@pytest.mark.parametrize("coupling", ["position"])
def test_compare_matches_separate_runs(coupling):
    # Each seed's draws and trajectory are shared by its disciplines; the
    # figures must equal those of one run per (discipline, seed).
    cfg = replace(BASE, num_arrivals=3_000)
    assert cfg.to_dict()["coupling"] == coupling
    table = compare_disciplines(cfg, [4, 5], oracle=True)
    for pooled, (d, rows) in zip(table.rows, table.per_seed.items()):
        assert [r.discipline for r in rows] == [d, d]
        assert {r.predicted_var for r in rows} == {pooled.predicted_var}
        for seed, row in zip(table.seeds, rows):
            assert_same_figures(
                row, compute_stats(run_simulation(replace(cfg, discipline=d, seed=seed)))
            )
