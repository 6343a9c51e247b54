"""Acceptance gate: one test per headline claim, one printed verdict each.

Every test prints a single ``[criterion-N] PASS/FAIL`` line with the measured
numbers before asserting, so a red run still reports what was observed.
Tolerances are fixed here and are not tuned to the seeds.
"""

import math

import numpy as np

from brute_force import bad_pairs, enumerate_realizable
from qvar import (
    ExtremalityViolationError,
    MM1Prediction,
    SimConfig,
    check_extremality,
    compare_disciplines,
    consistency_check,
    descent_to_lcfs,
    lcfs_permutation,
    mm1_predict,
    random_busy_period,
    random_realizable_permutation,
)

ACCEPT_SEEDS = tuple(range(1, 11))
DISCIPLINES = ("fcfs", "lcfs", "random")

Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def _pooled_se(values):
    return math.sqrt(sum(v * v for v in values)) / len(values)


def _verdict(capsys, tag, ok, detail):
    """Emit past pytest's capture so the line lands in plain -v output."""
    with capsys.disabled():
        print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_waiting_time_variance(mm1_battery, capsys):
    targets = {"fcfs": 3.0, "lcfs": 7.0}
    parts = []
    ok = True
    for d, target in targets.items():
        per_seed = mm1_battery["stats"][d]
        var = sum(s.var_wait for s in per_seed) / len(per_seed)
        se = _pooled_se([s.se_var_wait for s in per_seed])
        dev = abs(var - target)
        ok = ok and dev <= 3.0 * se
        parts.append(f"{d} var={var:.4f} target={target} |dev|={dev:.4f} 3se={3 * se:.4f}")
    _verdict(capsys, "criterion-1", ok, "; ".join(parts))
    assert ok, parts


def test_criterion_2_waiting_probability_and_mean(mm1_battery, capsys):
    parts = []
    ok = True
    for d in DISCIPLINES:
        per_seed = mm1_battery["stats"][d]
        p = sum(s.frac_waiting for s in per_seed) / len(per_seed)
        m = sum(s.mean_wait for s in per_seed) / len(per_seed)
        d_ok = abs(p - 0.5) <= 0.01 and abs(m - 1.0) <= 0.02
        ok = ok and d_ok
        parts.append(f"{d} p_wait={p:.5f} mean_wait={m:.5f}")
    _verdict(capsys, "criterion-2", ok, "; ".join(parts) + " (p in 0.5±0.01, mean in 1.0±0.02)")
    assert ok, parts


def test_criterion_3_exhaustive_extremality(small_instances, capsys):
    instances = small_instances["random"] + small_instances["extracted"]
    assert len(small_instances["random"]) >= 1000
    assert small_instances["extracted"], "heavy-load runs produced no small periods"
    violations = 0
    checked = 0
    for bp in instances:
        try:
            check_extremality(bp)
        except ExtremalityViolationError:
            violations += 1
        checked += 1
    ok = violations == 0
    _verdict(
        capsys,
        "criterion-3",
        ok,
        f"{checked} instances ({len(small_instances['random'])} random, "
        f"{len(small_instances['extracted'])} extracted), {violations} violations",
    )
    assert ok


def test_criterion_4_descent_certificate(capsys):
    rng = np.random.default_rng(424242)
    worst_swaps = 0
    ok = True
    for _ in range(1000):
        bp = random_busy_period(rng, int(rng.integers(2, 11)))
        start = random_realizable_permutation(rng, bp)
        initial_bad = len(bad_pairs(bp, start))
        trace = descent_to_lcfs(bp, start)
        if trace.final != lcfs_permutation(bp).mapping:
            ok = False
            break
        swaps = trace.steps
        if len(swaps) > initial_bad:
            ok = False
            break
        for step in swaps:
            if not (step.objective_after < step.objective_before):
                ok = False
            if not (step.bad_pairs_after < step.bad_pairs_before):
                ok = False
        worst_swaps = max(worst_swaps, len(swaps))
        if not ok:
            break
    _verdict(
        capsys,
        "criterion-4",
        ok,
        f"1000 descents reached the stack order; swap steps strictly decrease "
        f"objective and bad pairs; max swaps per instance {worst_swaps}",
    )
    assert ok


def test_criterion_5_unique_zero_bad_pair_member(small_instances, capsys):
    instances = small_instances["random"] + small_instances["extracted"]
    ok = True
    for bp in instances:
        tau = lcfs_permutation(bp)
        quiet = [
            p for p in enumerate_realizable(bp) if not bad_pairs(bp, p)
        ]
        if quiet != [tau]:
            ok = False
            break
    _verdict(
        capsys,
        "criterion-5",
        ok,
        f"{len(instances)} instances each have exactly one zero-bad-pair "
        f"member, the stack order",
    )
    assert ok


def test_criterion_6_mean_wait_conservation(mm1_battery, capsys):
    sums_ok = all(mm1_battery["sums_bitwise_equal"])
    spread = max(mm1_battery["full_mean_rel_spread"])
    means_ok = spread <= 1e-9
    ok = sums_ok and means_ok
    _verdict(
        capsys,
        "criterion-6",
        ok,
        f"per-period wait sums bitwise-equal across disciplines in "
        f"{sum(mm1_battery['sums_bitwise_equal'])}/{len(ACCEPT_SEEDS)} seeds; "
        f"max relative spread of overall means {spread:.3e} (<= 1e-9)",
    )
    assert ok


def test_criterion_7_littles_law(mm1_battery, capsys):
    worst = max(max(g for g in gaps) for gaps in mm1_battery["little_gaps"].values())
    ok = worst < 0.02
    _verdict(
        capsys,
        "criterion-7",
        ok,
        f"worst relative gap over {len(ACCEPT_SEEDS)} seeds x 3 disciplines: "
        f"{worst:.3e} (< 0.02)",
    )
    assert ok


def test_criterion_8_ordering_beyond_exponential(capsys):
    parts = []
    ok = True
    services = (
        ("deterministic", "M/D/1"),
        ("uniform", "M/U/1"),
    )
    for service, label in services:
        for lam in (0.5, 0.8):
            base = SimConfig(
                arrival_rate=lam,
                service_rate=1.0,
                num_arrivals=10**6,
                seed=0,
                service_dist=service,
            )
            table = compare_disciplines(base, ACCEPT_SEEDS)
            by = {row.discipline: row for row in table.rows}
            lo = {d: by[d].var_wait - Z99 * by[d].se_var for d in by}
            hi = {d: by[d].var_wait + Z99 * by[d].se_var for d in by}
            separated = hi["fcfs"] < lo["random"] and hi["random"] < lo["lcfs"]
            ok = ok and separated
            parts.append(
                f"{label} rho={lam}: "
                f"F={by['fcfs'].var_wait:.4f} R={by['random'].var_wait:.4f} "
                f"L={by['lcfs'].var_wait:.4f} separated={separated}"
            )
    _verdict(capsys, "criterion-8", ok, "; ".join(parts))
    assert ok


def test_criterion_9_closed_form_self_consistency(capsys):
    worst_gap = 0.0
    ratios_ok = True
    for lam in np.arange(0.1, 0.95, 0.1):
        pred = mm1_predict(float(lam), 1.0)
        report = consistency_check(pred, tolerance=1e-12)
        worst_gap = max(worst_gap, report.fcfs_gap, report.lcfs_gap)
        assert isinstance(pred, MM1Prediction)
        if not pred.var_wait_lcfs > pred.var_wait_fcfs:
            ratios_ok = False
    ok = worst_gap <= 1e-12 and ratios_ok
    _verdict(
        capsys,
        "criterion-9",
        ok,
        f"max moment-identity gap over the load grid {worst_gap:.3e} "
        f"(<= 1e-12); LCFS variance exceeds FCFS at every load: {ratios_ok}",
    )
    assert ok
