"""Traced memory of whole-trace runs, in bytes per simulated customer.

Each budget is the peak that ``tracemalloc`` (which also sees numpy's
array buffers) recorded for this run plus 10%.  A trace holds its
trajectory: the arrivals, slot starts and slot ends as float64 arrays, 24
bytes per customer, and the period heads.  A last-come or random-order
trace adds each customer's slot offset, 2 bytes as int16, and shares the
trajectory's arrays with the other traces of its config.  An extracted
view keeps only its period bounds beside the trace's own arrays.  The
rest of a run's peak is its trajectory and its per-block temporaries,
which at this size are still a large share.  A retained budget is measured
after the call, on what it returns, plus 10%.
"""

import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from qvar import (
    BusyPeriod,
    Permutation,
    SimConfig,
    compute_stats,
    extract_busy_periods,
    fcfs_permutation,
    run_simulation,
)

N = 200_000
CONFIG = SimConfig(0.95, 1.0, N, 1)
# Bytes per customer of the traced peak above the memory in use before the
# call, by arrival rate and discipline.  At rate 0.5 there are about ten
# times as many busy periods as at 0.95, so the per-period index arrays of
# the trajectory count there.
RUN_BUDGET = {
    (0.95, "fcfs"): 36.3,
    (0.95, "lcfs"): 57.2,
    (0.95, "random"): 80.1,
    (0.5, "fcfs"): 42.4,
    (0.5, "lcfs"): 57.8,
    (0.5, "random"): 59.4,
}
STATS_BUDGET = 16.4
# A lone last-come or random-order trace: the trajectory's arrays and
# heads, and its offsets.  The first-come trace that held them is gone, and
# with it the queue that the run counted, 4 bytes more.
LONE_TRACE_BUDGET = 26.9
# A first-come trace is its trajectory's arrays; the other two share them
# and add their offsets, and the trajectory keeps the queue they counted.
SHARED_TRACES_BUDGET = 35.6
# The period bounds as int64 (about one period per 20 customers at rate
# 0.95); the arrivals, slot starts and offsets (None under first come) are
# the trace's.
EXTRACT_BUDGET = 0.42
# The three traces of one config and their extracted views: each view
# adds only its period bounds.
AUDIT_BUDGET = 36.9
# Iterating a last-come or random-order view turns one block of whole
# periods (about ``_TUPLE_BLOCK`` = 8,192 customers) at a time into tuples
# of Python floats and ints.  Turning a ``_BLOCK`` of 65,536 at a time reads
# 36.7 and fails.  A first-come view builds no tuples until a period's
# times are read.
ITER_BUDGET = 5.5
# Reading only each period's size across a first-come view builds no
# tuples of times: the peak is the arrival order of the longest period,
# built afresh above 63 customers.
SIZES_BUDGET = 1.17


def traced(fn, *args):
    """``fn(*args)`` and the bytes per customer it added to the traced
    memory: at its peak and after the call."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - before) / N, (after - before) / N


@pytest.mark.parametrize(
    "rate, discipline",
    list(RUN_BUDGET),
    ids=[d if r == CONFIG.arrival_rate else f"{d}-rate{r}" for r, d in RUN_BUDGET],
)
def test_whole_trace_run_stays_in_its_memory_budget(rate, discipline):
    cfg = replace(CONFIG, arrival_rate=rate, discipline=discipline)
    run_simulation(replace(cfg, num_arrivals=1_000))  # first-call set-up
    trace, run_bytes, _ = traced(run_simulation, cfg)
    _, stats_bytes, _ = traced(compute_stats, trace)
    assert run_bytes <= RUN_BUDGET[rate, discipline], run_bytes
    assert stats_bytes <= STATS_BUDGET, stats_bytes


def test_extracted_periods_keep_two_bytes_per_customer():
    # A first-come view keeps no offsets; a last-come one keeps its trace's,
    # as int16.  The slots are read from the trace's own starts.
    trace = run_simulation(replace(CONFIG, num_arrivals=20_000))
    view = extract_busy_periods(trace)
    assert view.offsets is None
    assert np.shares_memory(view.arrivals, trace.arrivals)
    assert np.shares_memory(view.starts, trace.service_starts)
    lcfs = run_simulation(replace(trace.config, discipline="lcfs"))
    assert extract_busy_periods(lcfs).offsets is lcfs.offsets
    assert lcfs.offsets.nbytes == 2 * 20_000


def test_extraction_stays_in_its_retained_budget():
    trace = run_simulation(CONFIG)
    extract_busy_periods(run_simulation(replace(CONFIG, num_arrivals=1_000)))
    _, _, kept = traced(extract_busy_periods, trace)
    assert kept <= EXTRACT_BUDGET, kept


def test_iterating_extracted_periods_holds_one_block():
    view = extract_busy_periods(run_simulation(CONFIG))
    deque(view[:3], maxlen=0)  # first-call set-up
    _, peak, _ = traced(deque, view, 0)
    assert peak <= ITER_BUDGET, peak


def test_iterating_a_last_come_view_holds_one_block():
    view = extract_busy_periods(run_simulation(replace(CONFIG, discipline="lcfs")))
    deque(view[:3], maxlen=0)  # first-call set-up
    _, peak, _ = traced(deque, view, 0)
    assert peak <= ITER_BUDGET, peak


def test_reading_sizes_builds_no_tuples():
    view = extract_busy_periods(run_simulation(CONFIG))
    sum(bp.n for bp, _ in view[:3])  # first-call set-up
    total, peak, _ = traced(lambda: sum(bp.n for bp, _ in view))
    assert total == N
    assert peak <= SIZES_BUDGET, peak


def test_a_read_period_keeps_no_trace():
    # A first-come period keeps its trace's arrivals and slot starts alive,
    # 16 bytes per customer, until its times are read, and then only those.
    def first_period(seed, read):
        bp, _ = extract_busy_periods(run_simulation(replace(CONFIG, seed=seed)))[0]
        if read:
            bp.service_starts
        return bp

    first_period(2, True)  # first-call set-up
    _, _, unread = traced(first_period, 3, False)
    bp, _, read = traced(first_period, 4, True)
    assert unread >= 16, unread
    assert read < 0.01 * 16, read
    assert bp == BusyPeriod(bp.arrivals, bp.service_starts)


@pytest.mark.parametrize("discipline", ["lcfs", "random"])
def test_lone_trace_keeps_no_trajectory(discipline):
    cfg = replace(CONFIG, discipline=discipline)
    run_simulation(replace(cfg, num_arrivals=1_000))  # first-call set-up
    _, _, kept = traced(run_simulation, cfg)
    assert kept <= LONE_TRACE_BUDGET, kept


def test_live_traces_of_one_config_share_a_trajectory():
    run_simulation(replace(CONFIG, num_arrivals=1_000, discipline="random"))
    disciplines = ("fcfs", "lcfs", "random")
    _, _, kept = traced(
        lambda: [run_simulation(replace(CONFIG, discipline=d)) for d in disciplines]
    )
    assert kept <= SHARED_TRACES_BUDGET, kept


def test_views_of_one_config_share_its_trajectory():
    # The shape of a sample-path audit: every discipline's trace and view.
    disciplines = ("fcfs", "lcfs", "random")
    extract_busy_periods(run_simulation(replace(CONFIG, num_arrivals=1_000, discipline="random")))

    def audit():
        traces = [run_simulation(replace(CONFIG, discipline=d)) for d in disciplines]
        return traces, [extract_busy_periods(t) for t in traces]

    (traces, views), _, kept = traced(audit)
    assert kept <= AUDIT_BUDGET, kept
    for trace, view in zip(traces, views):
        assert np.shares_memory(view.starts, traces[0].slot_starts)
        assert view.offsets is trace.offsets


def test_long_identity_retains_nothing():
    # Only arrival orders below 64 customers are shared: a 5,000-customer
    # one is built on each call and freed with its result.
    bp = BusyPeriod(tuple(range(5_000)), (0, *(i + 0.5 for i in range(1, 5_000))))
    fcfs_permutation(bp)

    def order_and_drop():
        Permutation.identity(5_000)
        fcfs_permutation(bp)

    _, peak, kept = traced(order_and_drop)
    assert peak * N > 5_000 * 8, peak  # the order was built
    assert kept == 0, kept
