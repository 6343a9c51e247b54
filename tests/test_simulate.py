import gc
import hashlib
import json
import math
import pickle
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qvar import (
    BusyPeriod,
    ConfigError,
    Distribution,
    InfeasibleError,
    InvalidRateError,
    MalformedInputError,
    MalformedTraceError,
    NotSortedError,
    Permutation,
    SimConfig,
    SimTrace,
    ValidationError,
    check_extremality,
    draw_variates,
    extract_busy_periods,
    fcfs_permutation,
    is_realizable,
    lcfs_permutation,
    make_streams,
    per_period_wait_sums,
    read_trace_jsonl,
    run_simulation,
    validate_busy_period,
    write_trace_jsonl,
)
from qvar import simulate


def det_config(interarrival, service, n, discipline="fcfs", **kw):
    return SimConfig(
        arrival_rate=1.0 / interarrival,
        service_rate=1.0 / service,
        num_arrivals=n,
        seed=0,
        discipline=discipline,
        arrival_dist="deterministic",
        service_dist="deterministic",
        **kw,
    )


def mm1(arrival_rate, n, seed, discipline="fcfs", **kw):
    return SimConfig(
        arrival_rate=arrival_rate,
        service_rate=1.0,
        num_arrivals=n,
        seed=seed,
        discipline=discipline,
        **kw,
    )


def test_no_queueing_when_gaps_exceed_service():
    trace = run_simulation(det_config(2.0, 1.0, 3))
    assert trace.waits().tolist() == [0.0, 0.0, 0.0]
    # three separate busy periods of one customer each
    assert trace.period_starts.tolist() == [0, 1, 2]
    for bp, perm in extract_busy_periods(trace):
        assert bp.n == 1 and perm.mapping == (1,)


def test_fcfs_hand_trace():
    trace = run_simulation(det_config(1.0, 1.5, 3))
    assert trace.service_starts.tolist() == [0.0, 1.5, 3.0]
    assert trace.waits().tolist() == [0.0, 0.5, 1.0]
    assert trace.period_starts.tolist() == [0]


def test_lcfs_coincides_when_one_waiter():
    # With gaps of 1.0 and service 1.5, each completion finds exactly one
    # customer waiting (the next one arrives only mid-service), so the
    # last-come rule picks the same customer as first-come and the two
    # disciplines produce identical traces.
    f = run_simulation(det_config(1.0, 1.5, 3, discipline="fcfs"))
    l = run_simulation(det_config(1.0, 1.5, 3, discipline="lcfs"))
    assert np.array_equal(f.service_starts, l.service_starts)
    assert np.array_equal(f.waits(), l.waits())
    ((bp, perm),) = extract_busy_periods(l)
    assert perm.is_identity()


def test_lcfs_hand_trace_with_real_queue():
    # A long first service (2.5) leaves both later customers waiting when
    # the second slot opens, so the disciplines genuinely diverge.
    f = run_simulation(det_config(1.0, 2.5, 3, discipline="fcfs"))
    l = run_simulation(det_config(1.0, 2.5, 3, discipline="lcfs"))
    assert f.waits().tolist() == [0.0, 1.5, 3.0]
    assert l.waits().tolist() == [0.0, 4.0, 0.5]
    # same slots either way, only the assignment changes
    assert np.array_equal(f.service_starts, np.sort(l.service_starts))
    ((bp, perm),) = extract_busy_periods(l)
    assert bp.arrivals == (0.0, 1.0, 2.0)
    assert bp.service_starts == (0.0, 2.5, 5.0)
    assert perm.mapping == (1, 3, 2)


def test_completion_processed_before_tied_arrival():
    # service 1.0, arrivals every 1.0: each completion lands exactly on the
    # next arrival; processing completions first means nobody ever waits
    # and every customer opens its own busy period.
    trace = run_simulation(det_config(1.0, 1.0, 4))
    assert trace.waits().tolist() == [0.0, 0.0, 0.0, 0.0]
    assert trace.num_periods == 4
    # Overloaded (service 2.0): customer 5 arrives at t=4 exactly when the
    # second service ends, so the last-come rule picks customer 4, who is
    # already waiting; customer 5 only joins the queue afterwards.
    trace = run_simulation(det_config(1.0, 2.0, 5, discipline="lcfs"))
    assert trace.waits().tolist() == [0.0, 1.0, 6.0, 1.0, 2.0]


def test_determinism_bitwise():
    cfg = mm1(0.5, 20_000, seed=7, discipline="random")
    t1 = run_simulation(cfg)
    t2 = run_simulation(cfg)
    assert np.array_equal(t1.arrivals, t2.arrivals)
    assert np.array_equal(t1.service_starts, t2.service_starts)
    assert np.array_equal(t1.departures, t2.departures)
    assert np.array_equal(t1.period_starts, t2.period_starts)


def test_position_coupling_shares_slots_across_disciplines():
    traces = {
        d: run_simulation(mm1(0.8, 20_000, seed=3, discipline=d))
        for d in ("fcfs", "lcfs", "random")
    }
    base = traces["fcfs"]
    for other in (traces["lcfs"], traces["random"]):
        assert np.array_equal(base.arrivals, other.arrivals)
        assert np.array_equal(base.period_starts, other.period_starts)
        assert np.array_equal(
            np.sort(base.service_starts), np.sort(other.service_starts)
        )
        assert np.array_equal(np.sort(base.departures), np.sort(other.departures))


def test_extracted_orders_match_disciplines():
    for d, expect in (("fcfs", fcfs_permutation), ("lcfs", lcfs_permutation)):
        trace = run_simulation(mm1(0.8, 10_000, seed=5, discipline=d))
        pairs = extract_busy_periods(trace)
        assert sum(bp.n for bp, _ in pairs) == trace.n
        assert any(bp.n >= 3 for bp, _ in pairs)
        for bp, perm in pairs:
            assert perm == expect(bp)


def test_per_period_wait_sums_match_direct_sums():
    trace = run_simulation(mm1(0.8, 5_000, seed=2, discipline="lcfs"))
    sums = per_period_wait_sums(trace)
    assert len(sums) == trace.num_periods
    waits = trace.waits()
    bounds = trace.period_starts.tolist() + [trace.n]
    for lo, hi, s in zip(bounds, bounds[1:], sums):
        assert s == pytest.approx(math.fsum(waits[lo:hi]), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random"])
def test_per_period_wait_sums_by_blocks_equal_one_sort(monkeypatch, discipline, block):
    trace = run_simulation(mm1(0.9, 3_000, seed=4, discipline=discipline))
    whole = np.add.reduceat(
        np.sort(trace.service_starts) - trace.arrivals, trace.period_starts
    )
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    assert per_period_wait_sums(trace).tobytes() == whole.tobytes()
    # The constructor stores each period's starts sorted, as the simulator does.
    rebuilt = SimTrace(trace.arrivals, trace.service_starts, trace.departures, trace.period_starts)
    assert per_period_wait_sums(rebuilt).tobytes() == whole.tobytes()


def test_per_period_wait_sums_identical_across_disciplines():
    sums = [
        per_period_wait_sums(run_simulation(mm1(0.8, 20_000, seed=9, discipline=d)))
        for d in ("fcfs", "lcfs", "random")
    ]
    assert np.array_equal(sums[0], sums[1])
    assert np.array_equal(sums[0], sums[2])


def test_per_period_wait_sums_keep_each_period_apart():
    # A second period opening at t=2, while the first is in service until
    # t=6, is refused; opening at t=6, as the first ends, each period sums
    # its own waits: 0 + (5 - 1) and 0 + (6.5 - 6).
    with pytest.raises(MalformedTraceError, match="overlaps the previous period"):
        SimTrace([0.0, 1.0, 2.0, 3.0], [0.0, 5.0, 2.0, 3.5], [5.0, 6.0, 3.5, 4.0], [0, 2])
    trace = SimTrace(
        [0.0, 1.0, 6.0, 7.0], [0.0, 5.0, 6.0, 7.5], [5.0, 6.0, 7.5, 8.0], [0, 2]
    )
    assert per_period_wait_sums(trace).tolist() == [4.0, 0.5]


def test_trace_refuses_overlapping_periods(tmp_path):
    # A period's end is its last slot's end, the slots sorted by start:
    # customer 2's slot starts last and ends at 7, after customer 3 arrives.
    arrays = ([0.0, 1.0, 6.5], [0.0, 5.0, 6.5], [5.0, 7.0, 8.0])
    with pytest.raises(MalformedTraceError, match=r"at t=6\.5 overlaps .* ending at t=7\.0"):
        SimTrace(*arrays, [0, 2])
    # Read back, customer 3's zero wait opens the overlapping period.
    path = tmp_path / "overlap.jsonl"
    path.write_text(
        "".join(
            json.dumps({"customer": c, "arrival": a, "service_start": s, "departure": d}) + "\n"
            for c, (a, s, d) in enumerate(zip(*arrays), start=1)
        )
    )
    with pytest.raises(MalformedTraceError, match="overlaps"):
        read_trace_jsonl(path)
    # A period opening as the previous one ends does not overlap it.
    trace = SimTrace([0.0, 1.0, 7.0], [0.0, 5.0, 7.0], [5.0, 7.0, 8.0], [0, 2])
    assert trace.num_periods == 2


def test_unstable_config_still_terminates():
    cfg = mm1(1.5, 2_000, seed=1)
    assert not cfg.is_stable
    trace = run_simulation(cfg)
    assert trace.n == 2_000
    # queue explodes: late waits dwarf early ones
    w = trace.waits()
    assert w[-100:].mean() > 10 * max(w[:100].mean(), 1e-9)


def test_trace_jsonl_round_trip(tmp_path):
    # In the D/D/1 run customers arrive as slots open; they wait for a later
    # slot, so only the period heads start at their arrival.
    for cfg in (
        mm1(0.8, 500, seed=13, discipline="lcfs"),
        replace(GOLDEN_RUNS["dd1-overload"], discipline="lcfs"),
    ):
        trace = run_simulation(cfg)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        again = read_trace_jsonl(path)
        assert np.array_equal(trace.arrivals, again.arrivals)
        assert np.array_equal(trace.service_starts, again.service_starts)
        assert np.array_equal(trace.departures, again.departures)
        assert np.array_equal(trace.period_starts, again.period_starts)
        assert pair_tuples(extract_busy_periods(again)) == pair_tuples(
            extract_busy_periods(trace)
        )


def test_trace_jsonl_shape(tmp_path):
    trace = run_simulation(det_config(2.0, 1.0, 2))
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "customer": 1,
        "arrival": 0.0,
        "service_start": 0.0,
        "departure": 1.0,
    }


def test_read_trace_rejects_garbage(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("not json\n")
    with pytest.raises(MalformedInputError):
        read_trace_jsonl(p)
    p.write_text('{"customer": 2, "arrival": 0, "service_start": 0, "departure": 1}\n')
    with pytest.raises(MalformedInputError):
        read_trace_jsonl(p)
    p.write_text('{"customer": 1, "arrival": 0.5, "service_start": 0, "departure": 1}\n')
    with pytest.raises(MalformedInputError):
        read_trace_jsonl(p)
    p.write_text("")
    with pytest.raises(MalformedInputError):
        read_trace_jsonl(p)
    # json.loads accepts each of these; none is a customer number or a time.
    good = {"customer": 1, "arrival": 0, "service_start": 0, "departure": 1}
    for key, value in (
        ("customer", "true"),
        ("customer", "1.0"),
        ("arrival", '"0"'),
        ("departure", '"1.5"'),
        ("departure", "Infinity"),
        ("departure", "-Infinity"),
        ("departure", "NaN"),
        ("departure", "false"),
        ("departure", "1" + "0" * 400),
        ("departure", "1" + "0" * 5000),  # past the interpreter's digit limit
    ):
        fields = ", ".join(
            f'"{k}": {value if k == key else json.dumps(v)}' for k, v in good.items()
        )
        p.write_text("{" + fields + "}\n")
        with pytest.raises(MalformedInputError):
            read_trace_jsonl(p)
    # Not UTF-8, and nested past the recursion limit.
    for raw in (b'{"customer": 1, "arr\xe9val": 0}', b"[" * 200_000 + b"]" * 200_000):
        p.write_bytes(raw + b"\n")
        with pytest.raises(MalformedInputError):
            read_trace_jsonl(p)
    p.write_text(json.dumps(good) + "\n")
    assert read_trace_jsonl(p).n == 1


def test_extract_detects_idle_inside_period():
    trace = run_simulation(det_config(1.0, 1.5, 3))
    starts = trace.service_starts.copy()
    starts[1] += 0.25  # server now idles between the first two services
    tampered = SimTrace(
        arrivals=trace.arrivals.copy(),
        service_starts=starts,
        departures=trace.departures.copy(),
        period_starts=trace.period_starts.copy(),
    )
    with pytest.raises(MalformedTraceError):
        extract_busy_periods(tampered)


def test_config_validation():
    with pytest.raises(InvalidRateError):
        SimConfig(arrival_rate=0.0, service_rate=1.0, num_arrivals=1, seed=0)
    with pytest.raises(InvalidRateError):
        SimConfig(arrival_rate=0.5, service_rate=-1.0, num_arrivals=1, seed=0)
    for n in (0, True, 1.0, np.int64(0)):
        with pytest.raises(ConfigError):
            SimConfig(arrival_rate=0.5, service_rate=1.0, num_arrivals=n, seed=0)
    # numpy integers are counts like any other, and are stored as int
    cfg = SimConfig(arrival_rate=0.5, service_rate=1.0, num_arrivals=np.int64(5), seed=0)
    assert type(cfg.num_arrivals) is int and run_simulation(cfg).n == 5
    # the seed rule is make_streams' rule: no bools, unsigned 64-bit range
    for seed in (-1, True, 2**64, np.int64(-1), 1.0):
        with pytest.raises(ConfigError):
            SimConfig(arrival_rate=0.5, service_rate=1.0, num_arrivals=1, seed=seed)
    with pytest.raises(ConfigError, match="unknown discipline 'sjf'; choose from"):
        SimConfig(
            arrival_rate=0.5, service_rate=1.0, num_arrivals=1, seed=0,
            discipline="sjf",
        )
    with pytest.raises(ConfigError):
        # explicit uniform bounds whose mean contradicts the declared rate
        SimConfig(
            arrival_rate=0.5, service_rate=1.0, num_arrivals=1, seed=0,
            service_dist="uniform:1.5,2.5",
        )
    for shape in (Distribution.deterministic(1.0), None, 1.0):
        # a shape is a word, not a distribution object
        with pytest.raises(ConfigError, match="must be a str"):
            SimConfig(
                arrival_rate=0.5, service_rate=1.0, num_arrivals=1, seed=0,
                service_dist=shape,
            )


# Rates whose times pass the float range: the last slot end overflows.
OVERFLOWING_RATES = [
    (1e-320, 1.0, "exponential", "exponential"),
    (1.0, 1e-320, "exponential", "exponential"),
    (1e-308, 1.0, "deterministic", "exponential"),
    (1.0, 1e-308, "exponential", "deterministic"),
]


# numpy warns of the overflow before the refusal.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("arrival_rate, service_rate, arrival, service", OVERFLOWING_RATES)
def test_time_scale_past_the_float_range_is_refused(
    arrival_rate, service_rate, arrival, service
):
    cfg = SimConfig(arrival_rate, service_rate, 5, 1, arrival_dist=arrival, service_dist=service)
    message = (
        f"arrival rate {arrival_rate!r} and service rate {service_rate!r} "
        "give times beyond the float range"
    )
    for d in ("fcfs", "lcfs", "random"):
        with pytest.raises(ConfigError, match=message):
            run_simulation(replace(cfg, discipline=d))
    assert cfg not in simulate._drawn


@pytest.mark.parametrize(
    "arrival_rate, service_rate, arrival, service",
    [(1e-320, 1.0, "deterministic", "exponential"), (1.0, 1e-320, "exponential", "deterministic")],
)
def test_deterministic_mean_past_the_float_range_is_refused(
    arrival_rate, service_rate, arrival, service
):
    with pytest.raises(ConfigError, match="deterministic value must be positive finite, got inf"):
        SimConfig(arrival_rate, service_rate, 5, 1, arrival_dist=arrival, service_dist=service)


def test_numpy_integer_seeds():
    cfg = mm1(0.5, 50, seed=np.int64(1))
    assert type(cfg.seed) is int and cfg == mm1(0.5, 50, seed=1)
    assert trace_digest(run_simulation(cfg)) == trace_digest(
        run_simulation(mm1(0.5, 50, seed=1))
    )
    assert mm1(0.5, 5, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


@pytest.mark.parametrize("shape", ["deterministic", "uniform"])
def test_replace_rescales_shape(shape):
    cfg = SimConfig(0.5, 1.0, 1_000, 3, arrival_dist=shape, service_dist=shape)
    fast = replace(cfg, service_rate=2.0)
    assert fast.service_dist == shape
    assert fast.distributions()[1].mean == 0.5
    assert fast.distributions()[0] == cfg.distributions()[0]
    assert run_simulation(fast).service_times().mean() < 0.6


def test_replace_contradicting_uniform_bounds_refused():
    cfg = SimConfig(0.5, 1.0, 10, 3, service_dist="uniform:0.5,1.5")
    assert replace(cfg, arrival_rate=0.25).service_dist == "uniform:0.5,1.5"
    with pytest.raises(ConfigError, match="requires mean 0.5"):
        replace(cfg, service_rate=2.0)


def test_config_fills_exponential_defaults():
    cfg = SimConfig(arrival_rate=0.5, service_rate=1.0, num_arrivals=10, seed=0)
    assert (cfg.arrival_dist, cfg.service_dist) == ("exponential", "exponential")
    assert cfg.distributions() == (
        Distribution.exponential(0.5),
        Distribution.exponential(1.0),
    )
    assert cfg.utilization == 0.5
    assert cfg.is_stable


def test_trace_arrays_read_only():
    trace = run_simulation(det_config(2.0, 1.0, 2))
    with pytest.raises(ValueError):
        trace.arrivals[0] = 5.0


# Traces pinned across versions: sha256 over the four trace arrays (float64
# and int64, little-endian, in field order).  Only deterministic and uniform
# variates, which involve no transcendental functions, so the digests do not
# depend on the CPU or the libm.
GOLDEN_RUNS = {
    "dd1-overload": det_config(1.0, 2.0, 12),
    "uniform-rho90": SimConfig(
        arrival_rate=0.9,
        service_rate=1.0,
        num_arrivals=5000,
        seed=3,
        arrival_dist="uniform",
        service_dist="uniform:0.5,1.5",
    ),
    "det-uniform-rho100": SimConfig(
        arrival_rate=1.0,
        service_rate=1.0,
        num_arrivals=2000,
        seed=4,
        arrival_dist="deterministic",
        service_dist="uniform",
    ),
}

GOLDEN_DIGESTS = {
    ("dd1-overload", "fcfs"): "0db295e7cc4eae0bda26dcf138048471413186626b627c6d275ed1595bfbd445",
    ("dd1-overload", "lcfs"): "a3b5f20e6ccb23dec5d1a50de79143391f744ca52b5c51a81622ea82a066c01f",
    ("dd1-overload", "random"): "d6682861be83c067c4495291069f741452eb34ba37b914d3987a170d99848e45",
    ("uniform-rho90", "fcfs"): "989c0ac8556cc5f4e79fac6fa22ac93eedf7d6631a6e1a3c7e87c8f27c1840da",
    ("uniform-rho90", "lcfs"): "9d6bebf80bb19ff616b143af5f384dcf24b8f0859c2f47c01e9a59d99140db68",
    ("uniform-rho90", "random"): "171bd95590f488446893abe7684077bb79176a18d518342ccad77fc876c2061d",
    ("det-uniform-rho100", "fcfs"): "97aabd019b5b7c9d5961bc81385fa3aeb1411b216ee4ec4b15b7f34c96c35362",
    ("det-uniform-rho100", "lcfs"): "9f857ac9df12a0159addffd3863573cbba9b431f771e4ee32231b45b26fc61ed",
    ("det-uniform-rho100", "random"): "6ff08cbbc8ff18600663d795a93923a62e21ff89ae0279c6f37d223a19703737",
}


def trace_digest(trace):
    h = hashlib.sha256()
    for name, dtype in (
        ("arrivals", "<f8"),
        ("service_starts", "<f8"),
        ("departures", "<f8"),
        ("period_starts", "<i8"),
    ):
        h.update(np.ascontiguousarray(getattr(trace, name), dtype=dtype).tobytes())
    return h.hexdigest()


# The "-position" in each id names the trajectory model: slot k lasts
# service draw k, the manifests' constant "coupling" entry.
@pytest.mark.parametrize(
    "run, discipline",
    sorted(GOLDEN_DIGESTS),
    ids=[f"{r}-{d}-position" for r, d in sorted(GOLDEN_DIGESTS)],
)
def test_golden_trace_digests(run, discipline):
    cfg = replace(GOLDEN_RUNS[run], discipline=discipline)
    assert trace_digest(run_simulation(cfg)) == GOLDEN_DIGESTS[run, discipline]


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_first_come_trace_is_the_trajectory(run):
    configs = [replace(GOLDEN_RUNS[run], discipline=d) for d in ("fcfs", "lcfs", "random")]
    # With no first-come trace alive, each run draws its own trajectory.
    assert configs[0] not in simulate._drawn
    fresh = {cfg.discipline.value: trace_digest(run_simulation(cfg)) for cfg in configs}
    assert fresh == {d: GOLDEN_DIGESTS[run, d] for d in fresh}
    fcfs = run_simulation(configs[0])
    assert simulate._drawn[configs[0]] is fcfs
    assert run_simulation(fcfs.config) is fcfs
    for cfg in configs:
        # Any discipline's config, set to first come, gives the held trace.
        trajectory = run_simulation(replace(cfg, discipline="fcfs"))
        assert trajectory is fcfs
        assert trajectory.config == replace(cfg, discipline="fcfs")
        assert trace_digest(trajectory) == fresh["fcfs"]
        # Runs on the held first-come trace equal fresh runs.
        trace = run_simulation(cfg)
        assert trace.arrivals is fcfs.arrivals
        assert trace_digest(trace) == fresh[cfg.discipline.value]


# Per run: the periods the exact oracle checked, of all its periods.
ORACLE_REACH = {
    "dd1-overload": (1, 1),
    "uniform-rho90": (1143, 1143),
    "det-uniform-rho100": (35, 35),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_golden_runs_pass_the_audit(run):
    # Every discipline's trace extracts to the same periods (ties included:
    # dd1-overload has an arrival at each slot instant); first-come and
    # last-come give the closed-form orders, and the exact oracle confirms
    # both extremes on every period, however long.
    extracted = {
        d: extract_busy_periods(run_simulation(replace(GOLDEN_RUNS[run], discipline=d)))
        for d in ("fcfs", "lcfs", "random")
    }
    checked = 0
    for (bp, first), (bp_last, last), (bp_random, _) in zip(*extracted.values()):
        assert bp == bp_last == bp_random
        assert first == fcfs_permutation(bp)
        assert last == lcfs_permutation(bp)
        check_extremality(bp)
        checked += 1
    assert (checked, len(extracted["fcfs"])) == ORACLE_REACH[run]


def test_oracle_census_of_every_period():
    # Every period of a rho=0.9 run goes through the exact oracle, however
    # long; the minimizer it proves is the order the lcfs run served.
    cfg = SimConfig(0.9, 1.0, 20000, 1, discipline="lcfs")
    sizes = []
    for bp, last in extract_busy_periods(run_simulation(cfg)):
        assert check_extremality(bp).argmin == last.mapping
        sizes.append(bp.n)
    assert (len(sizes), sum(n > 10 for n in sizes), max(sizes)) == (1476, 225, 1115)


def hand_trace(arrivals, starts, departures, period_starts=(0,)):
    return SimTrace(
        arrivals=np.array(arrivals, dtype=float),
        service_starts=np.array(starts, dtype=float),
        departures=np.array(departures, dtype=float),
        period_starts=np.array(period_starts),
    )


# One hand-built trace per way extraction can fail, in the order the checks
# apply within a period; each trace is (arrivals, service starts,
# departures[, period starts]).  The constructor refuses the overlap before
# extraction sees it.
TAMPERED = {
    "overlap": (([0, 1], [0, 1], [2, 3], [0, 1]), MalformedTraceError, "overlaps"),
    "first-slot": (([0, 1], [0.5, 2], [2, 3]), MalformedTraceError, "does not coincide"),
    "idle": (([0, 1], [0, 2.5], [2, 3.5]), MalformedTraceError, "idled"),
    "non-finite": (([0, math.nan], [0, 2], [2, 3]), ValidationError, "non-finite"),
    "not-sorted": (([0, 1.5, 1], [0, 2, 3], [2, 3, 4]), NotSortedError, "arrivals"),
    "infeasible": (([0, 1, 3.5], [0, 2, 3], [2, 3, 4]), InfeasibleError, "arrival 3"),
    "unrealizable": (
        ([0, 1, 2], [0, 2.5, 1.5], [1.5, 3.5, 2.5]),
        MalformedTraceError,
        r"no later than it arrives under the recorded order \(1, 3, 2\)",
    ),
    # Customer 3 arrives as slot 2 opens and is recorded in that slot.
    "served-at-arrival-tie": (
        ([0, 1, 2], [0, 3, 2], [2, 4, 3]),
        MalformedTraceError,
        r"no later than it arrives under the recorded order \(1, 3, 2\)",
    ),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_extract_rejects_tampered_trace(case):
    arrays, cls, match = TAMPERED[case]
    with pytest.raises(cls, match=match) as info:
        extract_busy_periods(hand_trace(*arrays))
    assert type(info.value) is cls


def test_extract_accepts_an_arrival_at_a_slot_instant():
    # Customer 3 arrives as slot 2 opens; the slot opens first and serves
    # customer 2.
    ((bp, perm),) = extract_busy_periods(hand_trace([0, 1, 2], [0, 2, 3], [2, 3, 4]))
    assert bp == validate_busy_period([0, 1, 2], [0, 2, 3])
    assert perm.is_identity()


def test_extract_first_offending_period_raises():
    # Period 2 is unrealizable, the last check; period 3's first slot does
    # not coincide with its opening arrival, an earlier check.  Period order
    # decides.
    trace = hand_trace(
        [0, 10, 11, 12, 13.5],
        [0, 10, 12.5, 11.5, 14],
        [1, 11.5, 13.5, 12.5, 15],
        [0, 1, 4],
    )
    with pytest.raises(MalformedTraceError, match="no later than it arrives"):
        extract_busy_periods(trace)


@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("rate", [0.5, 0.95, 1.3])
def test_constructor_ranks_equal_the_simulators(monkeypatch, rate, block):
    # The constructor sorts each period's starts into its slots, as a
    # read-back trace is built; on a simulated trace it recovers the slot
    # offsets the simulator assigned and every per-customer array, bitwise.
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(simulate, "_TUPLE_BLOCK", block)
    fcfs = run_simulation(mm1(rate, 2_000, seed=5))
    for d in ("fcfs", "lcfs", "random"):
        trace = run_simulation(replace(fcfs.config, discipline=d))
        assert trace.slot_starts is fcfs.slot_starts and trace.slot_ends is fcfs.slot_ends
        rebuilt = SimTrace(
            trace.arrivals, trace.service_starts, trace.departures, trace.period_starts
        )
        if d == "fcfs":
            assert trace.offsets is rebuilt.offsets is None
        else:
            assert rebuilt.offsets.dtype == trace.offsets.dtype == np.int16, d
            assert np.array_equal(rebuilt.offsets, trace.offsets), d
            assert not rebuilt.offsets.flags.writeable and not trace.offsets.flags.writeable
        for name in ("slot_starts", "slot_ends", "service_starts", "departures", "queue"):
            got, want = getattr(rebuilt, name), getattr(trace, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (d, name)
            assert not got.flags.writeable, (d, name)
        assert rebuilt.waits().tobytes() == trace.waits().tobytes(), d
        assert trace_digest(rebuilt) == trace_digest(trace), d


@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("rate", [0.5, 0.95, 1.3])
def test_offsets_map_each_period_onto_its_slots(monkeypatch, rate, block):
    # Customer c takes slot c + offsets[c]: a bijection on its period's
    # slots, at the rank of its own start among them, found independently.
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(simulate, "_TUPLE_BLOCK", block)
    fcfs = run_simulation(mm1(rate, 2_000, seed=5))
    bounds = fcfs.period_starts.tolist() + [fcfs.n]
    for d in ("lcfs", "random"):
        trace = run_simulation(replace(fcfs.config, discipline=d))
        slots = np.arange(trace.n) + trace.offsets
        starts = trace.service_starts
        for lo, hi in zip(bounds, bounds[1:]):
            assert sorted(slots[lo:hi].tolist()) == list(range(lo, hi)), (d, lo)
            s = starts[lo:hi]
            ranks = np.searchsorted(np.sort(s), s) + 1
            assert np.array_equal(slots[lo:hi], lo + ranks - 1), (d, lo)


def test_trace_rejects_bad_period_starts():
    # Extraction slices the trace at these indices, so an empty or
    # out-of-range period must not get that far.
    for heads in ([0, 2, 1], [0, 2, 2], [0, 4]):
        with pytest.raises(MalformedTraceError, match="period starts"):
            hand_trace([0, 1, 2, 3], [0, 1, 2, 3], [0.5, 1.5, 2.5, 3.5], heads)


@pytest.mark.parametrize(
    "heads, named",
    [([0, 2.9], "2.9"), (["0", "2"], "'0'"), ([True, 2], "True")],
    ids=["float", "string", "bool"],
)
def test_trace_refuses_heads_that_are_not_integers(heads, named):
    # Not truncated to [0, 2], nor read as 1: each names the value refused.
    with pytest.raises(MalformedTraceError, match=f"integer customer indices, got {named}"):
        SimTrace([0.0, 1.0, 5.0], [0.0, 2.0, 5.0], [2.0, 3.0, 6.0], heads)


def test_trace_takes_heads_of_any_integer_type():
    for heads in ([0, 2], [np.int32(0), np.int64(2)], np.array([0, 2], dtype=np.uint8)):
        trace = SimTrace([0.0, 1.0, 5.0], [0.0, 2.0, 5.0], [2.0, 3.0, 6.0], heads)
        assert trace.period_starts.dtype == np.int64
        assert trace.period_starts.tolist() == [0, 2]


@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=30),
    size=st.sampled_from([1, 3, 7]),
    long_at=st.integers(0, 29),
)
@settings(max_examples=200, deadline=None)
def test_period_blocks_cover_each_period_once(sizes, size, long_at):
    sizes = list(sizes)
    sizes[long_at % len(sizes)] = size + 1  # a period longer than the block
    bounds = np.cumsum([0] + sizes)
    blocks = list(simulate._period_blocks(bounds, size))
    assert [p for p, _, _, _ in blocks] == [0] + [q for _, q, _, _ in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == len(sizes)
    for p, q, lo, hi in blocks:
        assert p < q
        assert type(lo) is int and type(hi) is int
        assert (lo, hi) == (bounds[p], bounds[q])
        assert hi - lo <= size or q == p + 1


def pair_tuples(periods):
    return [(bp.arrivals, bp.service_starts, perm.mapping) for bp, perm in periods]


def test_extract_blocks_do_not_change_the_result(monkeypatch):
    trace = run_simulation(mm1(0.9, 3_000, seed=4, discipline="lcfs"))
    whole = pair_tuples(extract_busy_periods(trace))
    assert max(len(a) for a, _, _ in whole) > 5
    for block in (1, 3, 7):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(simulate, "_TUPLE_BLOCK", block)
        assert pair_tuples(extract_busy_periods(trace)) == whole


@pytest.mark.parametrize("block", [1, 3, 7, None])
@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random"])
def test_extracted_slots_are_each_periods_sorted_starts(monkeypatch, discipline, block):
    trace = run_simulation(mm1(0.9, 3_000, seed=4, discipline=discipline))
    bounds = trace.period_starts.tolist() + [trace.n]
    expected = []
    for lo, hi in zip(bounds, bounds[1:]):
        a, s = trace.arrivals[lo:hi], trace.service_starts[lo:hi]
        slots = np.sort(s)
        ranks = np.searchsorted(slots, s) + 1
        expected.append((tuple(a.tolist()), tuple(slots.tolist()), tuple(ranks.tolist())))
    assert max(len(a) for a, _, _ in expected) > 7
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(simulate, "_TUPLE_BLOCK", block)
    view = extract_busy_periods(trace)
    assert pair_tuples(view) == expected
    last = len(expected) - 1
    for k in (0, 1, last, -1, -last - 1):
        assert pair_tuples([view[k]]) == [expected[k]]
    for cut in (slice(2, 9), slice(-6, None), slice(None, None, -3)):
        assert pair_tuples(view[cut]) == expected[cut]


def joined_trace(parts):
    """One trace of the given traces in turn, each moved to start one time
    unit after the previous one ends.  On integer times the moves are exact."""
    arrivals, starts, deps, heads = [], [], [], []
    offset = 0.0
    n = 0
    for t in parts:
        arrivals.append(t.arrivals + offset)
        starts.append(t.service_starts + offset)
        deps.append(t.departures + offset)
        heads.append(t.period_starts + n)
        offset = deps[-1].max() + 1.0
        n += t.n
    return hand_trace(*map(np.concatenate, (arrivals, starts, deps, heads)))


@pytest.mark.parametrize("longest, dtype", [((1 << 15) - 1, np.int16), (1 << 15, np.int32)])
def test_ranks_are_int16_below_two_to_the_fifteen(longest, dtype):
    # Deterministic runs on integer times: one-customer periods, and last
    # come first on overloaded stretches, one period each.
    parts = [
        run_simulation(det_config(1.0, 2.0, 5, "lcfs")),
        run_simulation(det_config(2.0, 1.0, 4)),
        run_simulation(det_config(1.0, 2.0, longest, "lcfs")),
        run_simulation(det_config(1.0, 2.0, 7, "lcfs")),
        run_simulation(det_config(2.0, 1.0, 3)),
    ]
    trace = joined_trace(parts)
    bounds = trace.period_starts.tolist() + [trace.n]
    expected = []
    for lo, hi in zip(bounds, bounds[1:]):
        a, s = trace.arrivals[lo:hi], trace.service_starts[lo:hi]
        slots = np.sort(s)
        ranks = np.searchsorted(slots, s) + 1
        expected.append((tuple(a.tolist()), tuple(slots.tolist()), tuple(ranks.tolist())))
    assert [len(a) for a, _, _ in expected] == [5, 1, 1, 1, 1, longest, 7, 1, 1, 1]
    view = extract_busy_periods(trace)
    assert view.offsets is trace.offsets
    assert view.offsets.dtype == dtype
    assert pair_tuples(view) == expected
    assert pair_tuples([view[5], view[-1]]) == [expected[5], expected[-1]]
    assert pair_tuples(view[::-3]) == expected[::-3]


def test_extract_overlap_found_across_blocks(monkeypatch):
    # Ten one-customer periods; customer 5 is still in service when 6 arrives.
    # The constructor refuses that trace, so it is built as the simulator
    # builds its own, and extraction still finds the overlap.
    trace = run_simulation(det_config(2.0, 1.0, 10))
    deps = trace.departures.copy()
    deps[4] = trace.arrivals[5] + 0.5
    with pytest.raises(MalformedTraceError, match="overlaps"):
        hand_trace(trace.arrivals, trace.service_starts, deps, trace.period_starts)
    tampered = SimTrace._trusted(
        trace.arrivals, trace.slot_starts, deps, None, trace.period_starts, None
    )
    for block in (1, 2, 5, 10):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        with pytest.raises(MalformedTraceError, match="overlaps"):
            extract_busy_periods(tampered)


def test_first_come_view_yields_arrival_order():
    # A first-come view reads no ranks: every pair holds arrival order, by
    # iteration and by index, the shared instance below 64 customers.
    view = extract_busy_periods(run_simulation(mm1(0.95, 20_000, seed=3)))
    assert view.offsets is None
    sizes = []
    for k, (bp, perm) in enumerate(view):
        assert perm == fcfs_permutation(bp), k
        assert (perm is fcfs_permutation(bp)) == (bp.n < 64), k
        assert view[k][1] == perm, k
        sizes.append(bp.n)
    assert min(sizes) == 1 and max(sizes) >= 64


def test_extract_view_is_a_sequence():
    periods = extract_busy_periods(run_simulation(mm1(0.8, 2_000, seed=6, discipline="lcfs")))
    pairs = list(periods)
    assert len(periods) == len(pairs) > 3
    assert periods[-1] == pairs[-1]
    assert periods[-len(pairs)] == periods[0] == pairs[0]
    assert periods[1:4] == pairs[1:4]
    assert periods[::-2] == pairs[::-2]
    assert list(periods) == pairs
    for index in (len(pairs), -len(pairs) - 1):
        with pytest.raises(IndexError):
            periods[index]
    ((bp, perm),) = extract_busy_periods(run_simulation(det_config(1.0, 1.5, 3)))
    assert bp.n == 3 and perm.is_identity()


@pytest.mark.parametrize(
    "discipline", ["fcfs", "lcfs", "random"], ids=lambda d: f"{d}-position"
)
def test_extracted_pairs_pass_public_constructors(discipline):
    for cfg in (
        mm1(0.9, 3_000, seed=8, discipline=discipline),
        # completions tie the next arrival: every customer opens a period
        det_config(1.0, 1.0, 20, discipline=discipline),
    ):
        for bp, perm in extract_busy_periods(run_simulation(cfg)):
            assert validate_busy_period(bp.arrivals, bp.service_starts) == bp
            assert Permutation(perm.mapping) == perm
            assert is_realizable(bp, perm)


# Each way of reading a period; every pass over a view hands out new
# periods, so each read below is a first-come period's first.
PERIOD_READS = {
    "size": lambda bp: bp.n,
    "hash": hash,
    "repr": repr,
    "to_dict": lambda bp: bp.to_dict(),
    "pickle": lambda bp: pickle.loads(pickle.dumps(bp)),
    "replace": replace,
    "replace-field": lambda bp: replace(bp, service_starts=bp.service_starts),
}


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs"])
@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_extracted_periods_are_their_values(run, discipline):
    # A first-come view's periods read their times on first use, a
    # last-come view's get them whole; either way each is the period that
    # validate_busy_period makes of its times, whatever reads it first.
    view = extract_busy_periods(run_simulation(replace(GOLDEN_RUNS[run], discipline=discipline)))
    wanted = [validate_busy_period(bp.arrivals, bp.service_starts) for bp, _ in view]
    assert [bp == want for (bp, _), want in zip(view, wanted)] == [True] * len(view)
    assert [want == bp for (bp, _), want in zip(view, wanted)] == [True] * len(view)
    for name, read in PERIOD_READS.items():
        got = [read(bp) for bp, _ in view]
        assert got == [read(want) for want in wanted], name
        if name not in ("size", "hash", "repr", "to_dict"):
            assert {type(bp) for bp in got} == {BusyPeriod}, name
    for p in (0, -1):
        bp = view[p][0]
        assert (bp.arrivals, bp.service_starts, bp.n) == (
            wanted[p].arrivals,
            wanted[p].service_starts,
            wanted[p].n,
        )
        with pytest.raises(FrozenInstanceError):
            bp.arrivals = wanted[p].arrivals
        assert not hasattr(bp, "__dict__")


def test_extract_checks_a_shared_trajectory_once(monkeypatch):
    # The trajectory is checked for the first trace holding it; the
    # config's other traces, holding the very same arrays, get only their
    # offsets checked, and give the views a full check gives.
    swept = []
    check_block = simulate._check_block
    monkeypatch.setattr(
        simulate, "_check_block", lambda *args: swept.append(1) or check_block(*args)
    )
    cfg = mm1(0.95, 20_000, seed=13)
    traces = [run_simulation(replace(cfg, discipline=d)) for d in ("fcfs", "lcfs", "random")]
    lcfs = extract_busy_periods(traces[1])
    views = [extract_busy_periods(traces[0]), lcfs, extract_busy_periods(traces[2])]
    assert len(swept) == 1
    for trace, view in zip(traces, views):
        untrusted = SimTrace._trusted(
            trace.arrivals, trace.slot_starts, trace.slot_ends, trace.offsets,
            trace.period_starts, None,
        )
        assert list(extract_busy_periods(untrusted)) == list(view)
    assert len(swept) == 4
    # Nothing is kept for it once the traces and views are gone.
    arrivals = weakref.ref(traces[0].arrivals)
    del traces, views, lcfs, trace, view, untrusted
    gc.collect()
    assert arrivals() is None
    assert not [t for t in simulate._checked if t.config == cfg]


@pytest.mark.parametrize("block", [1, 3, None])
def test_extract_refuses_a_bad_order_on_a_checked_trajectory(monkeypatch, block):
    # Offsets that serve a customer before it arrives are refused with the
    # full check's error, in period order, on a trajectory already checked;
    # a trace whose own trajectory arrays differ gets the full check.
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    fcfs = run_simulation(mm1(0.95, 300, seed=2))
    extract_busy_periods(fcfs)
    heads = fcfs.period_starts.tolist() + [fcfs.n]
    pairs = [h for h, nxt in zip(heads, heads[1:]) if nxt - h >= 2][1:3]
    offsets = np.zeros(fcfs.n, dtype=np.int16)
    for h in pairs:  # the second customer takes the head's slot
        offsets[h : h + 2] = (1, -1)
    cfg = replace(fcfs.config, discipline="lcfs")
    arrays = (fcfs.arrivals, fcfs.slot_starts, fcfs.slot_ends)
    errors = []
    for config in (cfg, None):
        trace = SimTrace._trusted(*arrays, offsets, fcfs.period_starts, config)
        with pytest.raises(MalformedTraceError, match="no later than it arrives") as info:
            extract_busy_periods(trace)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert f"opening at t={fcfs.arrivals[pairs[0]]!r} " in errors[0]
    ends = fcfs.slot_ends.copy()
    ends[heads[-2] - 1] += 1e9  # the last period opens while the one before is busy
    overlapping = SimTrace._trusted(
        fcfs.arrivals, fcfs.slot_starts, ends, None, fcfs.period_starts, cfg
    )
    with pytest.raises(MalformedTraceError, match="overlaps"):
        extract_busy_periods(overlapping)


def slot_loop_reference(cfg, found=None):
    """Every discipline as one loop over service slots: slot k opens at the
    previous completion after every arrival strictly before it has joined
    the waiting list, or at the next arrival when nobody waits, and lasts
    service draw k.  Appends to ``found``, if given, the waiters each slot
    finds, its own customer included."""
    arrival_rng, service_rng, decision_rng = make_streams(cfg.seed)
    arrival, service = cfg.distributions()
    n = cfg.num_arrivals
    arrivals = np.zeros(n)
    if n > 1:
        np.cumsum(draw_variates(arrival, arrival_rng, n - 1), out=arrivals[1:])
    durations = draw_variates(service, service_rng, n).tolist()
    decisions = decision_rng.random(n).tolist()
    arr = arrivals.tolist() + [math.inf]
    starts, departures, heads, waiting = [0.0] * n, [0.0] * n, [], []
    t, nxt = -math.inf, 0
    for k in range(n):
        while arr[nxt] < t:
            waiting.append(nxt)
            nxt += 1
        if found is not None:
            found.append(len(waiting) or 1)
        if not waiting:
            cust = nxt
            nxt += 1
            heads.append(cust)
            t = arr[cust]
        elif cfg.discipline == "fcfs":
            cust = waiting.pop(0)
        elif cfg.discipline == "lcfs":
            cust = waiting.pop()
        else:
            pick = int(decisions[k] * len(waiting))
            waiting[pick], waiting[-1] = waiting[-1], waiting[pick]
            cust = waiting.pop()
        starts[cust] = t
        t = t + durations[k]
        departures[cust] = t
    return SimTrace(arrivals, np.array(starts), np.array(departures), np.array(heads))


KINDS = ("exponential", "uniform", "deterministic")


# Means of 0.5, 1 and 2 make deterministic runs tie completions with
# arrivals exactly, at loads below, at and above 1.
@pytest.mark.parametrize("block", [None, 7])
@given(
    n=st.integers(1, 80),
    arrival=st.sampled_from(KINDS),
    service=st.sampled_from(KINDS),
    gap=st.sampled_from([0.5, 1.0, 2.0]),
    service_mean=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_traces_equal_slot_loop(
    monkeypatch, block, n, arrival, service, gap, service_mean, seed
):
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    cfg = SimConfig(
        arrival_rate=1 / gap,
        service_rate=1 / service_mean,
        num_arrivals=n,
        seed=seed,
        arrival_dist=arrival,
        service_dist=service,
    )
    # Random order twice: each run replays the decision stream from its start.
    loops = []
    for d in ("fcfs", "random", "lcfs", "random"):
        one, found = replace(cfg, discipline=d), []
        loops.append((one, trace_digest(slot_loop_reference(one, found)), found))
    # No first-come trace lives yet, so each run draws its own trajectory.
    for one, expected, _ in loops:
        assert trace_digest(run_simulation(one)) == expected, one.discipline
    # Drawn after the patch, the held trace counts its queue in patched blocks.
    held = run_simulation(cfg)
    for one, expected, found in loops:
        trace = run_simulation(one)
        assert trace.arrivals is held.arrivals, one.discipline
        assert trace_digest(trace) == expected, one.discipline
        assert held.queue.tolist() == found, one.discipline


# D/D/1 at rho=1 ties every completion with the next arrival; the slot
# opens first, so no slot finds two customers.
QUEUE_RUNS = {
    "dd1-ties-rho100": det_config(1.0, 1.0, 40),
    "dd1-overload": det_config(1.0, 2.0, 40),
    "mm1-rho90": mm1(0.9, 3_000, seed=5),
    "mm1-rho130": mm1(1.3, 2_000, seed=6),
}


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("run", sorted(QUEUE_RUNS))
def test_queue_equals_slot_loop(monkeypatch, block, run):
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    cfg = QUEUE_RUNS[run]
    found = []
    slot_loop_reference(cfg, found)
    trajectory = run_simulation(cfg)  # first come
    queue = trajectory.queue
    assert queue.dtype == np.int32 and not queue.flags.writeable
    assert queue.tolist() == found
    assert (queue[trajectory.period_starts] == 1).all()
    assert queue.min() >= 1
    if run == "dd1-ties-rho100":
        assert queue.max() == 1


# One period longer than 2**16 customers: at the default block the period
# sums sort sizes on int64 keys and sum the period as a single row.
LONG_PERIOD_RUNS = {
    "dd1-overload": det_config(1.0, 2.0, 70_000),
    "mm1-rho130": mm1(1.3, 70_000, seed=2),
}


@pytest.mark.parametrize("run", sorted(LONG_PERIOD_RUNS))
def test_period_past_sixteen_bits_equals_slot_loop(run):
    cfg = LONG_PERIOD_RUNS[run]
    held = run_simulation(cfg)
    assert held.period_starts.tolist() == [0]
    assert cfg.num_arrivals > simulate._BLOCK == 1 << 16
    for d in ("fcfs", "lcfs", "random"):
        one = replace(cfg, discipline=d)
        found = []
        expected = trace_digest(slot_loop_reference(one, found))
        trace = run_simulation(one)
        assert trace.arrivals is held.arrivals, d
        assert trace_digest(trace) == expected, d
        assert held.queue.tolist() == found, d


def test_queue_is_counted_once_per_trajectory():
    cfg = mm1(0.9, 2_000, seed=3)
    shared = run_simulation(cfg)
    assert run_simulation(cfg) is shared
    assert "queue" not in vars(shared)  # first come first needs no count
    run_simulation(replace(cfg, discipline="lcfs"))
    queue = vars(shared)["queue"]
    run_simulation(replace(cfg, discipline="random"))
    assert vars(shared)["queue"] is queue


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS) + ["mm1-rho130"])
def test_every_trace_counts_the_first_come_queue(tmp_path, run):
    # The count reads only the slots, so it does not depend on who takes them.
    cfg = GOLDEN_RUNS.get(run) or QUEUE_RUNS[run]
    fcfs = run_simulation(cfg)
    copy = replace(fcfs)
    assert copy is not fcfs and trace_digest(copy) == trace_digest(fcfs)
    path = tmp_path / "trace.jsonl"
    for d in ("lcfs", "random"):
        trace = run_simulation(replace(cfg, discipline=d))
        write_trace_jsonl(trace, path)
        for one in (trace, read_trace_jsonl(path)):
            assert one.queue.dtype == fcfs.queue.dtype, d
            assert np.array_equal(one.queue, fcfs.queue), d
            assert not one.queue.flags.writeable, d
    assert np.array_equal(copy.queue, fcfs.queue)


def test_shared_queue_is_read_only():
    cfg = mm1(0.9, 3_000, seed=8)
    others = [replace(cfg, discipline=d) for d in ("lcfs", "random")]
    fresh = [trace_digest(run_simulation(c)) for c in others]
    fcfs = run_simulation(cfg)
    with pytest.raises(ValueError):
        fcfs.queue[:] = 1
    for c, digest in zip(others, fresh):
        trace = run_simulation(c)
        assert trace.arrivals is fcfs.arrivals, c.discipline
        assert trace_digest(trace) == digest, c.discipline


def test_trajectory_keeps_no_durations_or_decisions():
    cfg = mm1(0.9, 5_000, seed=2, discipline="random")
    shared = run_simulation(replace(cfg, discipline="fcfs"))
    for d in ("random", "lcfs", "fcfs"):
        assert run_simulation(replace(cfg, discipline=d)).arrivals is shared.arrivals, d
    kept = [
        shared.arrivals,
        shared.service_starts,
        shared.departures,
        shared.period_starts,
        shared.queue,
    ]
    held = [v for v in vars(shared).values() if isinstance(v, np.ndarray)]
    held += [a for v in vars(shared).values() if isinstance(v, tuple) for a in v]
    assert sorted(map(id, held)) == sorted(map(id, kept))
    # Random order makes its decision stream from the seed; none is kept.
    assert not any(isinstance(v, np.random.Generator) for v in vars(shared).values())


def swap_pop_reference(arrived, queue, decisions):
    """Random order as one plain-list swap-pop per slot: slot k's waiters
    are the customers below ``arrived[k]`` not yet served."""
    waiting, served, nxt = [], [], 0
    for k, (count, q, u) in enumerate(zip(arrived, queue, decisions)):
        waiting.extend(range(nxt, count))
        nxt = max(nxt, count)
        assert len(waiting) == q, k
        pick = int(u * q)
        waiting[pick], waiting[-1] = waiting[-1], waiting[pick]
        served.append(waiting.pop())
    return served


def stack_pop_reference(arrived, queue):
    """Last come first as one plain-list push and pop per slot: slot k's
    waiters are the customers below ``arrived[k]`` not yet served."""
    waiting, served, nxt = [], [], 0
    for k, (count, q) in enumerate(zip(arrived, queue)):
        waiting.extend(range(nxt, count))
        nxt = max(nxt, count)
        assert len(waiting) == q, k
        served.append(waiting.pop())
    return served


def block_of_runs(lengths, rng):
    """``arrived`` of a block whose slots split into runs of the given
    lengths: a run of L slots serves its own L customers, finds two or more
    waiters at each slot but its last, and one there."""
    arrived, lo = [], 0
    for length in lengths:
        count = lo + 1
        for i in range(length - 1):
            count = int(rng.integers(max(count, lo + i + 2), lo + length + 1))
            arrived.append(count)
        arrived.append(lo + length)
        lo += length
    return np.array(arrived, dtype=np.int64)


def queue_of(arrived):
    """The waiters each slot finds, numbered as the helpers number slots."""
    return (arrived - np.arange(len(arrived))).astype(np.int32)


LAST_PICK = math.nextafter(1.0, 0.0)  # int(u * q) == q - 1 for every q


def assert_random_pick_matches(arrived, decisions):
    queue = queue_of(arrived)
    got = simulate._random_pick(queue, decisions)
    assert got.tolist() == swap_pop_reference(arrived.tolist(), queue.tolist(), decisions)
    return got


def test_random_pick_without_contested_slots():
    rng = np.random.default_rng(1)
    served = assert_random_pick_matches(block_of_runs([1] * 9, rng), rng.random(9))
    assert served.tolist() == list(range(9))


def test_random_pick_one_run_spans_the_block():
    rng = np.random.default_rng(2)
    for m in (2, 3, 40, 300):
        assert_random_pick_matches(block_of_runs([m], rng), rng.random(m))
        assert_random_pick_matches(block_of_runs([1, m - 1], rng), rng.random(m))
        # every slot finds all the block's unserved customers waiting
        assert_random_pick_matches(np.full(m, m), rng.random(m))


def test_random_pick_takes_the_last_or_first_waiter():
    rng = np.random.default_rng(3)
    lengths = [1, 7, 2, 1, 12, 3, 5]
    m = sum(lengths)
    for u in (LAST_PICK, 0.0):
        assert_random_pick_matches(block_of_runs(lengths, rng), np.full(m, u))
        assert_random_pick_matches(block_of_runs([m], rng), np.full(m, u))


@given(
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
    extreme=st.sampled_from([None, LAST_PICK, 0.0]),
)
@settings(max_examples=200, deadline=None)
def test_random_pick_walks_many_unequal_runs_at_once(lengths, seed, extreme):
    rng = np.random.default_rng(seed)
    decisions = rng.random(sum(lengths))
    if extreme is not None:
        decisions[rng.random(len(decisions)) < 0.5] = extreme
    assert_random_pick_matches(block_of_runs(lengths, rng), decisions)


def test_random_order_follows_its_exact_law():
    # Given the trajectory, random order serves each of the q_j waiters at
    # slot j with probability 1/q_j, so customer i takes slot j with
    # probability (1/q_j) * prod(1 - 1/q_l for floor_i <= l < j), where
    # floor_i is the first slot k with k + q_k > i.  The longest period of a
    # short run, tiled into many periods, goes through one assignment call.
    trajectory = run_simulation(SimConfig(0.9, 1.0, 400, 1))
    queue, heads = trajectory.queue, trajectory.period_starts
    sizes = np.diff(heads, append=len(queue))
    head, m = heads[np.argmax(sizes)], sizes.max()
    q = queue[head : head + m]
    assert (m, q.max()) == (345, 58)
    copies = 10_000
    offsets = simulate._slot_offsets(
        np.tile(q, copies), np.arange(copies) * m, np.random.default_rng(1)
    )
    customers = np.arange(m * copies)
    counts = np.bincount(customers % m * m + (customers + offsets) % m, minlength=m * m)
    law = np.zeros((m, m))  # customer, slot
    floors = np.searchsorted(np.arange(m) + q, np.arange(m), side="right")
    for i, f in enumerate(floors):
        law[i, f:] = np.cumprod(np.append(1.0, 1 - 1 / q[f:-1])) / q[f:]
    assert np.allclose(law.sum(axis=0), 1) and np.allclose(law.sum(axis=1), 1)
    # Chi-squared over the cells expecting more than 5 draws, the rest
    # pooled into one cell.
    expected = copies * law.ravel()
    big = expected > 5
    chi2 = np.sum((counts[big] - expected[big]) ** 2 / expected[big])
    rest = expected[~big].sum()
    chi2 += (counts[~big].sum() - rest) ** 2 / rest
    cells = np.count_nonzero(big) + 1
    # About six standard deviations of a chi-squared with that many degrees
    # of freedom: 31,731 cells; over 30 decision seeds the statistic ran
    # from 30,926 to 32,024.
    assert chi2 < cells + 6 * math.sqrt(2 * cells)


def assert_stack_match_matches(arrived):
    queue = queue_of(arrived)
    got = simulate._stack_match(queue)
    assert got.tolist() == stack_pop_reference(arrived.tolist(), queue.tolist())
    return got


def test_stack_match_serves_the_newest_waiter():
    rng = np.random.default_rng(4)
    assert assert_stack_match_matches(block_of_runs([1] * 9, rng)).tolist() == list(range(9))
    for m in (2, 3, 40, 300):
        assert_stack_match_matches(block_of_runs([m], rng))
        # every slot finds all the block's unserved customers waiting
        served = assert_stack_match_matches(np.full(m, m))
        assert served.tolist() == list(range(m - 1, -1, -1))


@given(
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_stack_match_on_many_unequal_runs(lengths, seed):
    assert_stack_match_matches(block_of_runs(lengths, np.random.default_rng(seed)))


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize(
    "rho, arrival_dist", [(0.95, "exponential"), (1.0, "deterministic"), (1.2, "exponential")]
)
def test_random_order_equals_slot_loop_on_long_runs(monkeypatch, block, rho, arrival_dist):
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    cfg = mm1(rho, 3_000, seed=12, discipline="random", arrival_dist=arrival_dist)
    trace = run_simulation(cfg)
    assert int(np.diff(np.append(trace.period_starts, cfg.num_arrivals)).max()) > 200
    assert trace_digest(trace) == trace_digest(slot_loop_reference(cfg))


def test_live_fcfs_trace_lends_its_trajectory(monkeypatch):
    built = []
    compute_slots = simulate._compute_slots

    def counted(*args):
        built.append(1)
        return compute_slots(*args)

    monkeypatch.setattr(simulate, "_compute_slots", counted)
    cfg = mm1(0.9, 3_000, seed=21)
    others = [replace(cfg, discipline=d) for d in ("lcfs", "random")]
    # With no first-come trace alive, each run draws its own trajectory.
    fresh = {c.discipline: trace_digest(run_simulation(c)) for c in others + [cfg]}
    assert len(built) == 3
    built.clear()
    fcfs = run_simulation(cfg)
    for c in others:
        trace = run_simulation(c)
        assert trace.arrivals is fcfs.arrivals
        assert trace_digest(trace) == fresh[c.discipline]
    assert len(built) == 1
    assert simulate._drawn[cfg] is fcfs
    del fcfs, trace
    gc.collect()
    assert cfg not in simulate._drawn
    run_simulation(cfg)
    assert len(built) == 2
    # Without a live first-come trace, each run draws its own trajectory.
    built.clear()
    digests = [trace_digest(run_simulation(c)) for c in others + [cfg]]
    assert len(built) == 3
    assert digests == [fresh[c.discipline] for c in others + [cfg]]
