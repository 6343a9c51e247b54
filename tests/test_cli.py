import hashlib
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import qvar.cli as cli
import qvar.simulate as simulate
from qvar import (
    ConfigError,
    ExtremalityViolationError,
    SimConfig,
    compute_stats,
    lcfs_permutation,
    random_busy_period,
    read_trace_jsonl,
    run_simulation,
)
from qvar.cli import main

BP_JSON = {"arrivals": [0.0, 1.0, 2.0], "service_starts": [0.0, 2.5, 3.0]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("qvar ")


def test_no_command(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "simulate", "--bogus")
    assert code == 2


def test_simulate_json(capsys):
    code, out, err = run(
        capsys,
        "simulate", "--lambda", "0.5", "--mu", "1", "--arrivals", "20000",
        "--seed", "42", "--discipline", "lcfs",
    )
    assert code == 0, err
    stats = json.loads(out)
    assert stats["count"] == 18000
    assert 4.0 < stats["var_wait"] < 11.0
    assert 0.8 < stats["mean_wait"] < 1.2
    assert stats["warmup_discarded"] == 2000


def test_simulate_deterministic_output(capsys):
    argv = [
        "simulate", "--lambda", "0.5", "--mu", "1", "--arrivals", "5000",
        "--seed", "7",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_csv(capsys):
    code, out, _ = run(
        capsys,
        "simulate", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000",
        "--seed", "1", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    cols = header.split(",")
    assert cols[:3] == ["count", "warmup_discarded", "mean_wait"]
    assert len(row.split(",")) == len(cols)


def test_simulate_unstable_rejected(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--lambda", "1.5", "--mu", "1", "--arrivals", "100",
        "--seed", "1",
    )
    assert code == 2
    assert "unstable configuration" in err


def test_simulate_zero_arrivals_rejected(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--lambda", "0.5", "--mu", "1", "--arrivals", "0",
        "--seed", "1",
    )
    assert code == 2


def test_simulate_bad_warmup(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--lambda", "0.5", "--mu", "1", "--arrivals", "100",
        "--seed", "1", "--warmup", "1.0",
    )
    assert code == 2


def test_bad_warmup_is_refused_before_any_draw(capsys, monkeypatch):
    built = []
    compute_slots = simulate._compute_slots

    def counted(*args):
        built.append(1)
        return compute_slots(*args)

    monkeypatch.setattr(simulate, "_compute_slots", counted)
    for command in (["simulate", "--seed", "1"], ["compare", "--seeds", "1,2"]):
        for warmup in ("1.5", "-0.1", "nan"):
            code, out, err = run(
                capsys, *command, "--lambda", "0.5", "--mu", "1", "--arrivals", "1000",
                "--warmup", warmup,
            )
            assert (code, out) == (2, "")
            assert f"warmup_fraction must lie in [0, 1), got {warmup}" in err
    assert built == []


def test_simulate_out_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "stats.json"
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run(
        capsys,
        "simulate", "--lambda", "0.5", "--mu", "1", "--arrivals", "500",
        "--seed", "3", "--out", str(out_path), "--trace", str(trace_path),
    )
    assert code == 0
    assert out == ""
    stats = json.loads(out_path.read_text())
    assert stats["count"] == 450
    trace = read_trace_jsonl(trace_path)
    assert trace.n == 500
    manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
    assert manifest["tool"] == "qvar"
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 3
    assert str(out_path) in manifest["outputs"]
    assert str(trace_path) in manifest["outputs"]
    assert "--seed" in manifest["argv"]


RUN_KEYS = {"arrival_rate", "service_rate", "num_arrivals", "coupling",
            "arrival_dist", "service_dist", "warmup_fraction"}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["simulate", "--seed", "3"], RUN_KEYS | {"seed", "discipline"}),
        (["compare", "--seeds", "1,2"], RUN_KEYS | {"seeds", "disciplines", "oracle"}),
    ],
    ids=["simulate", "compare"],
)
def test_manifest_config_format(tmp_path, capsys, argv, keys):
    # Every run shares the server trajectory (slot k lasts service draw k);
    # the manifest keeps recording that as a constant "coupling" entry.
    out_path = tmp_path / "report"
    code, _, err = run(
        capsys, *argv, "--lambda", "0.5", "--mu", "1", "--arrivals", "200",
        "--out", str(out_path),
    )
    assert code == 0, err
    config = json.loads((tmp_path / "report.manifest.json").read_text())["config"]
    assert set(config) == keys
    assert config["coupling"] == "position"
    code, _, err = run(
        capsys, *argv, "--lambda", "0.5", "--mu", "1", "--arrivals", "200",
        "--coupling", "customer",
    )
    assert code == 2
    assert "--coupling" in err


def test_simulate_uniform_service(capsys):
    code, out, _ = run(
        capsys,
        "simulate", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000",
        "--seed", "1", "--service-dist", "uniform:0.5,1.5",
    )
    assert code == 0
    assert json.loads(out)["mean_wait"] > 0
    code, _, err = run(
        capsys,
        "simulate", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000",
        "--seed", "1", "--service-dist", "uniform:3,5",
    )
    assert code == 2  # bounds contradict --mu


def test_compare_csv(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--lambda", "0.5", "--mu", "1", "--arrivals", "5000",
        "--seeds", "1,2", "--oracle",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "discipline,seed_count,mean_wait,se_mean,var_wait,se_var,p_wait,predicted_var"
    assert len(lines) == 4
    assert lines[1].startswith("fcfs,2,")
    assert lines[1].endswith(",3")
    assert lines[2].split(",")[0] == "lcfs"
    assert lines[2].endswith(",7")
    assert lines[3].endswith(",")  # random order: no prediction


def test_compare_single_seed_single_discipline(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000",
        "--seeds", "5", "--disciplines", "fcfs",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("fcfs,1,")


def test_compare_json(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000",
        "--seeds", "1", "--format", "json",
    )
    assert code == 0
    table = json.loads(out)
    assert table["seeds"] == [1]
    assert len(table["rows"]) == 3


def test_compare_flag_errors(capsys):
    code, _, err = run(
        capsys,
        "compare", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000",
        "--seeds", "1,x",
    )
    assert code == 2
    code, _, err = run(
        capsys,
        "compare", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000",
        "--seeds", "1", "--disciplines", "sjf",
    )
    assert code == 2
    code, _, err = run(
        capsys,
        "compare", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000",
        "--seeds", "1", "--service-dist", "deterministic", "--oracle",
    )
    assert code == 2


def test_compare_refuses_repeats(capsys):
    # A repeated seed would pool one sample path twice into the standard
    # errors; a repeated discipline would print its row twice.
    for flags, given in (
        (["--seeds", "1,2,1"], "[1, 2, 1]"),
        (["--seeds", "1", "--disciplines", "lcfs,fcfs,lcfs"], "['lcfs', 'fcfs', 'lcfs']"),
    ):
        code, out, err = run(
            capsys,
            "compare", "--lambda", "0.5", "--mu", "1", "--arrivals", "2000", *flags,
        )
        assert code == 2 and out == ""
        assert f"only once, got {given}" in err and "Discipline." not in err


def test_enumerate_file(tmp_path, capsys):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(BP_JSON))
    code, out, err = run(capsys, "enumerate", "--input", str(path))
    assert code == 0, err
    report = json.loads(out.strip())
    assert report["index"] == 1
    assert report["n"] == 3
    assert report["min_objective"] == 8.0
    assert report["max_objective"] == 8.5
    assert report["num_realizable"] == 2


def test_enumerate_array_input(tmp_path, capsys):
    path = tmp_path / "bps.json"
    path.write_text(json.dumps([BP_JSON, {"arrivals": [0.0], "service_starts": [0.0]}]))
    code, out, _ = run(capsys, "enumerate", "--input", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[1])["num_realizable"] == 1


def test_enumerate_empty_array_refused(tmp_path, capsys):
    path = tmp_path / "none.json"
    path.write_text("[]")
    out_path = tmp_path / "reports.jsonl"
    code, out, err = run(capsys, "enumerate", "--input", str(path), "--out", str(out_path))
    assert code == 2
    assert out == "" and "no busy periods" in err
    assert not out_path.exists()


def test_compare_unstable_names_the_flags(capsys):
    code, _, err = run(
        capsys,
        "compare", "--lambda", "1", "--mu", "1", "--arrivals", "100", "--seeds", "1",
    )
    assert code == 2
    assert "--lambda 1.0 is not below --mu 1.0" in err


def test_enumerate_random(capsys):
    code, out, _ = run(capsys, "enumerate", "--random", "50", "--max-n", "5", "--seed", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 50
    assert all(2 <= json.loads(l)["n"] <= 5 for l in lines)


def test_parser_is_built_once_and_kept_clean(capsys):
    # main reuses one parser per process; a call that exits 2 in between
    # must not change what the same command prints next.
    argv = ("enumerate", "--random", "20", "--max-n", "6", "--seed", "4")
    first = run(capsys, *argv)
    assert first[0] == 0
    code, out, err = run(capsys, "enumerate", "--random", "many")
    assert code == 2 and out == "" and "invalid int value" in err
    assert run(capsys, *argv) == first
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_enumerate_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "enumerate", "--input", str(path))
    assert code == 2
    path.write_text(json.dumps({"arrivals": [0, 1], "service_starts": [0, 0.5]}))
    code, _, err = run(capsys, "enumerate", "--input", str(path))
    assert code == 2  # infeasible timestamps are invalid input
    path.write_text(
        json.dumps({"arrivals": ["0", True, "2"], "service_starts": [False, "2.5", 3]})
    )
    code, out, err = run(capsys, "enumerate", "--input", str(path))
    assert code == 2 and out == "" and "timestamps must be numbers" in err
    code, _, err = run(capsys, "enumerate", "--input", str(path), "--random", "5")
    assert code == 2  # mutually exclusive
    code, _, err = run(capsys, "enumerate")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--input", str(tmp_path / "missing.json"))
    assert code == 2


def test_undecodable_or_over_deep_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for raw in (b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000):
        path.write_bytes(raw)
        for command in ("enumerate", "descent"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert code == 2 and out == "", (command, raw[:2])
            assert err.startswith("error:") and "Traceback" not in err


def test_enumerate_input_longer_than_max_n(tmp_path, capsys):
    # --max-n sizes only --random periods; an --input period of any length
    # is certified.
    bp = random_busy_period(np.random.default_rng(0), 6)
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(bp.to_dict()))
    code, out, err = run(capsys, "enumerate", "--input", str(path), "--max-n", "4")
    assert code == 0, err
    assert json.loads(out)["n"] == 6


def test_enumerate_writes_counts_past_the_digit_limit(tmp_path, capsys):
    # All 1,600 customers arrive before slot 2 opens: 1599! orders, 4,431
    # digits, more than Python 3.10.7+ converts to str by default.
    n = 1600
    path = tmp_path / "bp.json"
    starts = [0] + list(range(n, 2 * n - 1))
    path.write_text(json.dumps({"arrivals": list(range(n)), "service_starts": starts}))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    code, out, err = run(capsys, "enumerate", "--input", str(path))
    assert code == 0, err
    count = re.fullmatch(r'\{"index": 1, "n": 1600, "num_realizable": (\d+), .*\}\n', out)[1]
    assert len(count) > 4300 and int(Decimal(count)) == math.factorial(n - 1)
    rec = json.loads(out.replace(count, "0"))
    assert rec["argmax"] == list(range(1, n + 1))
    assert rec["argmin"] == [1] + list(range(n, 1, -1))
    if limit:
        assert sys.get_int_max_str_digits() == limit


def test_timestamps_out_of_range_exit_cleanly(tmp_path, capsys):
    # An integer literal past the digit limit is malformed input; products
    # of timestamps past the float range fail at run time, without a
    # traceback.
    path = tmp_path / "bp.json"
    path.write_text('{"arrivals": [0, 1' + "0" * 5000 + '], "service_starts": [0, 2]}')
    code, out, err = run(capsys, "enumerate", "--input", str(path))
    assert (code, out) == (2, "") and err.startswith("error: ")
    huge = {"arrivals": [0, 1e200, 2e200], "service_starts": [0, 2.5e200, 3e200]}
    path.write_text(json.dumps(huge))
    for command in ("enumerate", "descent"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out) == (1, "") and "too large for a float" in err


def test_run_too_long_to_hold_exits_1(capsys, monkeypatch):
    def refuse(*args):
        raise MemoryError("Unable to allocate 6.94 EiB")

    monkeypatch.setattr(simulate, "_compute_slots", refuse)
    for command in (["simulate", "--seed", "1"], ["compare", "--seeds", "1,2"]):
        code, out, err = run(
            capsys, *command, "--lambda", "0.5", "--mu", "1", "--arrivals", "1000"
        )
        assert (code, out) == (1, ""), command
        assert err.startswith("error:") and "Traceback" not in err, command


def test_enumerate_violation_exits_3(tmp_path, capsys, monkeypatch):
    def boom(bp):
        raise ExtremalityViolationError("fabricated for the exit-code path")

    monkeypatch.setattr(cli, "check_extremality", boom)
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(BP_JSON))
    code, _, err = run(capsys, "enumerate", "--input", str(path))
    assert code == 3
    assert "theorem violation" in err


def test_enumerate_out_manifest(tmp_path, capsys):
    out_path = tmp_path / "reports.jsonl"
    code, out, _ = run(
        capsys, "enumerate", "--random", "3", "--max-n", "4", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert len(out_path.read_text().strip().split("\n")) == 3
    manifest = json.loads((tmp_path / "reports.jsonl.manifest.json").read_text())
    assert manifest["command"] == "enumerate"
    assert manifest["config"]["random"] == 3


def test_descent_identity(tmp_path, capsys):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(BP_JSON))
    code, out, err = run(capsys, "descent", "--input", str(path))
    assert code == 0, err
    lines = out.strip().split("\n")
    assert len(lines) == 1
    step = json.loads(lines[0])
    assert step["kind"] == "swap"
    assert step["objective_before"] == 8.5
    assert step["objective_after"] == 8.0


def test_descent_already_at_stack_order(tmp_path, capsys):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps({"arrivals": [0.0, 1.0], "service_starts": [0.0, 2.0]}))
    code, out, _ = run(capsys, "descent", "--input", str(path))
    assert code == 0
    assert out == ""


def test_descent_random_start(tmp_path, capsys):
    rng = np.random.default_rng(14)
    from qvar import random_busy_period

    bp = random_busy_period(rng, 8)
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(bp.to_dict()))
    code, out, _ = run(
        capsys, "descent", "--input", str(path), "--start", "random", "--seed", "5"
    )
    assert code == 0
    swaps = [
        json.loads(l)
        for l in out.strip().split("\n")
        if l and json.loads(l)["kind"] == "swap"
    ]
    assert swaps, "expected the random start to need at least one swap"
    for step in swaps:
        assert step["objective_after"] < step["objective_before"]


def test_descent_malformed(tmp_path, capsys):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps([BP_JSON]))
    code, _, err = run(capsys, "descent", "--input", str(path))
    assert code == 2


def test_seed_out_of_range_exits_2(tmp_path, capsys):
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(BP_JSON))
    for argv in (
        ("enumerate", "--random", "3", "--seed", "-1"),
        ("enumerate", "--random", "3", "--seed", str(2**64)),
        ("descent", "--input", str(path), "--start", "random", "--seed", "-1"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "seed" in err


def test_rate_errors_name_the_flag(capsys):
    for argv, flag in (
        (("simulate", "--lambda", "nan", "--mu", "1", "--arrivals", "100"), "--lambda"),
        (
            ("compare", "--lambda", "0.5", "--mu", "nan", "--arrivals", "100", "--seeds", "1"),
            "--mu",
        ),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert f"error: {flag} must be a positive finite number, got nan" in err


@pytest.mark.parametrize(
    "rates, dist, message",
    [
        (("1e-320", "1"), (), "arrival rate 1e-320 and service rate 1.0 give times beyond"),
        (("1e-321", "1e-320"), (), "arrival rate 1e-321 and service rate 1e-320 give times"),
        (
            ("1e-320", "1"),
            ("--arrival-dist", "deterministic"),
            "deterministic value must be positive finite, got inf",
        ),
        (
            ("1e-321", "1e-320"),
            ("--service-dist", "deterministic"),
            "deterministic value must be positive finite, got inf",
        ),
        (
            ("1e-320", "1"),
            ("--arrival-dist", "uniform"),
            "uniform on (0, 2/rate) needs a finite 2/rate, got rate 1e-320",
        ),
        (
            ("1e-321", "1e-320"),
            ("--service-dist", "uniform"),
            "uniform on (0, 2/rate) needs a finite 2/rate, got rate 1e-320",
        ),
        # Finite times, but waits whose squares pass the float range.
        (
            ("0.9e-200", "1e-200"),
            (),
            "waits too long for finite moments: (mean wait, its error, variance, its error)",
        ),
    ],
)
def test_time_scale_past_the_float_range_exits_2(capsys, rates, dist, message):
    lam, mu = rates
    for argv in (
        ("simulate", "--lambda", lam, "--mu", mu, "--arrivals", "5", "--seed", "1", *dist),
        ("compare", "--lambda", lam, "--mu", mu, "--arrivals", "5", "--seeds", "1,2", *dist),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"error: {message}" in err and "Traceback" not in err, err


@pytest.mark.parametrize("rates", [("1e-320", "1"), ("0.9e-200", "1e-200")])
def test_refusal_past_the_float_range_prints_one_line(rates):
    # A fresh process, compare's seeds in two worker processes: numpy's
    # overflow warnings do not precede the error line.
    lam, mu = rates
    env = dict(os.environ, QVAR_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    flags = ("--lambda", lam, "--mu", mu, "--arrivals", "1000")
    for argv in (("simulate", "--seed", "1", *flags), ("compare", "--seeds", "1,2", *flags)):
        done = subprocess.run(
            [sys.executable, "-m", "qvar", *argv], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout) == (2, ""), argv
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("error: "), done.stderr
    # Called as a library, numpy still warns.
    with pytest.warns(RuntimeWarning), pytest.raises(ConfigError):
        compute_stats(run_simulation(SimConfig(float(lam), float(mu), 1000, 1)))


def test_spawned_compare_workers_keep_the_warning_filter():
    # Spawned workers start afresh, not with a copy of the caller: compare
    # hands them its filters, so numpy's warnings stay silent there too.
    env = dict(os.environ, QVAR_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    argv = ["compare", "--lambda", "0.9e-200", "--mu", "1e-200", "--arrivals", "1000",
            "--seeds", "1,2"]
    script = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from qvar import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("error: "), done.stderr


def test_enumerate_random_max_n_capped(tmp_path, capsys):
    # Refused before any period is drawn.
    for k in ("1", "15", "100"):
        code, out, err = run(capsys, "enumerate", "--random", "2", "--max-n", k, "--seed", "1")
        assert code == 2, k
        assert "--max-n" in err and out == ""
    code, out, err = run(capsys, "enumerate", "--random", "3", "--max-n", "14", "--seed", "1")
    assert code == 0, err
    assert len(out.splitlines()) == 3
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(BP_JSON))
    code, _, err = run(capsys, "enumerate", "--input", str(path), "--max-n", "11")
    assert code == 0, err


def test_descent_stdout_is_pinned(tmp_path, capsys):
    # One line per swap, each objective the exact value rounded once; its
    # expansion (below) is pinned in the earlier one-line-per-bracket layout.
    bp = random_busy_period(np.random.default_rng(80), 80)
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(bp.to_dict()))
    code, out, err = run(capsys, "descent", "--input", str(path), "--start", "identity")
    assert code == 0, err
    assert out.count("\n") == 72
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "54366a342f4c1403534bc9811ae22dd43d4aab73f46d6dc76e48a039ecc5009c"
    )


def _expand_removed(out, bp):
    """Descent stdout with a ``remove-reduction`` line ahead of each swap
    for every inert bracket the walk passed, restating the swap's unchanged
    ``*_before`` values.  The brackets are ``(stack owner, slot)`` for the
    slots from 2 up to the swap's slot in ``order_before``."""
    owner = {slot: c for c, slot in enumerate(lcfs_permutation(bp).mapping, start=1)}
    steps = []
    for line in out.splitlines():
        swap = json.loads(line)
        ob, fb, nb = swap["order_before"], swap["objective_before"], swap["bad_pairs_before"]
        steps += (
            {
                "kind": "remove-reduction", "indices": [owner[slot], slot],
                "order_before": ob, "order_after": ob,
                "objective_before": fb, "objective_after": fb,
                "bad_pairs_before": nb, "bad_pairs_after": nb,
            }
            for slot in range(2, ob[swap["indices"][0] - 1])
        )
        steps.append(swap)
    return "".join(json.dumps(s) + "\n" for s in steps)


@pytest.mark.parametrize(
    "n, start, lines, digest",
    [
        (
            80,
            ["--start", "identity"],
            2730,
            "7b0b416ed3cd569ecceee3218f994b5d3e3895c3e59660c16abb28b0697fcf7b",
        ),
        (
            40,
            ["--start", "random", "--seed", "3"],
            481,
            "91f42254b26438004967f9435c85c452547bf8e4e54f9a54e2d6121bd0723e5e",
        ),
    ],
    ids=["identity-n80", "random-start-n40"],
)
def test_descent_expands_to_one_line_per_bracket(tmp_path, capsys, n, start, lines, digest):
    # The earlier format wrote each inert bracket as a line of its own; the
    # swap lines and the stack order rebuild it, so they lose nothing.
    bp = random_busy_period(np.random.default_rng(80), n)
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(bp.to_dict()))
    code, out, err = run(capsys, "descent", "--input", str(path), *start)
    assert code == 0, err
    expanded = _expand_removed(out, bp)
    assert expanded.count("\n") == lines
    assert hashlib.sha256(expanded.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            ["enumerate", "--random", "300", "--max-n", "9", "--seed", "11"],
            300,
            "93f573d5fad6395fc33c52b19b96c314714c6fd023c7c7f5620d63de9471d1ea",
        ),
        (
            ["enumerate", "--random", "40", "--max-n", "14", "--seed", "5"],
            40,
            "f16b3a231c7031fbd409a45ff3d37214ed3376d329a8ad58975ec5f05cd9f1a8",
        ),
        (
            ["descent", "--input", "BP40", "--start", "random", "--seed", "3"],
            27,
            "d7ddf466ebf4a9ddfa7cbdee7239b07bd73101cf875c4b4ec53bf0dddcf6ed67",
        ),
    ],
    ids=["enumerate-n9", "enumerate-n14", "descent-random-start"],
)
def test_extension_rule_stdout_is_pinned(tmp_path, capsys, argv, lines, digest):
    # The oracle's counts and a descent from a sampled order both follow
    # the rule that places an order from the last customer to the first
    # (the sample also follows the rng stream), so these digests pin that
    # rule byte for byte.
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(random_busy_period(np.random.default_rng(80), 40).to_dict()))
    code, out, err = run(capsys, *(str(path) if a == "BP40" else a for a in argv))
    assert code == 0, err
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


COMPARE_PIN = ["compare", "--lambda", "0.9", "--mu", "1", "--arrivals", "200000",
               "--seeds", "1,2", "--oracle"]
SIMULATE_PIN = ["simulate", "--lambda", "0.9", "--mu", "1", "--arrivals", "200000",
                "--seed", "1", "--format", "json", "--discipline"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (COMPARE_PIN, "b0d40983cd6149d0d148a38dc119acfe789e4bfc5f57578b27309e1f1fe2f7cc"),
        (
            COMPARE_PIN + ["--format", "json"],
            "62c200951eb32840dc93ad6d5663c442a34cb7fc587ec574b396a3cd591590a4",
        ),
        (SIMULATE_PIN + ["fcfs"], "7907295b373eadd42dcbc7a2a728d51b96b9019c6f70c839ddc959075d4b1b7d"),
        (SIMULATE_PIN + ["lcfs"], "b30fc52ab89bdc422a8eb7be0322f2b20c51764ffaec3a11cb4edda123b6f80d"),
        (SIMULATE_PIN + ["random"], "49551784cf28ea4bb0914012bc88948bcc3f3336f86b3d7c617eb257169e6221"),
    ],
    ids=["compare-csv", "compare-json", "simulate-fcfs", "simulate-lcfs", "simulate-random"],
)
def test_report_stdout_is_pinned(capsys, argv, digest):
    # Every figure is printed at full precision, so these digests pin the
    # wait statistics bit for bit along with the report layout.
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
