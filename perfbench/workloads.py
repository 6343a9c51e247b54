"""The benchmark's three workloads.

Each workload is a class.  Constructing it is the set-up: it derives every
input from the workload seed and writes any input files.  ``run(rep)`` is
the timed operation of repetition ``rep`` -- what a user of qvar waits for.
It is a generator: each ``yield`` ends a timed section (the benchmark runs
its reference kernel there, outside the timing), and its return value is
the raw result.  ``check`` is untimed: it applies the workload's
correctness gate, counts attempted and failed operations, and takes the
workload's shape from what the repetition put out.  Repetitions with the
same ``rep % INPUTS`` run the same inputs.

Workloads call qvar only through its public entry points (``qvar.cli.main``
and the public functions of each module), looked up on the module at call
time so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from qvar import cli, instances, permutations, simulate
from qvar.errors import ExtremalityViolationError, QvarError

CUSTOMERS = 10**6
DISCIPLINES = ("fcfs", "lcfs", "random")


def derive_seeds(seed: int, k: int) -> list[int]:
    """``k`` independent 32-bit seeds for the program, from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


@dataclass
class Outcome:
    """What one repetition did, as ``check`` reports it."""

    attempted: int = 0
    failed: int = 0
    violations: int = 0
    # Each failed operation with the input that made it fail, for replay.
    failures: list[dict] = field(default_factory=list)
    # Broken correctness gates; any entry fails the run.
    gate_errors: list[str] = field(default_factory=list)
    # Counts that fix the amount of work, taken from the repetition's
    # outputs; equal inputs must give equal shapes.
    shape: dict[str, int] = field(default_factory=dict)
    customers: int = 0
    periods_verified: int = 0
    oracle_s: float = 0.0
    bytes_out: int = 0


def trace_shape(trace) -> dict[str, int]:
    """Busy periods, longest period and peak number in system of one trace."""
    bounds = np.append(trace.period_starts, trace.n)
    departed = np.searchsorted(np.sort(trace.departures), trace.arrivals, side="right")
    in_system = np.arange(1, trace.n + 1) - departed
    return {
        "simulate.periods": trace.num_periods,
        "simulate.longest_period": int(np.diff(bounds).max()),
        "simulate.peak_in_system": int(in_system.max()),
    }


def realizable_orders(bp) -> int:
    """How many realizable service orders a busy period has, without listing
    them; used only to size inputs.

    Customer i > 0 may take any slot opening after it arrives, a set of
    slots that shrinks as i grows.  Filling customers from the last one
    down, each has its slots less those already taken.
    """
    a, b = bp.arrivals, bp.service_starts
    count = 1
    for taken, i in enumerate(range(bp.n - 1, 0, -1)):
        count *= sum(1 for t in b if t > a[i]) - taken
    return count


def _call_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _take(path: Path) -> tuple[bytes, int]:
    """An output file's bytes and, with its manifest, its size; deletes both."""
    data = path.read_bytes()
    manifest = Path(str(path) + ".manifest.json")
    size = manifest.stat().st_size
    path.unlink()
    manifest.unlink()
    return data, len(data) + size


class Sweep:
    """``qvar compare`` at rho=0.5 with the closed-form oracle, via the CLI.

    Each repetition compares the three disciplines on one of INPUTS seeds, in
    turn: many short repetitions give a steadier median than a few long ones
    on a noisy machine, and each seed's CSV is still compared across repeats.
    """

    name = "sweep-rho50"
    INPUTS = 3
    # Simulated variances must lie this many pooled standard errors from the
    # closed form.
    Z_MAX = 5.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = derive_seeds(seed, self.INPUTS)
        self.calls = [
            (workdir / f"compare-{k}.csv", [
                "compare", "--lambda", "0.5", "--mu", "1.0",
                "--arrivals", str(CUSTOMERS), "--seeds", str(s),
                "--oracle", "--out", str(workdir / f"compare-{k}.csv"),
            ])
            for k, s in enumerate(self.seeds)
        ]
        self.first: dict[int, bytes] = {}

    def run(self, rep: int):
        k = rep % self.INPUTS
        return k, _call_cli(self.calls[k][1])
        yield  # a generator with one timed section

    def check(self, raw) -> Outcome:
        k, (code, err) = raw
        out, argv = self.calls[k]
        o = Outcome(attempted=1, customers=len(DISCIPLINES) * CUSTOMERS)
        if code != 0:
            o.failed = 1
            o.failures.append({"argv": argv, "exit": code, "stderr": err})
            return o
        data, o.bytes_out = _take(out)
        if self.first.setdefault(k, data) != data:
            o.gate_errors.append(
                f"compare CSV bytes for seed {self.seeds[k]} differ between repetitions"
            )
        rows = {r["discipline"]: r for r in csv.DictReader(io.StringIO(data.decode()))}
        o.shape = {"compare.rows": len(rows)}
        if sorted(rows) != sorted(DISCIPLINES):
            o.gate_errors.append(f"compare CSV has rows {sorted(rows)}")
            return o
        var = {d: float(rows[d]["var_wait"]) for d in DISCIPLINES}
        if not var["fcfs"] <= var["random"] <= var["lcfs"]:
            o.gate_errors.append(f"variance ordering broken: {var}")
        for d in ("fcfs", "lcfs"):
            se, pred = rows[d]["se_var"], rows[d]["predicted_var"]
            if not se or not pred:
                o.gate_errors.append(f"{d}: missing se_var or predicted_var")
            elif abs(var[d] - float(pred)) > self.Z_MAX * float(se):
                o.gate_errors.append(
                    f"{d}: var_wait {var[d]} is more than {self.Z_MAX} SE "
                    f"({se}) from predicted {pred}"
                )
        return o

    def trajectory_shape(self) -> dict[str, int]:
        """Shape of the trajectories the repetitions simulate, over all
        INPUTS seeds.  The CLI does not report them, so they are simulated
        again here, after the measurements; under position coupling the
        three disciplines share one trajectory per seed."""
        shapes = [
            trace_shape(simulate.run_simulation(simulate.SimConfig(0.5, 1.0, CUSTOMERS, s)))
            for s in self.seeds
        ]
        return {
            "simulate.periods": sum(s["simulate.periods"] for s in shapes),
            "simulate.longest_period": max(s["simulate.longest_period"] for s in shapes),
            "simulate.peak_in_system": max(s["simulate.peak_in_system"] for s in shapes),
        }


class Audit:
    """Sample-path check of the theorem at rho=0.95, as library calls."""

    name = "audit-rho95"
    INPUTS = 1
    MIN_N, MAX_N = 3, 8

    def __init__(self, seed: int, workdir: Path) -> None:
        (sim_seed,) = derive_seeds(seed, 1)
        self.configs = [
            simulate.SimConfig(0.95, 1.0, CUSTOMERS, sim_seed, discipline=d)
            for d in DISCIPLINES
        ]

    def run(self, rep: int):
        traces = {}
        for c in self.configs:
            traces[c.discipline.value] = simulate.run_simulation(c)
            yield
        extracted = {}
        for d, t in traces.items():
            extracted[d] = simulate.extract_busy_periods(t)
            yield
        sums = {d: simulate.per_period_wait_sums(t) for d, t in traces.items()}
        closed_form = {
            "fcfs": all(
                perm == permutations.fcfs_permutation(bp) for bp, perm in extracted["fcfs"]
            ),
            "lcfs": all(
                perm == permutations.lcfs_permutation(bp) for bp, perm in extracted["lcfs"]
            ),
        }
        o = Outcome(customers=len(traces) * CUSTOMERS)
        orders = 0
        t0 = perf_counter()
        for bp, _ in extracted["fcfs"]:
            if self.MIN_N <= bp.n <= self.MAX_N:
                o.attempted += 1
                try:
                    orders += permutations.check_extremality(bp).num_realizable
                except QvarError as exc:
                    o.failed += 1
                    o.violations += isinstance(exc, ExtremalityViolationError)
                    o.failures.append(
                        {"period": bp.to_dict(), "error": f"{type(exc).__name__}: {exc}"}
                    )
        o.oracle_s = perf_counter() - t0
        o.periods_verified = o.attempted
        o.shape = {"permutations.orders": orders, "permutations.checked": o.attempted}
        return o, traces["fcfs"], sums, closed_form

    def check(self, raw) -> Outcome:
        o, trace, sums, closed_form = raw
        ref = sums["fcfs"].tobytes()
        for d in DISCIPLINES:
            if sums[d].tobytes() != ref:
                o.gate_errors.append(f"per-period wait sums of {d} differ bitwise from fcfs")
        for d, ok in closed_form.items():
            if not ok:
                o.gate_errors.append(f"extracted {d} orders differ from {d}_permutation")
        o.shape.update(trace_shape(trace))
        return o


class Oracle:
    """Exhaustive and descent oracles on random periods, via the CLI."""

    name = "oracle-random"
    INPUTS = 1
    MAX_N = 9
    # `qvar enumerate --random` draws period sizes and interleavings whose
    # counts of realizable orders are heavy-tailed: over 600 periods the total
    # varies by about 20% between seeds.  So the benchmark draws the periods
    # itself, sizes 3..MAX_N in turn, until their orders reach ORDERS, and
    # passes them with --input; the work is then nearly the same on every
    # seed.  One small --random call keeps that path in the workload.
    ORDERS = 120_000
    INPUT_FILES = 4
    RANDOM, RANDOM_MAX_N = 300, 6
    DESCENT_SIZES = (40, 60, 80, 100, 120)

    def __init__(self, seed: int, workdir: Path) -> None:
        input_seed, random_seed, descent_seed = derive_seeds(seed, 3)
        rng = np.random.default_rng(input_seed)
        chunks: list[list[dict]] = [[] for _ in range(self.INPUT_FILES)]
        orders = 0
        for k, n in enumerate(itertools.cycle(range(3, self.MAX_N + 1))):
            bp = instances.random_busy_period(rng, n)
            chunks[k % self.INPUT_FILES].append(bp.to_dict())
            orders += realizable_orders(bp)
            if orders >= self.ORDERS:
                break
        self.enumerate = []
        for k, chunk in enumerate(chunks):
            path, out = workdir / f"periods-{k}.json", workdir / f"enumerate-{k}.jsonl"
            path.write_text(json.dumps(chunk), encoding="utf-8")
            self.enumerate.append((out, [
                "enumerate", "--input", str(path), "--max-n", str(self.MAX_N),
                "--out", str(out),
            ]))
        out = workdir / "enumerate-random.jsonl"
        self.enumerate.append((out, [
            "enumerate", "--random", str(self.RANDOM), "--max-n", str(self.RANDOM_MAX_N),
            "--seed", str(random_seed), "--out", str(out),
        ]))
        rng = np.random.default_rng(descent_seed)
        self.periods = []
        self.descent = []
        for k, n in enumerate(self.DESCENT_SIZES):
            bp = instances.random_busy_period(rng, n)
            path, out = workdir / f"period-{k}.json", workdir / f"descent-{k}.jsonl"
            path.write_text(json.dumps(bp.to_dict()), encoding="utf-8")
            self.periods.append(bp)
            self.descent.append((out, [
                "descent", "--input", str(path), "--start", "identity", "--out", str(out),
            ]))
        self.digests: dict[str, str] = {}

    def run(self, rep: int):
        enum, enum_s = [], 0.0
        for _, argv in self.enumerate:
            t0 = perf_counter()
            enum.append(_call_cli(argv))
            enum_s += perf_counter() - t0
            yield
        descent = []
        for _, argv in self.descent:
            descent.append(_call_cli(argv))
            yield
        return enum, enum_s, descent

    def check(self, raw) -> Outcome:
        enum, enum_s, descent = raw
        o = Outcome(attempted=len(enum) + len(descent), oracle_s=enum_s)
        orders = swaps = 0
        for (out, argv), (code, err) in zip(self.enumerate, enum):
            if self._failed(o, argv, code, err):
                continue
            data = self._output(o, out)
            for line in data.decode().splitlines():
                rec = json.loads(line)
                o.periods_verified += 1
                orders += rec["num_realizable"]
        for bp, (out, argv), (code, err) in zip(self.periods, self.descent, descent):
            if self._failed(o, argv, code, err):
                continue
            steps = [json.loads(line) for line in self._output(o, out).decode().splitlines()]
            final = steps[-1]["order_after"] if steps else list(range(1, bp.n + 1))
            if tuple(final) != permutations.lcfs_permutation(bp).mapping:
                o.gate_errors.append(f"descent on n={bp.n} did not end at the stack order")
            for s in steps:
                if s["kind"] == "swap":
                    swaps += 1
                    if not s["objective_after"] < s["objective_before"]:
                        o.gate_errors.append(
                            f"descent on n={bp.n}: swap {s['indices']} did not "
                            f"lower the objective"
                        )
        o.shape = {
            "permutations.orders": orders,
            "permutations.checked": o.periods_verified,
            "permutations.descent_swaps": swaps,
        }
        return o

    def _failed(self, o: Outcome, argv: list[str], code: int, err: str) -> bool:
        if code == 0:
            return False
        o.failed += 1
        o.violations += code == 3
        o.failures.append({"argv": argv, "exit": code, "stderr": err})
        return True

    def _output(self, o: Outcome, path: Path) -> bytes:
        data, size = _take(path)
        o.bytes_out += size
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(path.name, digest) != digest:
            o.gate_errors.append(f"{path.name} bytes differ between repetitions")
        return data


WORKLOADS = {w.name: w for w in (Sweep, Audit, Oracle)}
