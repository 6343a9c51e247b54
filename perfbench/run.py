#!/usr/bin/env python3
"""Layered benchmark for qvar.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload

Run from the root of a qvar checkout.  The package is imported from the
checkout's ``src`` directory, never from an installed copy, and the run
stops with an error when there are no sources.

One run sets the workload up several times (importing qvar's modules
afresh, plus the workload's input generation) and reports the median as
``setup_s``.  It runs the workload's operation once untimed, then repeats
it, serially in this one process, for about ``--seconds`` seconds and
reports the median repetition as ``wall_s``, together with the process's
peak RSS.  Every repetition passes the workload's correctness gate or the
run fails.

``wall_s`` and ``setup_s`` are normalised times: the reference kernel of
``reference.py`` runs between timed sections, and each section's time is
scaled to the kernel's nominal speed.  The raw medians are reported as
``raw.wall_s`` and ``raw.setup_s``, the kernel's own median as
``ref.kernel_ms``.

With ``--trace 1`` the repetitions run in pairs on the same inputs, one
untraced and one with every public qvar function wrapped in a span (see
``tracer.py``); the run then reports the per-layer metrics, each the
median over the traced repetitions, and the tracing overhead as the
median difference of normalised times within a pair.

The metrics printed, and their units, are the ``end_to_end`` (untraced)
or ``per_layer`` (traced) lists of ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Failed operations -- a qvar call that raised or a CLI
call that exited non-zero -- are counted once per distinct input, not
once per repetition, and are not fatal; their inputs are saved under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from reference import Clock
from tracer import LAYERS, ROOT as ROOT_SPAN, SHAPE_COUNTS, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
# Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 2011
DEFAULT_SECONDS = 30
# Set-up passes before the first repetition; one more precedes each timed one.
SETUP_PASSES = 3
MIN_REPS = 2
# Shape counts every workload reports, 0 where it does no such work.
SHAPE_METRICS = (
    "simulate.periods",
    "simulate.longest_period",
    "simulate.peak_in_system",
    "permutations.orders",
    "permutations.descent_swaps",
)
CHILD_TIMEOUT_S = 600


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="time to measure for")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    if not SPEC.is_file():
        sys.exit(f"perfbench: {SPEC} not found")
    return json.loads(SPEC.read_text(encoding="utf-8"))


def load_qvar() -> None:
    """Import qvar from the checkout's sources, or exit with an error."""
    if not (SRC / "qvar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qvar

    if Path(qvar.__file__).resolve().parent != (SRC / "qvar").resolve():
        sys.exit(f"perfbench: imported qvar from {qvar.__file__}, not from {SRC}")


def git_commit() -> str:
    # Without this check git would look for a repository above the checkout.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _qvar_modules() -> dict[str, object]:
    return {k: m for k, m in sys.modules.items() if k == "qvar" or k.startswith("qvar.")}


def fresh_import() -> None:
    """Import every qvar module afresh in this process (numpy stays loaded),
    then put back the modules in use, which the workloads and the tracer
    hold."""
    in_use = _qvar_modules()
    for name in in_use:
        del sys.modules[name]
    try:
        importlib.import_module("qvar.cli")
    finally:
        for name in _qvar_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


class SetUp:
    """Times set-up passes: importing qvar afresh, plus the workload's input
    generation.  Passes are spread over the run, one before each
    repetition, so that their median sees the same machine as the
    repetitions do."""

    def __init__(self, cls, seed: int, workdir: Path, clock: Clock) -> None:
        self.cls, self.seed, self.workdir, self.clock = cls, seed, workdir, clock
        self.raw: list[float] = []
        self.norm: list[float] = []

    def __call__(self, workdir: Path | None = None):
        spare = self.workdir / "setup"
        spare.mkdir(exist_ok=True)
        workload, raw, norm = self.clock.time(self._pass, workdir or spare)
        self.raw.append(raw)
        self.norm.append(norm)
        return workload

    def _pass(self, workdir: Path):
        fresh_import()
        return self.cls(self.seed, workdir)


@dataclass
class Rep:
    input: int
    wall: float
    norm: float
    outcome: object
    shape: dict[str, int]
    layers: dict[str, float] | None = None


def _section(gen) -> tuple[bool, object]:
    """Run a workload generator to its next ``yield``: (finished, result)."""
    try:
        next(gen)
    except StopIteration as stop:
        return True, stop.value
    return False, None


def repetition(workload, rep: int, clock: Clock, tracer: Tracer | None = None) -> Rep:
    gen = workload.run(rep)
    wall = norm = 0.0
    done = False
    if tracer is None:
        while not done:
            (done, raw), dt, dn = clock.time(_section, gen)
            wall, norm = wall + dt, norm + dn
    else:
        tracer.reset()
        restore = instrument(tracer)
        try:
            while not done:
                (done, raw), dt, dn = clock.time(tracer.run, ROOT_SPAN, _section, gen)
                wall, norm = wall + dt, norm + dn
        finally:
            restore()
    outcome = workload.check(raw)
    shape = dict(outcome.shape)
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer)
        shape.update({k: tracer.counts[k] for k in SHAPE_COUNTS})
    return Rep(rep % workload.INPUTS, wall, norm, outcome, shape, layers)


def measure(
    workload, seconds: float, set_up: SetUp, clock: Clock, tracer: Tracer | None
) -> tuple[list[Rep], list[Rep]]:
    """Repeat the workload until another repetition would pass ``seconds``;
    with a tracer, each untraced repetition is followed by a traced one on
    the same inputs."""
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = perf_counter()
    while True:
        set_up()
        rep = len(plain) + 1
        plain.append(repetition(workload, rep, clock))
        if tracer is not None:
            traced.append(repetition(workload, rep, clock, tracer))
        elapsed = perf_counter() - start
        enough = len(plain) >= (1 if tracer else MIN_REPS)
        if enough and elapsed * (1 + 1 / len(plain)) > seconds:
            return plain, traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    t, c, calls = tr.total, tr.counts, tr.calls
    m = {f"{layer}.self_s": tr.layer_self(layer) for layer in LAYERS}
    m.update({
        "variates.draw_s": t["variates.draw_variates"],
        "variates.draws": c["variates.draws"],
        "simulate.run_s": t["simulate.run_simulation"],
        "simulate.run_ns_per_customer": _ratio(
            t["simulate.run_simulation"] * 1e9, c["simulate.customers"]),
        "simulate.extract_s": t["simulate.extract_busy_periods"],
        "simulate.extract_us_per_period": _ratio(
            t["simulate.extract_busy_periods"] * 1e6, c["simulate.periods_extracted"]),
        "simulate.wait_sums_s": t["simulate.per_period_wait_sums"],
        "busy_period.validate_s": t["busy_period.validate_busy_period"],
        "busy_period.realizable_s": t["busy_period.is_realizable"],
        "busy_period.objective_s": t["busy_period.pairing_objective"],
        "busy_period.objective_calls": calls["busy_period.pairing_objective"],
        "stats.compute_s": t["stats.compute_stats"],
        "stats.ns_per_customer": _ratio(t["stats.compute_stats"] * 1e9, c["stats.customers"]),
        "analytics.compare_self_s": tr.self_time["analytics.compare_disciplines"],
        "permutations.enumerate_s": t["permutations.enumerate_realizable"],
        "permutations.orders": c["permutations.orders"],
        "permutations.descent_s": t["permutations.descent_to_lcfs"],
        "permutations.descent_swaps": c["permutations.descent_swaps"],
        "permutations.descent_ms_per_swap": _ratio(
            t["permutations.descent_to_lcfs"] * 1e3, c["permutations.descent_swaps"]),
        "instances.random_period_us": _ratio(
            t["instances.random_busy_period"] * 1e6, calls["instances.random_busy_period"]),
        "trace.unattributed_s": tr.self_time[ROOT_SPAN],
    })
    for n in range(3, 10):
        m[f"permutations.us_per_order.n{n}"] = _ratio(
            c[f"check.n{n}.s"] * 1e6, c[f"check.n{n}.orders"])
    return m


def src_lines() -> dict[str, int]:
    lines = {
        f"src_lines.{p.stem}": len(p.read_bytes().splitlines())
        for p in sorted((SRC / "qvar").glob("*.py"))
    }
    lines["src_lines.total"] = sum(lines.values())
    return lines


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def check_shape(name: str, seed: int, reps: list[Rep], extra: dict[str, int]) -> list[str]:
    """Differences in workload shape between repetitions on the same inputs
    in this run, and against the last run of the same workload and seed in
    this checkout.  ``extra`` is a shape measured once per run."""
    changed = []
    first: dict[tuple[int, bool], dict[str, int]] = {}
    for k, r in enumerate(reps):
        key = (r.input, r.layers is not None)
        if first.setdefault(key, r.shape) != r.shape:
            changed.append(f"repetition {k} shape {r.shape}, before {first[key]}")
    now = {f"input{i}": s for (i, traced), s in first.items() if not traced}
    if extra:
        now["run"] = extra
    path = OUT / f"{name}-seed{seed}.shape.json"
    before = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for key in sorted(now.keys() & before.keys()):
        if now[key] != before[key]:
            changed.append(f"{key} shape {now[key]}, previous run {before[key]}")
    path.write_text(json.dumps(before | now, indent=1) + "\n", encoding="utf-8")
    return changed


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    qvar_threads = os.environ.pop("QVAR_THREADS", None)
    load_start = os.getloadavg()[0]
    load_qvar()
    import numpy as np
    from workloads import CUSTOMERS, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    name, seed = args.workload, args.seed
    print(f"# perfbench {name} seed={seed} (held out: {HELD_OUT_SEED}) "
          f"seconds={args.seconds:g} trace={args.trace}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    clock = Clock()
    try:
        set_up = SetUp(WORKLOADS[name], seed, workdir, clock)
        workload = set_up(workdir)
        for _ in range(SETUP_PASSES - 1):
            set_up()
        # One untimed repetition first: the first pass over 10^6 customers
        # pays for growing the heap, which later repetitions reuse.
        warm = repetition(workload, 0, clock)
        plain, traced = measure(workload, args.seconds, set_up, clock, tracer)
        rss = peak_rss_bytes()
        # Work done only to report the shape comes after the peak RSS is read.
        run_shape = workload.trajectory_shape() if hasattr(workload, "trajectory_shape") else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reps = [warm] + plain + traced

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "QVAR_THREADS": "unset" if qvar_threads is None else f"{qvar_threads} (unset for the run)",
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }
    print("env " + json.dumps(env))
    print("wall_s per repetition: " + " ".join(f"{r.norm:.4f}" for r in plain)
          + "; raw: " + " ".join(f"{r.wall:.4f}" for r in plain)
          + ("; traced raw: " + " ".join(f"{r.wall:.4f}" for r in traced) if traced else ""))

    first = plain[0].outcome
    print("shape " + json.dumps(plain[0].shape | run_shape))
    if traced:
        print("traced shape " + json.dumps(traced[0].shape))
    for change in check_shape(name, seed, reps, run_shape):
        print(f"WARNING changed workload: {change}")

    # Repetitions on the same inputs repeat the same operations, so each
    # operation counts once: attempted and failed then depend on the seed,
    # not on how many repetitions fit in the time.  A repetition that fails
    # differently from the first one on its inputs breaks a gate.
    once: dict[int, object] = {}
    gate_errors = {e for r in reps for e in r.outcome.gate_errors}
    for r in reps:
        o = once.setdefault(r.input, r.outcome)
        if r.outcome.failures != o.failures:
            gate_errors.add(f"input {r.input}: failed operations differ between repetitions")
    attempted = sum(o.attempted for o in once.values())
    failed = sum(o.failed for o in once.values())
    failures = [f for o in once.values() for f in o.failures]
    if failures:
        path = OUT / f"{name}-seed{seed}.failures.json"
        path.write_text(json.dumps(failures, indent=1) + "\n", encoding="utf-8")
        print(f"failed operations: {failed} of {attempted}; inputs in {path.relative_to(ROOT)}")
    gate_errors = sorted(gate_errors)
    for e in gate_errors:
        print(f"GATE FAILED: {e}")
    print("gates: " + ("FAILED" if gate_errors else "pass"))

    wall = statistics.median(r.norm for r in plain)
    oracle_rates = [o.periods_verified / o.oracle_s for o in (r.outcome for r in plain) if o.oracle_s]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(set_up.norm),
        "peak_rss_mb": rss / 2**20,
        "raw.wall_s": statistics.median(r.wall for r in plain),
        "raw.setup_s": statistics.median(set_up.raw),
        "ref.kernel_ms": statistics.median(clock.kernel_s) * 1e3,
        "customers_per_s": first.customers / wall,
        "periods_verified_per_s": statistics.median(oracle_rates) if oracle_rates else 0.0,
        "failed_share": failed / attempted if attempted else 0.0,
        "cli.bytes_out": first.bytes_out,
        "permutations.violations": first.violations,
        "process.rss_bytes_per_customer": rss / CUSTOMERS if first.customers else 0.0,
        **dict.fromkeys(SHAPE_METRICS, 0),
        **plain[0].shape,
        **run_shape,
        **src_lines(),
    }
    if traced:
        for key in traced[0].layers:
            metrics[key] = statistics.median(r.layers[key] for r in traced)
        metrics["trace.overhead_s"] = statistics.median(
            t.norm - p.norm for p, t in zip(plain, traced)
        )
        path = OUT / f"{name}-seed{seed}.trace.json"
        path.write_text(json.dumps(tracer.to_dict()) + "\n", encoding="utf-8")
        print(f"spans in {path.relative_to(ROOT)}")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in metrics:
            print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    for m in chosen:
        if m["name"] not in metrics:
            sys.exit(f"perfbench: metric {m['name']!r} of BENCHMARK.json is not measured")
        report[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    correct = not gate_errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, untraced then traced, each in its own process so that
    peak RSS belongs to one workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                sys.exit(f"perfbench: {w['name']} (trace {trace}) exited {proc.returncode} without a result")
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for key, value in result["metrics"].items():
                metrics[f"{w['name']}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    # On SIGTERM unwind normally, so that a running child is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
