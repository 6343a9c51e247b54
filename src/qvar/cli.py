"""Command-line front end.

Four subcommands::

    qvar simulate   one run, waiting-time statistics as JSON or CSV
    qvar compare    several disciplines x seeds, aggregated into one table
    qvar enumerate  exact extremality certificates for busy periods of any length
    qvar descent    stream the swap-by-swap walk from an order to the stack order

Exit codes: 0 success; 1 runtime failure; 2 invalid flags or malformed
input; 3 the exact oracle found an order outside the proven envelope (a
counterexample, distinct from any operational error).

Every file written via ``--out`` (or ``--trace``) gets a sibling
``<path>.manifest.json`` recording the tool version, timestamp, arguments,
and configuration, so any output can be reproduced exactly.  Identical
flag sets produce byte-identical outputs apart from that timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .busy_period import BusyPeriod
from .errors import (
    ConfigError,
    ExtremalityViolationError,
    MalformedInputError,
    QvarError,
    ValidationError,
)
from .analytics import compare_disciplines, csv_table
from .instances import random_busy_period, random_realizable_permutation
from .permutations import check_extremality, descent_to_lcfs, fcfs_permutation
from .simulate import (
    Discipline,
    SimConfig,
    _check_discipline,
    run_simulation,
    write_trace_jsonl,
)
from .stats import DEFAULT_WARMUP, _check_warmup, compute_stats
from .variates import _check_rate, _check_seed, _check_stable

__all__ = ["main", "build_parser"]

# The --max-n default: --random draws periods of 2..10 customers.
DEFAULT_MAX_N = 10
# Largest --random period size.  The bound is the CLI's, not the exact
# oracle's, which takes about 0.1 ms on a period of 14 customers.
RANDOM_MAX_N = 14


def _rng(seed: int) -> np.random.Generator:
    """The generator behind ``enumerate --random`` and ``descent --start random``."""
    return np.random.default_rng(_check_seed(seed))


def _write_manifest(
    anchor: Path, command: str, argv: list[str], config: dict, outputs: list[str]
) -> None:
    manifest = {
        "tool": "qvar",
        "version": __version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "argv": argv,
        "config": config,
        "outputs": outputs,
    }
    Path(str(anchor) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def _read_json(path: str) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None
    # ValueError also covers undecodable bytes and an int past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"{path}: invalid JSON: {exc}") from None


def _sim_config(
    args: argparse.Namespace, seed: int, discipline: Discipline | str
) -> SimConfig:
    """The run configuration given by the shared run flags; ``simulate`` and
    ``compare`` refuse an unstable one."""
    # Checked before the config is built, so the error names the flag.
    _check_rate("--lambda", args.arrival_rate)
    _check_rate("--mu", args.service_rate)
    _check_stable("--lambda", args.arrival_rate, "--mu", args.service_rate)
    return SimConfig(
        arrival_rate=args.arrival_rate,
        service_rate=args.service_rate,
        num_arrivals=args.arrivals,
        seed=seed,
        discipline=discipline,
        arrival_dist=args.arrival_dist,
        service_dist=args.service_dist,
    )


def _emit(args: argparse.Namespace, payload: str, config: dict, extra_outputs: list[str]) -> None:
    """Send payload to --out (with manifest) or stdout; manifest also covers
    any extra files already written (e.g. a trace dump)."""
    outputs = list(extra_outputs)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        outputs.append(args.out)
        _write_manifest(Path(args.out), args.command, args.raw_argv, config, outputs)
    else:
        sys.stdout.write(payload)
        if extra_outputs:
            _write_manifest(
                Path(extra_outputs[0]), args.command, args.raw_argv, config, outputs
            )


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _sim_config(args, args.seed, args.discipline)
    _check_warmup(args.warmup)
    trace = run_simulation(cfg)
    stats = compute_stats(trace, args.warmup)
    extra: list[str] = []
    if args.trace:
        write_trace_jsonl(trace, args.trace)
        extra.append(args.trace)
    d = stats.to_dict()
    if args.format == "csv":
        payload = csv_table(list(d), [d])
    else:
        payload = json.dumps(d, indent=2) + "\n"
    config = dict(cfg.to_dict(), warmup_fraction=args.warmup)
    _emit(args, payload, config, extra)
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    return seeds


def _parse_disciplines(text: str) -> tuple[Discipline, ...]:
    out = tuple(_check_discipline(part.strip()) for part in text.split(",") if part.strip())
    if not out:
        raise ConfigError("--disciplines must name at least one discipline")
    return out


def _cmd_compare(args: argparse.Namespace) -> int:
    seeds = _parse_seeds(args.seeds)
    disciplines = _parse_disciplines(args.disciplines)
    base = _sim_config(args, seeds[0], disciplines[0])
    table = compare_disciplines(
        base,
        seeds,
        disciplines=disciplines,
        warmup_fraction=args.warmup,
        oracle=args.oracle,
    )
    if args.format == "json":
        payload = json.dumps(table.to_dict(), indent=2) + "\n"
    else:
        payload = table.to_csv()
    config = dict(
        base.to_dict(),
        seeds=seeds,
        disciplines=[d.value for d in disciplines],
        warmup_fraction=args.warmup,
        oracle=args.oracle,
    )
    del config["seed"], config["discipline"]
    _emit(args, payload, config, [])
    return 0


def _load_instances(path: str) -> list[BusyPeriod]:
    data = _read_json(path)
    if isinstance(data, list):
        if not data:
            raise MalformedInputError(f"{path}: the array holds no busy periods")
        return [BusyPeriod.from_dict(d) for d in data]
    if isinstance(data, dict):
        return [BusyPeriod.from_dict(data)]
    raise MalformedInputError(
        f"{path}: expected a busy-period object or an array of them"
    )


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.random is None):
        raise ConfigError("exactly one of --input or --random is required")
    if args.input is not None:
        instances = _load_instances(args.input)
    else:
        if args.random < 1:
            raise ConfigError(f"--random must be >= 1, got {args.random}")
        if not 2 <= args.max_n <= RANDOM_MAX_N:
            raise ConfigError(
                f"--max-n must be between 2 and {RANDOM_MAX_N} for random "
                f"instances, got {args.max_n}"
            )
        rng = _rng(args.seed)
        sizes = rng.integers(2, args.max_n + 1, size=args.random)
        instances = [random_busy_period(rng, int(k)) for k in sizes]
    records = [
        {"index": idx, "n": bp.n, **check_extremality(bp).to_dict()}
        for idx, bp in enumerate(instances, start=1)
    ]
    # Counts of orders can pass the 4,300-digit int-to-str limit of Python 3.10.7+.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        payload = "".join(json.dumps(r) + "\n" for r in records)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    config = {
        "input": args.input,
        "random": args.random,
        "max_n": args.max_n,
        "seed": args.seed,
    }
    _emit(args, payload, config, [])
    return 0


def _cmd_descent(args: argparse.Namespace) -> int:
    data = _read_json(args.input)
    if not isinstance(data, dict):
        raise MalformedInputError(
            f"{args.input}: expected a single busy-period object"
        )
    bp = BusyPeriod.from_dict(data)
    if args.start == "identity":
        start = fcfs_permutation(bp)
    else:
        start = random_realizable_permutation(_rng(args.seed), bp)
    trace = descent_to_lcfs(bp, start)
    payload = trace.to_jsonl()
    if payload:
        payload += "\n"
    config = {"input": args.input, "start": args.start, "seed": args.seed}
    _emit(args, payload, config, [])
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--lambda",
        dest="arrival_rate",
        type=float,
        required=True,
        metavar="RATE",
        help="arrival rate (mean inter-arrival time 1/RATE)",
    )
    p.add_argument(
        "--mu",
        dest="service_rate",
        type=float,
        required=True,
        metavar="RATE",
        help="service rate (mean service time 1/RATE)",
    )
    p.add_argument(
        "--arrivals",
        type=int,
        required=True,
        metavar="N",
        help="number of customers to generate",
    )
    p.add_argument(
        "--arrival-dist",
        default="exponential",
        metavar="DIST",
        help="exponential | deterministic | uniform[:lo,hi] (mean fixed at 1/lambda)",
    )
    p.add_argument(
        "--service-dist",
        default="exponential",
        metavar="DIST",
        help="exponential | deterministic | uniform[:lo,hi] (mean fixed at 1/mu)",
    )
    p.add_argument(
        "--warmup",
        type=float,
        default=DEFAULT_WARMUP,
        metavar="F",
        help="fraction of customers to discard before computing statistics",
    )
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        help="report format (simulate defaults to json, compare to csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvar",
        description=(
            "Single-server queueing laboratory: how the service discipline "
            "moves waiting-time variance between the first-come minimum and "
            "the last-come maximum."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run one simulation and report wait statistics")
    _add_run_flags(sim)
    sim.add_argument(
        "--discipline",
        choices=[d.value for d in Discipline],
        default=Discipline.FCFS.value,
        help="who is served when the server frees up (default fcfs)",
    )
    sim.add_argument("--seed", type=int, default=0, help="64-bit unsigned run seed")
    sim.add_argument(
        "--trace",
        metavar="PATH",
        help="also dump the per-customer trace as JSON lines",
    )
    sim.set_defaults(func=_cmd_simulate, format="json")

    cmp_ = sub.add_parser(
        "compare", help="run several disciplines over shared seeds and tabulate"
    )
    _add_run_flags(cmp_)
    cmp_.add_argument(
        "--seeds",
        required=True,
        metavar="S1,S2,...",
        help="comma-separated seeds; each discipline runs every seed",
    )
    cmp_.add_argument(
        "--disciplines",
        default="fcfs,lcfs,random",
        metavar="D1,D2,...",
        help="comma-separated subset of fcfs,lcfs,random",
    )
    cmp_.add_argument(
        "--oracle",
        action="store_true",
        help="attach closed-form variance predictions (exponential/exponential only)",
    )
    cmp_.set_defaults(func=_cmd_compare, format="csv")

    enum = sub.add_parser(
        "enumerate",
        help="certify exactly that arrival and stack order are the extremes",
    )
    enum.add_argument(
        "--input", metavar="PATH", help="busy-period JSON (one object or an array)"
    )
    enum.add_argument(
        "--random",
        type=int,
        metavar="N",
        help="instead of --input, check N random busy periods",
    )
    enum.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        metavar="K",
        help=(
            f"--random draws periods of 2..K customers, K at most "
            f"{RANDOM_MAX_N}; --input periods may have any length"
        ),
    )
    enum.add_argument("--seed", type=int, default=0, help="seed for --random")
    enum.add_argument("--out", metavar="PATH", help="write reports here instead of stdout")
    enum.set_defaults(func=_cmd_enumerate)

    desc = sub.add_parser(
        "descent",
        help="walk a service order down to the stack order, one swap per line",
    )
    desc.add_argument("--input", required=True, metavar="PATH", help="busy-period JSON")
    desc.add_argument(
        "--start",
        choices=["identity", "random"],
        default="identity",
        help="starting order: arrival order, or a random realizable order",
    )
    desc.add_argument("--seed", type=int, default=0, help="seed for --start random")
    desc.add_argument("--out", metavar="PATH", help="write the trace here instead of stdout")
    desc.set_defaults(func=_cmd_descent)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call and then kept:
    parsing leaves it unchanged, and building it at import would slow every
    import of this module."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    args.raw_argv = raw
    try:
        # numpy's overflow warnings would precede a refusal's one ``error:``
        # line; ``compare`` starts its workers with the filter.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return int(args.func(args))
    except ExtremalityViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # OverflowError: an objective past the float range; MemoryError: a run
    # too long to hold.
    except (OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
