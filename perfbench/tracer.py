"""Span tracing for the benchmark, installed from outside the program.

``instrument`` wraps every public function of each qvar layer and rebinds
each name under which a qvar module holds that function -- the module's
own global and every ``from .x import f`` copy -- so calls between layers
pass through the wrapper exactly as the program makes them.  Spans nest as
the calls do; a span's self time is its length minus the time its child
spans cover.

Spans are aggregated per name as they close (total, self, calls), so hot
leaf functions called millions of times cost no memory.  The first
``MAX_SPANS`` spans are also kept whole (id, name, start, end, parent id)
for writing out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

# The modules under src/qvar whose public functions are traced, in call order
# from the top: the CLI drives analytics, which drives the simulator, and so on.
LAYERS = (
    "cli",
    "analytics",
    "stats",
    "simulate",
    "variates",
    "permutations",
    "instances",
    "busy_period",
)
# Name of the span the benchmark opens around one repetition of a workload;
# its self time is the time no traced layer accounts for.
ROOT = "bench"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


# Counters recorded at the layer boundaries, keyed by the traced name.  Each
# hook sees the call's arguments, result and duration and adds to the
# counter table.
def _count_draws(c, args, kwargs, result, dur):
    c["variates.draws"] += int(_arg(args, kwargs, 2, "size"))


def _count_customers(c, args, kwargs, result, dur):
    c["simulate.customers"] += result.n
    c["simulate.periods_simulated"] += result.num_periods


def _count_extracted(c, args, kwargs, result, dur):
    c["simulate.periods_extracted"] += len(result)


def _count_stats(c, args, kwargs, result, dur):
    c["stats.customers"] += result.count + result.warmup_discarded


def _count_orders(c, args, kwargs, result, dur):
    c["permutations.orders"] += len(result)


def _count_swaps(c, args, kwargs, result, dur):
    c["permutations.descent_swaps"] += result.swap_count


def _count_checked(c, args, kwargs, result, dur):
    # Kept per period size, for the cost of one realizable order by n.
    n = _arg(args, kwargs, 0, "bp").n
    c[f"check.n{n}.orders"] += result.num_realizable
    c[f"check.n{n}.s"] += dur


# The counters that fix the amount of work: equal inputs give equal counts.
SHAPE_COUNTS = (
    "variates.draws",
    "simulate.customers",
    "simulate.periods_simulated",
    "simulate.periods_extracted",
    "permutations.orders",
    "permutations.descent_swaps",
)

HOOKS: dict[str, Callable] = {
    "variates.draw_variates": _count_draws,
    "simulate.run_simulation": _count_customers,
    "simulate.extract_busy_periods": _count_extracted,
    "stats.compute_stats": _count_stats,
    "permutations.enumerate_realizable": _count_orders,
    "permutations.descent_to_lcfs": _count_swaps,
    "permutations.check_extremality": _count_checked,
}


class Tracer:
    MAX_SPANS = 100_000

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [id, name, start, child_time]
        self._next_id = 0

    def reset(self) -> None:
        """Forget the aggregates (kept spans stay), e.g. between repetitions."""
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else -1))
        else:
            self.dropped += 1
        return dur

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(frame)
            if hook is not None:
                hook(self.counts, args, kwargs, result, dur)
            return result

        return traced

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def to_dict(self) -> dict[str, object]:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "spans_dropped": self.dropped,
            "by_name": {
                k: {"calls": self.calls[k], "total_s": self.total[k], "self_s": self.self_time[k]}
                for k in sorted(self.calls)
            },
        }


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Route every public qvar function through ``tracer``; return the undo."""
    modules = [importlib.import_module("qvar")] + [
        importlib.import_module(f"qvar.{layer}") for layer in LAYERS
    ]
    wrappers: dict[int, Callable] = {}
    for layer, mod in zip(LAYERS, modules[1:]):
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    undo: list[tuple[object, str, object]] = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def restore() -> None:
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    return restore
