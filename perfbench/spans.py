"""Span tracing from outside the program, for the benchmark's traced runs.

The tracer replaces a public function by a wrapper on its defining module and
on every ``fairaudit`` module that imported the same function object with
``from ... import``.  Callers that look the name up at call time, including a
function calling itself, then go through the wrapper.  Each call records one
span (name, start, end, parent) plus counts read from the return value.  Spans
stay in memory; :func:`layer_metrics` reduces them to per-layer figures.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, function, span name, counter) -- the counter maps the return value
# to the counts recorded on the span
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("data", "load_csv", "data.load_csv", lambda r: {"rows": len(r)}),
    ("data", "dataset_to_csv", "data.dataset_to_csv", lambda r: {"bytes": len(r.encode("utf-8"))}),
    ("groupfair", "group_metric", "groupfair.group_metric", None),
    ("groupfair", "impact_ci", "groupfair.impact_ci", lambda r: {"replicates": r.n_boot or 0}),
    ("rocstats", "roc_curve", "rocstats.roc_curve", None),
    ("rocstats", "auc", "rocstats.auc", None),
    ("depmeasure", "pearson", "depmeasure", None),
    ("depmeasure", "maximal_correlation", "depmeasure", None),
    ("depmeasure", "conditional_maximal_correlation", "depmeasure", None),
    ("depmeasure", "mutual_information", "depmeasure", None),
    ("indivfair", "lipschitz_audit", "indivfair.lipschitz_audit", lambda r: {"pairs": r.checked_pairs}),
    ("indivfair", "reconstruction_audit", "indivfair.reconstruction_audit", None),
    (
        "mitigate", "train_logistic", "mitigate.train_logistic",
        lambda r: {"iters": r.n_iter, "converged": int(r.converged)},
    ),
    ("mitigate", "per_group_thresholds", "mitigate.per_group_thresholds", None),
    ("mitigate", "equalize_odds", "mitigate.equalize_odds", None),
    ("mitigate", "massage_labels", "mitigate.massage_labels", lambda r: {"swaps": len(r.swaps)}),
    ("mitigate", "reweigh", "mitigate.reweigh", None),
    ("mitigate", "di_remove", "mitigate.di_remove", None),
)

ROOT = "cli"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records a span for every call to a target while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, counter: Callable | None, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else None, time.perf_counter()))
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            self.spans[idx].counts = counter(result)
        return result

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, counter, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("fairaudit.")]
        for mod_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"fairaudit.{mod_name}"], attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _duration(s: Span) -> float:
    return s.end - s.start


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce one pass's spans to per-layer busy/self times, calls and counts.

    A layer's busy time counts only its outermost spans, so a function that
    calls itself is not counted twice.  Self time is the time of all its spans
    minus the time their direct child spans cover, so ``cli.self_s`` is the
    command time minus all wrapped children.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def nested_in_same_layer(i: int) -> bool:
        p = spans[i].parent
        while p is not None:
            if spans[p].name == spans[i].name:
                return True
            p = spans[p].parent
        return False

    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        child_time = sum(_duration(spans[c]) for c in children.get(i, ()))
        key = s.name
        out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
        for cname, v in s.counts.items():
            out[f"{key}.{cname}"] = out.get(f"{key}.{cname}", 0) + v
        out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + _duration(s) - child_time
        if not nested_in_same_layer(i):
            out[f"{key}.busy_s"] = out.get(f"{key}.busy_s", 0.0) + _duration(s)
    top = [c for i, s in enumerate(spans) if s.name == ROOT for c in children.get(i, ())]
    out["top_level_busy_s"] = sum(_duration(spans[c]) for c in top)
    return out
