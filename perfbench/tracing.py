"""In-memory spans around dpreg's public functions, installed from outside.

A target names a function of a dpreg module (``"simplex.exact_group_stats"``)
or a method of one of its classes (``"noise.RandomStream.laplace"``).
Installing a function target replaces it under every name the package's
modules resolve it by: the defining module, each ``from .x import f`` copy,
and entries of module-level dicts such as fitter registries. A method target
is replaced on its class. ``restore`` puts every original back. A target the
package no longer has is listed in ``absent`` instead of raising, so the
benchmark keeps running while functions are renamed or removed.

Each wrapped call records one span: name, start and end (``perf_counter_ns``),
the span that was open when it started, and the current run id. Self time is
the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "dpreg"
_SEEN = "perfbench.seen"
SPAN_FIELDS = ["name", "start_ns", "end_ns", "parent", "run_id", "span_id"]


def _first_sight(name, data, key=()):
    """True the first time ``data`` reaches the target; marks it in its cache.

    Objects without a ``cache`` dict (raw records, which the package converts
    afresh on every call) count as new on every call.
    """
    cache = getattr(data, "cache", None)
    if not isinstance(cache, dict):
        return True
    mark = (_SEEN, name) + key
    if mark in cache:
        return False
    cache[mark] = True
    return True


def _count_distinct(tracer, name, args, kwargs, result):
    data = args[0] if args else kwargs.get("data")
    if _first_sight(name, data):
        tracer.counts[name + ".distinct"] += 1
        tracer.counts[name + ".rows"] += len(data)


def _count_poly_rows(tracer, name, args, kwargs, result):
    data = args[0] if args else kwargs.get("data")
    degree = args[1] if len(args) > 1 else kwargs.get("degree")
    if _first_sight(name, data, (degree,)):
        tracer.counts[name + ".rows"] += len(data)


def _count_fallback(tracer, name, args, kwargs, result):
    if getattr(result, "fallback", False):
        tracer.counts[name + ".fallbacks"] += 1


def _count_values(tracer, name, args, kwargs, result):
    values = args[0] if args else kwargs.get("values")
    tracer.counts[name + ".values"] += int(np.size(values))


def _count_variates(tracer, name, args, kwargs, result):
    tracer.counts[name + ".variates"] += int(np.size(result))


# Span name -> counter hook. ``Dataset.__init__`` is named ``Dataset.init``.
TARGETS = {
    "cli.main": None,
    "data.Dataset.from_records": None,
    "data.Dataset.init": None,
    "simplex.exact_group_stats": _count_distinct,
    "simplex.privatize_groups": None,
    "simplex.refine": None,
    "polynomial.poly_exact_groups": _count_poly_rows,
    "polynomial.dp_rss_poly_fit": _count_fallback,
    "mechanisms.dp_rss_fit": _count_fallback,
    "mechanisms.dp_ss_fit": _count_fallback,
    "mechanisms.dp_theil_sen_fit": _count_fallback,
    "median.dp_median": _count_values,
    "noise.RandomStream.init": None,
    "noise.RandomStream.laplace": _count_variates,
    "noise.RandomStream.permutation": None,
    "noise.RandomStream.uniform": None,
    "noise.RandomStream.normal": None,
    "evaluate.run_experiment": None,
    "evaluate.l1_error": None,
    "evaluate.l2_error": None,
    "evaluate.simulate_refined_stats": None,
    "evaluate.simulate_baseline_stats": None,
    "evaluate.verify_variances": None,
}


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self):
        self.run_id = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One tuple per finished call: (name id, start ns, end ns, parent
        # span id or -1, run id, span id).
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total ns, self ns]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [span id, child ns]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, func, hook):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                spans.append((name_id, start, end, parent, tracer.run_id, span_id))
            if hook is not None:
                hook(tracer, name, args, kwargs, result)
            return result

        return wrapper

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self, name: str, hook=None) -> bool:
        """Wrap one target; returns False and records it as absent if missing."""
        module_name, *path = name.split(".")
        leaf = "__init__" if path[-1] == "init" else path[-1]
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return False
        if isinstance(owner, type):
            raw = owner.__dict__.get(leaf)
            if raw is None:
                self.absent.append(name)
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, hook))
            else:
                wrapped = self._wrap(name, raw, hook)
            setattr(owner, leaf, wrapped)
            self._undo.append((setattr, owner, leaf, raw))
            return True
        original = getattr(owner, leaf, None)
        if original is None:
            self.absent.append(name)
            return False
        wrapper = self._wrap(name, original, hook)
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((setattr, module, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append((dict.__setitem__, value, k, original))
        return True

    def install_all(self, targets=None) -> "Tracer":
        for name, hook in (TARGETS if targets is None else targets).items():
            self.install(name, hook)
        return self

    def restore(self) -> None:
        """Put every replaced attribute and dict entry back, newest first."""
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    # -- output ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self seconds, and counters."""
        return {
            "stats": {k: {"calls": v[0], "s": v[1] / 1e9, "self_s": v[2] / 1e9}
                      for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }

    def span_records(self, limit: int | None = None) -> list[list]:
        """Spans as ``[name, start_ns, end_ns, parent, run_id, span_id]``."""
        spans = self.spans if limit is None else self.spans[:limit]
        return [[self.names[s[0]], *s[1:]] for s in spans]
