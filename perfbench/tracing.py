"""Spans and counters around mononet's public functions, installed from outside.

``Tracer.install`` replaces each target function with a wrapper in every
``mononet`` module (or class) that binds it, and ``uninstall`` puts the
originals back, so untraced operations run the unmodified program.  Spans
(name, start, end, parent) stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr``, recorded under ``name``.

    ``owner`` is the module that defines the function or the class that
    holds the method.  ``count_only`` targets get a call counter and no
    span, so their time stays in their caller's self time.  ``weight``
    maps the call's arguments to an extra count recorded as ``name.weight``.
    """

    owner: object
    attr: str
    name: str
    count_only: bool = False
    weight: Callable[..., int] | None = None


class Tracer:
    def __init__(self):
        # (name, start, end, parent span index or -1, operation index)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, target: Target, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        name = target.name

        def traced(*args, **kwargs):
            counts[(self.op, name)] += 1
            if target.weight is not None:
                counts[(self.op, name + ".weight")] += target.weight(*args, **kwargs)
            if target.count_only:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def _memory_wrapper(self, target: Target, fn):
        counts = self.counts
        name = target.name

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                counts[(self.op, name + ".peak_bytes")] += peak

        return measured

    # -- installation -----------------------------------------------------

    def install(self, targets, memory: bool = False) -> None:
        """Wrap every target, for spans or (``memory=True``) for tracemalloc peaks."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        make = self._memory_wrapper if memory else self._span_wrapper
        for target in targets:
            if isinstance(target.owner, type):
                raw = target.owner.__dict__[target.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(target, raw.__func__))
                else:
                    wrapped = make(target, raw)
                self._saved.append((target.owner, target.attr, raw))
                setattr(target.owner, target.attr, wrapped)
                continue
            original = getattr(target.owner, target.attr)
            wrapped = make(target, original)
            package = target.owner.__name__.split(".")[0]
            for module in list(sys.modules.values()):
                if module is None or not module.__name__.startswith(package):
                    continue
                if getattr(module, target.attr, None) is original:
                    self._saved.append((module, target.attr, original))
                    setattr(module, target.attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[tuple[int, str], float]:
        """Seconds per (operation, span name): duration minus direct children."""
        out: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent, op), children in zip(self.spans, child_time):
            out[(op, name)] += end - start - children
        return out

    def root_times(self) -> dict[int, float]:
        """Seconds per operation covered by its top-level spans."""
        out: Counter = Counter()
        for name, start, end, parent, op in self.spans:
            if parent < 0:
                out[op] += end - start
        return out

    def to_dict(self) -> dict:
        """Spans as columns, times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "spans": [
                [index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, op]
                for n, s, e, p, op in self.spans
            ],
        }
