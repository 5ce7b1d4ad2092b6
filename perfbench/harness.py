"""Measurement helpers of the benchmark that know nothing of fluxrecon.

* `OpLog` runs operations one at a time and counts attempts and
  failures.
* `tail_percentile` picks the highest percentile that still has at
  least ten samples beyond it.
* `Tracer` records spans (name, start, end, parent) in memory, can swap
  traced wrappers in for functions and methods for the length of a
  `with` block, and `self_times` turns its spans into self times.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy
import scipy

# Highest first; a percentile qualifies once `TAIL_BEYOND` samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def tail_percentile(samples: Iterable[float], ladder=TAIL_LADDER,
                    beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """(percentile, value) of the highest ladder percentile with at least
    `beyond` samples ranked after it, by the nearest-rank rule; None when
    the sample count is too small for any of them."""
    xs = sorted(samples)
    n = len(xs)
    for p in ladder:
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))  # 1-based nearest rank
        if n - rank >= beyond:
            return p, xs[rank - 1]
    return None


class OpLog:
    """Attempt and failure accounting for a closed loop of operations.

    A failed operation is any that raises: a `FluxreconError` from the
    package, a failed output check, or any other exception. It is counted
    and reported, and the run goes on with the next operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn: Callable[[], object]):
        """Run one operation; its result, or None when it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory spans for one process with one caller thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]].name if self._open else None

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(sid, name, self.clock(), parent, attrs=attrs))
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid].end = self.clock()

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None,
             under: str | None = None) -> Callable:
        """`fn` inside a span. `attrs(*args, **kwargs)` gives counts to
        attach; with `under` set, only calls made while the innermost
        open span's name starts with `under` get a span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if under is not None and not (self.current() or "").startswith(under):
                return fn(*args, **kwargs)
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each `(owner, attribute, span name, attrs, under)`
        target by its traced wrapper, restoring the originals on exit."""
        saved = []
        try:
            for owner, attr, name, attrs, under in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs, under))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_json(self) -> list[dict]:
        return [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children[s.sid], key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def per_root(spans: list[Span]) -> dict[int, dict]:
    """For each root span: self time and total time summed per span name
    over its tree, and every count attached to a span of the tree summed
    per key. Total time counts a span nested in one of the same name once."""
    selfs = self_times(spans)
    root: list[int] = []
    totals: dict[int, dict] = {}
    for s in spans:  # a parent always opens, so is listed, before its children
        r = s.sid if s.parent is None else root[s.parent]
        root.append(r)
        if r not in totals:
            totals[r] = {"self": defaultdict(float), "total": defaultdict(float),
                         "counts": defaultdict(float)}
        totals[r]["self"][s.name] += selfs[s.sid]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            totals[r]["total"][s.name] += s.end - s.start
        for key, value in s.attrs.items():
            totals[r]["counts"][key] += value
    return totals


def environment(blas_threads: int) -> dict:
    """Interpreter, numpy, scipy and BLAS build facts a result depends on."""
    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy), "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads}
