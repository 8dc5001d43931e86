"""Timing statistics and the span tracer behind the per-layer metrics.

Standard library only, so the tests of these helpers need neither numpy nor
the package under test.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the value is one or two outliers, not a tail.
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank ``p``-th percentile, refused unless ``MIN_BEYOND`` samples exceed its rank."""
    xs = sorted(samples)
    n = len(xs)
    if not 0 < p < 100:
        raise ValueError(f"percentile must lie strictly inside (0, 100), got {p}")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(n - rank, 0)} samples beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return xs[rank - 1]


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` is a sequence of ``(name, parent, start, end)`` where ``parent``
    is the index of the enclosing span or -1.  A span's self time is its
    duration minus the part of that interval covered by the union of its
    children's intervals (children of one parent may overlap when they ran on
    different threads).
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for idx, (name, _parent, start, end) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[name] += (end - start) - covered
    return dict(totals)


def call_counts(spans) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for name, *_ in spans:
        counts[name] += 1
    return dict(counts)


class Tracer:
    """In-memory spans around wrapped callables, nested by a call stack.

    The stack is shared, so a traced pass must run on one thread; the
    benchmark runs traced passes with ``PREGOLS_THREADS=1``.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self._stack: list[int] = []
        self._clock = clock
        self._patches: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
