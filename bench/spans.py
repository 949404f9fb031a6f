"""Outside-in tracing: wrappers around layer entry points, installed from the
benchmark only, that record spans and counters in memory.

A span is ``(name, start, end, parent, op)``; its layer is the part of the
name before the first dot.  A layer's self time is the time of its spans
minus the part of each span's interval that its child spans cover.

The tracer keeps one stack of open spans, so the wrapped code must run on
one thread; the benchmark sets ``FAIRPOST_THREADS=1`` for that reason.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    op: int | None      # op id the span belongs to

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` becomes a span named ``name``.

    ``count(args, kwargs, result)`` returns counter increments recorded when
    the call returns; a call that raises adds one to ``<name>.raised``.
    """

    owner: object
    attr: str
    name: str
    count: object = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for ch in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
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
        out.append((sp.end - sp.start) - covered)
    return out


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._open: list[int] = []
        self._starts: dict[int, float] = {}

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        # placeholder keeps indices stable while children are recorded
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._open.append(idx)
        self._starts[idx] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        self._open.pop()
        sp = self.spans[idx]
        self.spans[idx] = Span(sp.name, self._starts.pop(idx), end, sp.parent, sp.op)

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.raised"] += 1
                raise
            finally:
                self._exit(idx)
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore
        the original attributes."""
        saved = []
        try:
            for t in targets:
                if isinstance(t.owner, type):
                    raw = t.owner.__dict__[t.attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(raw.__func__, t.name, t.count))
                    else:
                        new = self.wrap(raw, t.name, t.count)
                else:
                    raw = getattr(t.owner, t.attr)
                    new = self.wrap(raw, t.name, t.count)
                saved.append((t.owner, t.attr, raw))
                setattr(t.owner, t.attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def totals(self, weights: dict) -> tuple[dict, dict]:
        """Self-time sums by span name and by layer over the spans of the
        ops in ``weights``, each span's time multiplied by its op's weight."""
        by_name: dict = defaultdict(float)
        by_layer: dict = defaultdict(float)
        for sp, st in zip(self.spans, self_times(self.spans)):
            if sp.op in weights:
                by_name[sp.name] += st * weights[sp.op]
                by_layer[sp.layer] += st * weights[sp.op]
        return dict(by_name), dict(by_layer)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [[s.name, s.start, s.end, s.parent, s.op]
                                 for s in self.spans],
                       "counts": dict(self.counts)}, fh)
            fh.write("\n")
