"""In-memory span tracing from outside the program.

A ``Tracer`` replaces a function where its caller looks it up (a module
global such as ``pipeline.parse_record_set``, or a method on its class) with a
wrapper that records a span around each call. Spans carry a name, start, end,
the id of the span that caused them and the workload iteration they belong
to; they stay in memory until the run ends. Calls made on worker threads are
parented to the span open on the thread that created the tracer.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.iteration = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = {"id": next(self._ids), "parent": parent, "name": name,
                  "iteration": self.iteration, "attrs": attrs}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Trace calls to ``owner.attr``; ``observe(args, result)`` adds span attributes."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if observe is not None:
                    record["attrs"].update(observe(args, result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            start, end = max(child["start"], reach), min(child["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def percentiles(samples: list[float]) -> dict[str, float]:
    """Median, and the highest of p75/p90/p95/p99/p99.9 with at least ten samples beyond it.

    With fewer than forty samples no tail percentile qualifies and the tail
    falls back to the median (``tail_pct`` 50).
    """
    if not samples:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    ordered = sorted(samples)
    n = len(ordered)

    def at(pct: float) -> float:
        return ordered[min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))]

    tail_pct = 50.0
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1 - pct / 100) >= 10:
            tail_pct = pct
    return {"p50": at(50.0), "tail": at(tail_pct), "tail_pct": tail_pct, "n": n}

