"""Spans and counters recorded around calls into uisbench's layers, from outside.

Nothing under ``src/`` is edited. The tracer replaces module attributes that
the layers call through with wrappers that open a span or bump a counter, and
puts every original back in :meth:`Tracer.restore`. An attribute that no longer
exists is recorded in ``missing`` rather than raising, so the run can report
the layers fed by it as missing instead of reading zero.

Span tree of one ``uisbench bench`` call::

    cli.main                      (opened by the benchmark around the call)
      bench.run                   (uisbench.cli.run_bench)
        bench.dist                (from one standard_vector entry to the next)
          oracle.standard_vector  (uisbench.bench.standard_vector)
          optim.fit.<K>           (uisbench.bench.fit)
      bench.artifacts             (write_report_csv, summarize, write_summary_json)

``uisbench.optim._predict_rows`` and ``uisbench.oracle.mce_update`` are
counted, not spanned: a bench run calls the first about 10^5 times. Spans stay
in memory and are written out with :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

BENCH_DIST = "bench.dist"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end")

    def __init__(self, span_id: int, parent: int | None, name: str, start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.counts: Counter[str] = Counter()
        # per fitted kind: (iterations, converged, max_iters) of every fit
        self.fits: defaultdict[str, list[tuple]] = defaultdict(list)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def _end_open_dist(self) -> None:
        if self._stack and self._stack[-1].name == BENCH_DIST:
            self.end(self._stack[-1])

    # --- wrappers ---------------------------------------------------------------

    def wrap(self, module, attr: str, make_wrapper) -> None:
        """Replace ``module.attr`` by ``make_wrapper(original)``; note it if absent."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not take it."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        not_restored = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._saved
            if getattr(module, attr, None) is not original
        ]
        self._saved.clear()
        return not_restored

    def timed(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def counted(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def run_bench(self, original):
        def wrapper(*args, **kwargs):
            with self.span("bench.run"):
                try:
                    return original(*args, **kwargs)
                finally:
                    self._end_open_dist()

        return wrapper

    def bench_standard_vector(self, original):
        # bench calls standard_vector first for each distribution, so its
        # entry is where one bench.dist span ends and the next begins
        def wrapper(*args, **kwargs):
            self._end_open_dist()
            self.begin(BENCH_DIST)
            with self.span("oracle.standard_vector"):
                return original(*args, **kwargs)

        return wrapper

    def fit(self, original):
        def wrapper(kind, *args, **kwargs):
            with self.span(f"optim.fit.{kind.value}"):
                result = original(kind, *args, **kwargs)
            settings = args[1] if len(args) > 1 else kwargs.get("settings")
            self.fits[kind.value].append(
                (
                    getattr(result, "iterations", None),
                    getattr(result, "converged", None),
                    getattr(settings, "max_iters", None),
                )
            )
            return result

        return wrapper

    def predict_rows(self, original):
        def wrapper(kind, values, *args, **kwargs):
            self.counts[f"models.{kind.value}.calls"] += 1
            self.counts[f"models.{kind.value}.rows"] += len(values)
            return original(kind, values, *args, **kwargs)

        return wrapper

    # --- reading the trace --------------------------------------------------------

    def seconds_by_name(self) -> dict[str, list[float]]:
        out: defaultdict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span.seconds)
        return out

    def self_seconds_by_name(self) -> dict[str, float]:
        """Per span name, total duration minus the time its child spans cover."""
        covered: Counter[int] = Counter()
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        out: Counter[str] = Counter()
        for span in self.spans:
            out[span.name] += span.seconds - covered[span.id]
        return out

    def root_seconds(self) -> float:
        return sum(span.seconds for span in self.spans if span.parent is None)

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.id, s.parent, s.name, s.start - t0, s.end - t0] for s in self.spans]
        with open(path, "w") as f:
            json.dump({"columns": ["id", "parent", "name", "start_s", "end_s"], "spans": rows}, f)

