"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is (name, start, end, parent, run id). Spans come from two places:
``Tracer.span`` around calls the benchmark makes itself, and
``Tracer.patch``, which replaces a public function where a module looks it
up (for example ``uttertune.eval.generate``) with a timing wrapper. Every
patch is undone by ``Tracer.restore``. Nothing is written until
``write_spans`` runs at the end of the benchmark.

Spans may open on several threads at once (``uttertune.eval.evaluate_set``
fans items out to a thread pool when ``UTTERTUNE_THREADS`` > 1). Each
thread keeps its own stack of open spans, so a span's parent is the
innermost open span of the same thread (-1 for the first span of a pool
thread), and appends and observers run under one lock.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class NullTracer:
    """Tracing off: spans cost one call to ``nullcontext``."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        stack = self._local.stack
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else -1]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, observe=None):
        """fn timed as span ``name``; observe(args, kwargs, result) after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                with self._lock:
                    observe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr (a module function or a classmethod)."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(original.__func__, name, observe)
            )
        else:
            replacement = self.wrap(original, name, observe)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans -------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tindex\tname\tparent\tstart_s\tend_s\tself_s\n")
            for index, ((name, start, end, parent), own) in enumerate(
                zip(self.spans, self.self_times())
            ):
                fh.write(
                    f"{self.run_id}\t{index}\t{name}\t{parent}\t"
                    f"{start - origin:.6f}\t{end - origin:.6f}\t{own:.6f}\n"
                )
