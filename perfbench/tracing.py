"""In-memory span recorder that wraps the package's functions from outside.

A span is (name, start, end, parent). Spans nest by call order: a wrapped
function called while another wrapped function runs becomes its child.
Functions called per item (``EventLog.trace``, ``rank_traces``) get a
counter, optionally with summed time, instead of a span each.

Nothing here edits the package: :meth:`Tracer.patch` swaps a module or
class attribute for a wrapper and :meth:`Tracer.restore` puts the original
back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``on_result(args, result)`` runs after it."""

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable, timed: bool = False) -> Callable:
        """Wrap a per-item function with a call counter (and summed time if ``timed``)."""
        counts = self.counts
        if not timed:

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        seconds = self.seconds

        def timed_call(*args, **kwargs):
            counts[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start

        return timed_call

    def patch(self, owner: object, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``wrap(original)``.

        A missing or non-callable target raises, so a renamed function fails
        the traced pass instead of reading 0.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            raise AttributeError(f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: "
                                 "it is missing or not callable")
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the time their child spans cover.

        The program is single-threaded, so children of one span never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return sum(
            (end - start) - child_time[i]
            for i, (n, start, end, _) in enumerate(self.spans)
            if n == name
        )

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent if parent >= 0 else None}
                    )
                    + "\n"
                )
