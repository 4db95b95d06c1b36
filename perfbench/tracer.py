"""In-memory spans around calls into the program's layers.

The benchmark does not edit the program to trace it: :meth:`Tracer.wrap`
replaces a public method on its class with a timing wrapper, from the
benchmark's own files, for the life of one run.  Each span records its
name, start and end (``perf_counter_ns``), its own id, the id of the
span that caused it (the innermost open span on the same thread) and the
id of the request it belongs to.  A span opened with no parent starts a
new request.  Spans stay in memory and are written out by
:meth:`Tracer.dump` when the run ends.

A span's *self time* is its duration minus the time its child spans
cover.  Children always run on their parent's thread and inside its
interval, so subtracting their durations is exact.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

#: (name, start_ns, end_ns, span id, parent id or None, request id)
Span = tuple[str, int, int, int, "int | None", int]


class Tracer:
    """Collects spans from wrapped methods; toggle with :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        #: Per name ``[calls, ns]`` of leaf calls too many to keep as spans.
        self.tallies: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patched: list[tuple[type, str, Callable]] = []

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (a root if none is open)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        request = parent[1] if parent else next(self._requests)
        stack.append((span_id, request))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (name, start, end, span_id, parent[0] if parent else None, request)
            )

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        on_result: Callable[["Tracer", object], None] | None = None,
        tally: bool = False,
    ) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``on_result`` sees each traced call's return value, for counts
        such as candidates per request.  ``tally`` keeps only a call
        count and total time for a leaf called millions of times (a
        rating write), instead of one span per call.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if tally:
                start = time.perf_counter_ns()
                result = original(*args, **kwargs)
                row = tracer.tallies[name]
                row[0] += 1
                row[1] += time.perf_counter_ns() - start
                return result
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def restore(self) -> None:
        """Put every wrapped method back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- analysis -----------------------------------------------------------

    def self_times(
        self, requests: set[int] | None = None
    ) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(calls, total_us, self_us)``.

        ``requests`` restricts the table to spans of those request ids.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for _, start, end, _, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        table: dict[str, list[float]] = {}
        for name, start, end, span_id, _, request in self.spans:
            if requests is not None and request not in requests:
                continue
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) / 1e3
            row[2] += (end - start - child_ns[span_id]) / 1e3
        if requests is None:
            for name, (calls, ns) in self.tallies.items():
                row = table.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += ns / 1e3
                row[2] += ns / 1e3
        return {name: (int(r[0]), r[1], r[2]) for name, r in table.items()}

    def table_lines(self, root: str) -> list[str]:
        """The per-layer self-time table, largest self time first."""
        rows = self.self_times()
        root_us = rows.get(root, (0, 0.0, 0.0))[1] or 1.0
        lines = [
            f"{'span':<24}{'calls':>9}{'total_ms':>12}{'self_ms':>12}"
            f"{'self_us/call':>14}{'self/root':>11}"
        ]
        for name, (calls, total, own) in sorted(
            rows.items(), key=lambda item: -item[1][2]
        ):
            lines.append(
                f"{name:<24}{calls:>9}{total / 1e3:>12.1f}{own / 1e3:>12.1f}"
                f"{own / calls:>14.1f}{own / root_us:>11.3f}"
            )
        return lines

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for name, start, end, span_id, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
