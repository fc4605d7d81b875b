"""Layer tracing attached from outside the program.

Two mechanisms, both switched on only in ``--trace 1`` runs:

* :class:`SpanRecorder` swaps named functions/methods of the program's
  modules for timing wrappers while :meth:`SpanRecorder.attached` is
  active.
  Spans live in memory (name, start, end, parent) and are folded into
  per-op self times afterwards, so a layer's number excludes the
  layers it calls.
* :func:`package_self_times` buckets a ``cProfile`` run's self time by
  the ``repro`` package each function lives in.
"""

from __future__ import annotations

import pstats
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans around calls into the program's public functions."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def _close(self, index: int, started: float) -> None:
        ended = time.perf_counter()
        self._stack().pop()
        record = self.spans[index]
        record[1] = started
        record[2] = ended

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the per-op root)."""
        index = self._open(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, started)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name`` until restore."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            index = recorder._open(name)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(index, started)

        traced.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def attached(self, specs):
        """Wrap every ``(owner, attr, name)`` of ``specs`` for the block."""
        try:
            for owner, attr, name in specs:
                self.wrap(owner, attr, name)
            yield self
        finally:
            self.restore()

    def per_root(self, root: str) -> list[dict[str, float]]:
        """Self seconds per span name, one dict per ``root`` span.

        The root's own self time is reported under ``root`` itself.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for index, record in enumerate(self.spans):
            if record[3] >= 0:
                children[record[3]].append(index)

        def duration(index: int) -> float:
            return self.spans[index][2] - self.spans[index][1]

        out = []
        for index, record in enumerate(self.spans):
            if record[0] != root:
                continue
            totals: dict[str, float] = defaultdict(float)
            pending = [index]
            while pending:
                current = pending.pop()
                kids = children.get(current, [])
                own = duration(current) - sum(duration(kid) for kid in kids)
                totals[self.spans[current][0]] += own
                pending.extend(kids)
            out.append(dict(totals))
        return out

    def durations(self, name: str) -> list[float]:
        """Inclusive seconds of every span called ``name``."""
        return [r[2] - r[1] for r in self.spans if r[0] == name]


#: cProfile buckets: (label, path fragment under ``src/repro/``), first
#: match wins; everything else (builtins, stdlib, other packages) is
#: ``other``.
PACKAGE_BUCKETS = (
    ("congest.network", "/repro/congest/network.py"),
    ("congest.node", "/repro/congest/node.py"),
    ("primitives", "/repro/primitives/"),
    ("core", "/repro/core/"),
    ("packing", "/repro/packing/"),
    ("mst", "/repro/mst/"),
    ("fragments", "/repro/fragments/"),
    ("graphs", "/repro/graphs/"),
)
BUCKET_LABELS = tuple(label for label, _ in PACKAGE_BUCKETS) + ("other",)


def bucket_of(filename: str) -> str:
    normalized = filename.replace("\\", "/")
    for label, fragment in PACKAGE_BUCKETS:
        if fragment in normalized:
            return label
    return "other"


def package_self_times(profile) -> dict[str, float]:
    """Self seconds per package bucket of a finished ``cProfile.Profile``."""
    totals = dict.fromkeys(BUCKET_LABELS, 0.0)
    for (filename, _line, _func), (_cc, _nc, self_time, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        totals[bucket_of(filename)] += self_time
    return totals

