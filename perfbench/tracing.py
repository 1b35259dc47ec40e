"""In-memory spans recorded around the program's public calls.

The traced run patches a function at each layer boundary with a wrapper
that records one :class:`Span` (name, start, end, parent span, request
id, thread, work size) and then calls the original. Nothing in the
program changes: :meth:`Tracer.uninstall` puts every original back.

Spans nest per thread. Work that the micro-batcher's dispatcher thread
does for a client request has no parent on the client's thread; it is
joined to the request through the ``request_id`` that the guard returns
and the response carries.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["Span", "Tracer", "self_times"]


@dataclass(frozen=True)
class Span:
    """One recorded call."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None
    thread: int
    size: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped functions into a list in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, Callable]] = []
        self._installed = False

    def add(self, owner, attr: str, name: str,
            request_id: Callable | None = None,
            size: Callable | None = None) -> None:
        """Register ``owner.attr`` for wrapping under span ``name``.

        ``request_id(result)`` and ``size(args, result)`` extract the
        span's request id and work size from a successful call.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw,
                              self._wrapper(owner, attr, name, request_id, size)))

    def _wrapper(self, owner, attr, name, request_id, size):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(Span(
                    id=span_id, name=name, start=start, end=end,
                    parent=parent,
                    request_id=(request_id(result)
                                if request_id and result is not None else None),
                    thread=threading.get_ident(),
                    size=(size(args, result)
                          if size and result is not None else 0)))

        if isinstance(owner, type) and isinstance(owner.__dict__[attr],
                                                  (classmethod, staticmethod)):
            return staticmethod(traced)
        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        if not self._installed:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, raw, _ in reversed(self._patches):
                setattr(owner, attr, raw)
            self._installed = False

    def between(self, start: float, end: float) -> list[Span]:
        """Spans that started inside ``[start, end)``."""
        return [s for s in self.spans if start <= s.start < end]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the part of it its children cover.

    Children can overlap (they never do on one thread, but the rule is
    stated on intervals), so the covered part is the length of the
    union of the children's intervals clipped to the parent's.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result
