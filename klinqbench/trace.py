"""In-memory spans around calls into the program's layers.

A :class:`Tracer` records one :class:`Span` per call (name, start, end,
parent, request id) and keeps them in memory until :meth:`Tracer.dump`
writes them out once, when the run ends.  :class:`Instrument` puts the
spans in place by wrapping public functions of each layer for the duration
of a traced phase and restoring them afterwards; the program itself is not
changed.

Spans opened on a thread that has no open span of its own (the engine's
fan-out threads, the service's batcher thread) take as parent the innermost
open span of the thread that opened the request, when the workload is a
closed loop and so has one request in flight; in an open loop they become
roots of their own.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    span_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``closed_loop`` enables parenting across threads."""

    def __init__(self, closed_loop: bool) -> None:
        self.spans: list[Span] = []
        self.closed_loop = closed_loop
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request_stack: list[Span] | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: int | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and request is None and self.closed_loop and self._request_stack:
            try:
                parent = self._request_stack[-1]
            except IndexError:  # the request closed in the meantime
                parent = None
        span = Span(name, 0.0, attrs=attrs, span_id=next(self._ids))
        if parent is not None:
            span.parent = parent.span_id
            span.request = parent.request
            span.attrs = {**parent.attrs, **attrs}
        if request is not None:
            span.request = request
        stack.append(span)
        if request is not None:
            self._request_stack = stack
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def add(self, name: str, start: float, end: float, request: int) -> None:
        """Record an interval of ``request`` measured outside a ``with`` block."""
        span = Span(name, start, end, None, request, next(self._ids))
        with self._lock:
            self.spans.append(span)

    def dump(self, path) -> None:
        """Write every span as one JSON line (called once, at the end of a run)."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "id": s.span_id,
                            **({"attrs": s.attrs} if s.attrs else {}),
                        }
                    )
                    + "\n"
                )


class Instrument:
    """Wraps layer entry points in spans while active; restores them on exit.

    Each target is ``(owner, attribute, span_name, attrs_fn)``: ``owner`` is
    a class or module, and ``attrs_fn(args)`` may return extra span
    attributes (for example, which student architecture a module belongs
    to).  A target whose attribute does not exist is skipped, so a program
    that drops an entry point still runs traced, with less coverage.
    """

    def __init__(self, tracer: Tracer, targets) -> None:
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple] = []

    def __enter__(self) -> "Instrument":
        for owner, attribute, name, attrs_fn in self.targets:
            # A class attribute is read from the class itself, so a method
            # inherited from elsewhere is never copied down and left behind.
            if isinstance(owner, type):
                original = owner.__dict__.get(attribute)
            else:
                original = getattr(owner, attribute, None)
            if original is None:
                continue
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, attrs_fn))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def _wrap(self, function, name, attrs_fn):
        tracer = self.tracer

        @functools.wraps(function)
        def traced(*args, **kwargs):
            attrs = attrs_fn(args) if attrs_fn is not None else {}
            with tracer.span(name, **attrs):
                return function(*args, **kwargs)

        return traced
