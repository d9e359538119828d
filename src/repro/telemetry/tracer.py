"""Hierarchical span tracing.

A :class:`Tracer` records a tree of timed *spans* — one per pipeline phase,
pass, session cache lookup, VM run, … — and exports it either as a
Chrome trace-event JSON file (loadable in Perfetto / ``chrome://tracing``,
MLIR's ``-mlir-timing`` analogue with real nesting) or as a plain-text
tree report.

Spans nest through a contextvar, so the parent of a new span is whatever
span is open in the *current execution context* — correct across
generators and ``contextvars``-aware schedulers, and isolated per forked
worker process.

When no telemetry session is active the process-wide tracer is
:data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns one shared
no-op context manager — the disabled path costs an attribute lookup and
two empty method calls, nothing more.
"""

from __future__ import annotations

import contextvars
import os
import time
from typing import Dict, List, Optional


class Span:
    """One timed, named interval; a node of the trace tree.

    Spans are context managers handed out by :meth:`Tracer.span`; entering
    starts the clock and links the span under the currently open span,
    exiting stops it.  ``args`` carries arbitrary key/value annotations
    (``set`` adds more while the span is open) that end up in the Chrome
    trace's ``args`` field.
    """

    __slots__ = (
        "name", "category", "args", "start", "end", "children",
        "_tracer", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str, args: Dict):
        self.name = name
        self.category = category
        self.args = args
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = tracer
        self._token = None

    def set(self, key: str, value) -> "Span":
        """Annotate the span; chains, so usable inline in a ``with``."""
        self.args[key] = value
        return self

    @property
    def duration_seconds(self) -> float:
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)
        return False

    def __repr__(self):
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"dur={self.duration_seconds * 1e3:.2f}ms, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """Shared no-op span: the body of every disabled ``with tracer.span``."""

    __slots__ = ()

    def set(self, key: str, value) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: hands out :data:`NULL_SPAN`, records nothing."""

    enabled = False
    __slots__ = ()

    def span(self, name: str, category: str = "misc", **args) -> _NullSpan:
        return NULL_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    """Records a forest of :class:`Span` trees for one telemetry session."""

    enabled = True

    def __init__(self):
        #: Finished (or still-open) top-level spans, in start order.
        self.roots: List[Span] = []
        self._epoch = time.perf_counter()
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("repro-tracer-current", default=None)
        )

    # -- recording ---------------------------------------------------------
    def span(self, name: str, category: str = "misc", **args) -> Span:
        """A new span; enter it (``with``) to start the clock."""
        return Span(self, name, category, args)

    def _enter(self, span: Span) -> None:
        parent = self._current.get()
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        span._token = self._current.set(span)
        span.start = time.perf_counter()

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span._token is not None:
            self._current.reset(span._token)
            span._token = None

    # -- introspection -----------------------------------------------------
    def all_spans(self) -> List[Span]:
        """Every recorded span, depth-first in start order."""
        out: List[Span] = []
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(span.children))
        return out

    def find(self, name: str) -> List[Span]:
        return [s for s in self.all_spans() if s.name == name]

    # -- Chrome trace-event export -----------------------------------------
    def to_chrome_trace(self) -> Dict[str, object]:
        """The trace as a Chrome trace-event JSON object.

        Every span becomes one complete event (``"ph": "X"``) with
        microsecond ``ts``/``dur`` relative to the tracer's construction —
        the JSON object format Perfetto and ``chrome://tracing`` load
        directly.
        """
        pid = os.getpid()
        events = []
        for span in self.all_spans():
            start = span.start if span.start is not None else self._epoch
            end = span.end if span.end is not None else start
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": (start - self._epoch) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": dict(span.args),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1, default=str)
            handle.write("\n")

    # -- text report -------------------------------------------------------
    def report(self) -> str:
        """Plain-text span tree with per-span wall time."""
        title = "Telemetry trace"
        lines = [title, "=" * len(title)]
        if not self.roots:
            lines.append("(no spans recorded)")
        for root in self.roots:
            self._format(root, 0, lines)
        return "\n".join(lines)

    def _format(self, span: Span, depth: int, lines: List[str]) -> None:
        label = "  " * depth + span.name
        annotations = "".join(
            f" {key}={value}" for key, value in sorted(span.args.items())
        )
        lines.append(
            f"{label:44s} {span.duration_seconds * 1e3:9.3f} ms{annotations}"
        )
        for child in span.children:
            self._format(child, depth + 1, lines)
