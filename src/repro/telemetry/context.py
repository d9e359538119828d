"""The active telemetry session.

Telemetry is *opt-in per execution context*: instrumented components
(pass manager, pipeline phases, session caches, the VM, the harness) call
:func:`get_tracer` / :func:`get_metrics` and receive either the live
session installed by :func:`telemetry_session` or the shared null
singletons, whose every operation is a no-op.  The session lives in a
contextvar, so nested scopes restore the previous session on exit and a
forked worker inherits (a copy of) its parent's state.
"""

from __future__ import annotations

import contextvars
import sys
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from .metrics import NULL_REGISTRY, MetricsRegistry, snapshot_delta
from .tracer import NULL_TRACER, Tracer


class TelemetrySession:
    """One tracer plus one metrics registry, installed together."""

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()


_ACTIVE: contextvars.ContextVar[Optional[TelemetrySession]] = (
    contextvars.ContextVar("repro-telemetry-session", default=None)
)


def active_session() -> Optional[TelemetrySession]:
    return _ACTIVE.get()


def get_tracer():
    """The active session's tracer, or the no-op :data:`NULL_TRACER`."""
    session = _ACTIVE.get()
    return session.tracer if session is not None else NULL_TRACER


def get_metrics():
    """The active session's registry, or the no-op :data:`NULL_REGISTRY`."""
    session = _ACTIVE.get()
    return session.metrics if session is not None else NULL_REGISTRY


@contextmanager
def telemetry_session(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[TelemetrySession]:
    """Install a telemetry session for the duration of the block."""
    session = TelemetrySession(tracer, metrics)
    token = _ACTIVE.set(session)
    try:
        yield session
    finally:
        _ACTIVE.reset(token)


@contextmanager
def cli_telemetry(
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    *,
    verbose: bool = False,
    record: bool = False,
) -> Iterator[Optional[TelemetrySession]]:
    """The telemetry scope of one command-line invocation.

    Opens a session only when something consumes it: a Chrome trace file,
    a metrics snapshot file, the span report (``verbose``) or a caller that
    reads the session afterwards (``record``); otherwise yields None.  The
    files are written, and the span tree printed to stderr, even when the
    block raises — the failing trace is usually the interesting one.
    """
    if not (trace_path or metrics_path or verbose or record):
        yield None
        return
    with telemetry_session() as session:
        try:
            yield session
        finally:
            if trace_path:
                session.tracer.write_chrome_trace(trace_path)
            if metrics_path:
                session.metrics.write_json(metrics_path)
            if verbose:
                print(session.tracer.report(), file=sys.stderr)


@contextmanager
def measured_metrics() -> Iterator[Dict[str, int]]:
    """Yield a dict filled with the metrics recorded inside the block.

    Reuses the active session's registry (reporting the delta, so an outer
    ``--metrics-json`` aggregation still sees everything) or installs a
    private session when none is active.  The dict is populated on exit.
    """
    session = _ACTIVE.get()
    if session is not None:
        before = session.metrics.snapshot()
        out: Dict[str, int] = {}
        try:
            yield out
        finally:
            out.update(snapshot_delta(session.metrics.snapshot(), before))
    else:
        with telemetry_session() as private:
            out = {}
            try:
                yield out
            finally:
                out.update(private.metrics.snapshot())
