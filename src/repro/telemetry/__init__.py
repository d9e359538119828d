"""Unified observability layer: tracing, metrics, pass instrumentation.

Three pillars (see ``docs/OBSERVABILITY.md``):

* **Hierarchical span tracing** (:mod:`~repro.telemetry.tracer`) — a
  :class:`Tracer` records nestable, contextvar-scoped spans around
  pipeline phases, passes, session cache lookups, harness measurements
  and VM runs, exporting Chrome trace-event JSON (Perfetto-loadable) and
  a plain-text tree report.
* **Central metrics registry** (:mod:`~repro.telemetry.metrics`) — one
  namespaced :class:`MetricsRegistry` that every stat surface (pass
  counters, phase timings, region-GVN fingerprint meters, session
  hit/miss, VM instruction frequencies) publishes into; one JSON
  snapshot behind the ``--metrics-json`` flags.
* **Pass instrumentation** (:mod:`~repro.telemetry.instrumentation`) —
  MLIR-style ``run_before_pass`` / ``run_after_pass`` /
  ``run_after_pass_failed`` hooks on the pass manager, powering
  ``--print-ir-after=<pass>``, ``--print-ir-after-all`` and
  print-IR-on-failure.

Telemetry is opt-in: components fetch the active session through
:func:`get_tracer` / :func:`get_metrics` and get shared no-op singletons
when none is installed, so the disabled path stays off the profile.
"""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".metrics": (
        "NAMESPACES", "NULL_REGISTRY", "MetricsRegistry",
        "NullMetricsRegistry", "metric_component", "namespace_of",
        "snapshot_delta",
    ),
    ".tracer": ("NULL_SPAN", "NULL_TRACER", "NullTracer", "Span", "Tracer"),
    ".instrumentation": ("PassInstrumentation", "PrintIRInstrumentation"),
    ".context": (
        "TelemetrySession", "active_session", "get_metrics", "get_tracer",
        "measured_metrics", "telemetry_session",
    ),
})
