"""Central metrics registry.

Every stat surface of the compiler publishes into one namespaced
:class:`MetricsRegistry` instead of owning its reporting story:

* ``rewrite.<pass>.<counter>`` — pass-manager counters and meters
  (``rewrite.canonicalize.match_attempts``, the region-GVN fingerprint
  meters, per-pass ``seconds``),
* ``pipeline.phase.<phase>.seconds`` — per-phase compile wall time from
  both compilers,
* ``session.frontend.* / session.bytecode.*`` — compilation-session cache
  hits and misses,
* ``vm.instr.freq.<op>`` — the VM's dynamic instruction frequencies, plus
  ``vm.run.seconds``,
* ``harness.*`` — evaluation-harness bookkeeping,
* ``resilience.*`` — failure-path accounting: injected faults, budget
  trips, crash bundles written, and every graceful-degradation recovery
  (VM→tree fallback, rescan retry, cache quarantine).

The registry stores integer counters (:meth:`bump`) and float gauges
(:meth:`observe`, accumulating — repeated observations of a timing add
up, mirroring how ``phase_timings`` accumulates).  :meth:`snapshot`
returns one sorted, JSON-ready dict — the payload behind the
``--metrics-json`` CLI flags.
"""

from __future__ import annotations

import re
from typing import Dict, Union

Number = Union[int, float]

#: Every valid top-level metric namespace.  ``docs/OBSERVABILITY.md``
#: documents each one; ``tests/test_telemetry.py`` drift-tests the two
#: against each other and against a real compile's snapshot.
NAMESPACES = ("harness", "pipeline", "resilience", "rewrite", "session", "vm")

_COMPONENT_SANITIZER = re.compile(r"[^A-Za-z0-9_]")


def metric_component(raw: str) -> str:
    """A raw name (pass name, counter name, …) as one metric-key component.

    Hyphenated counter names (``match-attempts``) and pass names
    (``region-gvn``) become underscore-joined components, so every key is
    ``namespace.dotted.path`` with predictable separators.
    """
    return _COMPONENT_SANITIZER.sub("_", raw)


def namespace_of(key: str) -> str:
    """Top-level namespace of a metric key."""
    return key.split(".", 1)[0]


class MetricsRegistry:
    """Namespaced counters and gauges for one telemetry session."""

    enabled = True

    def __init__(self):
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the integer counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Accumulate ``value`` into the float gauge ``name``."""
        self._gauges[name] = self._gauges.get(name, 0.0) + value

    # -- reading -----------------------------------------------------------
    def get(self, name: str, default: Number = 0) -> Number:
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name, default)

    def snapshot(self) -> Dict[str, Number]:
        """Every metric, keys sorted — the ``--metrics-json`` payload."""
        merged: Dict[str, Number] = {}
        merged.update(self._counters)
        merged.update(self._gauges)
        return dict(sorted(merged.items()))

    def write_json(self, path: str) -> None:
        import json

        payload = {
            "schema": "repro/metrics/v1",
            "metrics": self.snapshot(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)


class NullMetricsRegistry:
    """The disabled registry: accepts everything, stores nothing."""

    enabled = False
    __slots__ = ()

    def bump(self, name: str, amount: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def get(self, name: str, default: Number = 0) -> Number:
        return default

    def snapshot(self) -> Dict[str, Number]:
        return {}

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullMetricsRegistry()


def snapshot_delta(
    after: Dict[str, Number], before: Dict[str, Number]
) -> Dict[str, Number]:
    """The metrics recorded between two snapshots of the same registry."""
    delta: Dict[str, Number] = {}
    for key, value in after.items():
        changed = value - before.get(key, 0)
        if changed:
            delta[key] = changed
    return delta
