"""Central metrics registry.

Every stat surface of the compiler publishes into one namespaced
:class:`MetricsRegistry` instead of owning its reporting story:

* ``rewrite.<pass>.<counter>`` — pass-manager counters and meters
  (``rewrite.canonicalize.match_attempts``, the region-GVN fingerprint
  meters),
* ``session.frontend.* / session.bytecode.*`` — compilation-session cache
  hits and misses,
* ``vm.instr.freq.<op>`` — the VM's dynamic instruction frequencies,
* ``harness.*`` — evaluation-harness bookkeeping,
* ``resilience.*`` — failure-path accounting: injected faults, budget
  trips and crash bundles written.

The registry stores integer counters only (:meth:`bump`), so a snapshot is
deterministic run to run; time lives in the tracer's spans.
:meth:`snapshot` returns one sorted, JSON-ready dict — the payload behind
the ``--metrics-json`` CLI flags.
"""

from __future__ import annotations

import re
from typing import Dict

#: Every valid top-level metric namespace.  ``docs/OBSERVABILITY.md``
#: documents each one; ``tests/test_telemetry.py`` drift-tests the two
#: against each other and against a real compile's snapshot.
NAMESPACES = ("harness", "resilience", "rewrite", "session", "vm")

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
    """Namespaced integer counters for one telemetry session."""

    enabled = True

    def __init__(self):
        self._counters: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the integer counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    # -- reading -----------------------------------------------------------
    def get(self, name: str, default: int = 0) -> int:
        return self._counters.get(name, default)

    def snapshot(self) -> Dict[str, int]:
        """Every metric, keys sorted — the ``--metrics-json`` payload."""
        return dict(sorted(self._counters.items()))

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
        return len(self._counters)


class NullMetricsRegistry:
    """The disabled registry: accepts everything, stores nothing."""

    enabled = False
    __slots__ = ()

    def bump(self, name: str, amount: int = 1) -> None:
        pass

    def get(self, name: str, default: int = 0) -> int:
        return default

    def snapshot(self) -> Dict[str, int]:
        return {}

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullMetricsRegistry()


def snapshot_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """The metrics recorded between two snapshots of the same registry."""
    delta: Dict[str, int] = {}
    for key, value in after.items():
        changed = value - before.get(key, 0)
        if changed:
            delta[key] = changed
    return delta
