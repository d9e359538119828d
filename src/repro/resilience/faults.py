"""Deterministic fault injection at named sites.

A :class:`FaultPlan` maps *site names* to 1-based trigger counts: the plan
``{"pass.cse": 2}`` (spelled ``pass.cse:2`` on the command line) raises an
:class:`InjectedFault` at the second time the ``pass.cse`` site is hit and
never again.  Hits are counted per process-global plan, so a run with a
given plan is fully deterministic — the same compile hits the same sites
in the same order every time, which is what lets a crash bundle record the
*remaining* plan and replay the identical failure from the bundle's
pre-pass IR (see :mod:`repro.resilience.bundle`).  The pass manager
rebuilds that IR by replaying the earlier passes with no plan armed, so
a fault fires, and counts under ``resilience.faults.injected``, once.

Injection sites live in every layer, and every injected fault fails
loudly — nothing recovers from one:

* ``pass.<name>`` — one hit when the pass starts (from the pass manager)
  plus one hit per successful pattern application for
  :class:`~repro.rewrite.driver.PatternRewritePass` subclasses (from the
  rewrite driver, which blames the applied pattern on the raised fault);
  a crash bundle,
* ``verify`` — the IR verifier entry; a crash bundle,
* ``vm.dispatch`` — the VM's function dispatch; the run fails
  (``python -m repro`` exits 5),
* ``driver.worklist`` — the worklist rewrite engine's entry; a crash
  bundle of the pass that drove it (``python -m repro`` exits 4).

The catalogue is drift-tested against ``docs/RESILIENCE.md`` by
``tests/test_resilience.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from ..telemetry import get_metrics

#: Injection sites that are not derived from the pass registry, with what
#: an injected fault at each one produces.
STATIC_SITES: Dict[str, str] = {
    "verify": "IR verifier entry (crash bundle on verify-each rejection)",
    "vm.dispatch": "VM function dispatch (execution error: exit 5)",
    "driver.worklist": "worklist rewrite engine entry (crash bundle: exit 4)",
}


def known_sites() -> Dict[str, str]:
    """Every valid injection site name -> description.

    ``pass.<name>`` sites are derived from the pass registry, so a newly
    registered pass automatically grows an injection site.
    """
    # Imported lazily: the registry imports the pass manager, which imports
    # this module.
    from ..rewrite.registry import registered_passes

    sites = dict(STATIC_SITES)
    for name, registered in registered_passes().items():
        sites[f"pass.{name}"] = (
            f"inside the {name} pass (crash bundle)"
        )
    return sites


class InjectedFault(RuntimeError):
    """A deterministic fault raised by :func:`fault_hit`."""

    def __init__(
        self, site: str, occurrence: int, *, pattern: Optional[str] = None
    ):
        detail = f" during pattern {pattern}" if pattern else ""
        super().__init__(
            f"injected fault at site {site!r} (hit {occurrence}){detail}"
        )
        self.site = site
        self.occurrence = occurrence
        #: Pattern class name blamed by the rewrite driver, when the fault
        #: fired inside a pattern application.
        self.failing_pattern = pattern


class FaultPlan:
    """Site name -> 1-based trigger count, with per-site hit accounting."""

    def __init__(self, triggers: Dict[str, int]):
        for site, count in triggers.items():
            if count < 1:
                raise ValueError(
                    f"fault trigger for {site!r} must be >= 1, got {count}"
                )
        self.triggers: Dict[str, int] = dict(triggers)
        self.hits: Dict[str, int] = {site: 0 for site in triggers}
        self.fired: Dict[str, bool] = {site: False for site in triggers}

    @classmethod
    def parse(
        cls, specs: Sequence[str], *, validate_sites: bool = True
    ) -> "FaultPlan":
        """Parse ``site:N`` strings (bare ``site`` means ``site:1``)."""
        triggers: Dict[str, int] = {}
        for raw in specs:
            site, sep, count_text = raw.partition(":")
            site = site.strip()
            if not site:
                raise ValueError(f"malformed fault spec {raw!r}")
            try:
                count = int(count_text) if sep else 1
            except ValueError:
                raise ValueError(
                    f"malformed fault count in {raw!r} (expected site:N)"
                ) from None
            if validate_sites and site not in known_sites():
                known = ", ".join(sorted(known_sites()))
                raise ValueError(
                    f"unknown fault site {site!r} (known sites: {known})"
                )
            triggers[site] = count
        return cls(triggers)

    def snapshot_hits(self) -> Dict[str, int]:
        return dict(self.hits)

    def remaining_specs(self, baseline: Dict[str, int]) -> List[str]:
        """The plan re-based onto a run starting from ``baseline`` hits.

        A crash bundle snapshots the hit counts at the failing pass's entry;
        replaying the bundle restarts every site counter at zero, so the
        recorded plan must count down only the hits that were still to come.
        Sites that already fired (or would trigger at a non-positive count)
        are dropped.
        """
        specs = []
        for site, count in sorted(self.triggers.items()):
            remaining = count - baseline.get(site, 0)
            if remaining >= 1:
                specs.append(f"{site}:{remaining}")
        return specs

    def note_hit(self, site: str) -> Optional[int]:
        """Count one hit of ``site``; return the occurrence if it fires."""
        if site not in self.triggers:
            return None
        self.hits[site] += 1
        if not self.fired[site] and self.hits[site] >= self.triggers[site]:
            self.fired[site] = True
            return self.hits[site]
        return None


#: The process-global active plan (None almost always — the fast path of
#: :func:`fault_hit` is a single global read).
_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def fault_plan(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Install ``plan`` as the active fault plan for the duration."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def fault_hit(site: str, *, pattern: Optional[str] = None) -> None:
    """Count a hit of ``site``; raise :class:`InjectedFault` if it fires."""
    plan = _ACTIVE
    if plan is None:
        return
    occurrence = plan.note_hit(site)
    if occurrence is None:
        return
    registry = get_metrics()
    if registry.enabled:
        registry.bump("resilience.faults.injected")
    raise InjectedFault(site, occurrence, pattern=pattern)
