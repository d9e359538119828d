"""Resilience layer: crash reproducer bundles, deterministic fault
injection and budgets.

The compiler's failure-path machinery (see ``docs/RESILIENCE.md``):

* :mod:`~repro.resilience.faults` — seeded, deterministic fault injection
  at named sites (``--inject-fault site:N``) so every failure path in the
  stack can be exercised on demand,
* :mod:`~repro.resilience.budgets` — wall-clock and step budgets on all
  four execution engines
  (:class:`ExecutionBudgetExceeded` instead of a hang),
* :mod:`~repro.resilience.bundle` — MLIR-style crash reproducer bundles
  (pre-pass IR + remaining pipeline spec + environment + telemetry),
  replayable via ``python -m repro.opt --pipeline-from-bundle``.

Nothing recovers from a failure: a fault fails the run with its layer's
exit code, and a crash bundle where a pass is involved.  Faults, budget
trips and bundles count under the ``resilience.*`` metric namespace.
"""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".budgets": (
        "BudgetExceeded", "ExecutionBudget", "ExecutionBudgetExceeded",
    ),
    ".bundle": (
        "CrashBundle", "CrashBundleWriter", "load_bundle",
        "report_crash_bundle",
    ),
    ".faults": (
        "FaultPlan", "InjectedFault", "active_plan", "fault_hit", "fault_plan",
        "known_sites",
    ),
})
