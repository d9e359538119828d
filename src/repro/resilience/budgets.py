"""Wall-clock and step budgets for execution.

An :class:`ExecutionBudget` bounds one run of an execution engine: *steps*
(control transfers — calls, jumps, branches — plus VM instructions at a
coarse granularity) and *wall-clock seconds*.  All four engines — the
λpure reference interpreter, the λrc interpreter, the CFG tree-walker and
the bytecode VM — charge the budget at every control transfer, so a
diverging program raises :class:`ExecutionBudgetExceeded` instead of
hanging (or permanently riding ``sys.setrecursionlimit``).

The rewrite drivers read no clock: a fixpoint is bounded by its
deterministic rewrite/iteration budget, and missing it raises
:class:`~repro.rewrite.driver.NonConvergenceError` under ``verify_each``.

Budget trips count as ``resilience.budget.trips`` in the active metrics
registry.
"""

from __future__ import annotations

import time
from typing import Optional

from ..telemetry import get_metrics


class BudgetExceeded(RuntimeError):
    """Base class of every budget trip."""


class ExecutionBudgetExceeded(BudgetExceeded):
    """An execution engine exceeded its step or wall-clock budget."""


#: How many steps pass between wall-clock reads (a power of two minus one,
#: used as a mask — ``monotonic()`` per step would dominate small runs).
_CLOCK_CHECK_MASK = 1023


class ExecutionBudget:
    """A per-run step + wall-clock budget shared by all four engines.

    One instance covers one ``run_main``: :meth:`start` arms the deadline,
    :meth:`charge` is called at control transfers.  The object is reusable
    (``start`` resets the counters), but not concurrently.
    """

    __slots__ = ("max_steps", "max_seconds", "steps", "_deadline")

    def __init__(
        self,
        *,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ):
        if max_steps is None and max_seconds is None:
            raise ValueError("an ExecutionBudget needs max_steps or max_seconds")
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.steps = 0
        self._deadline: Optional[float] = None

    def start(self) -> "ExecutionBudget":
        self.steps = 0
        self._deadline = (
            time.monotonic() + self.max_seconds
            if self.max_seconds is not None
            else None
        )
        return self

    def _trip(self, reason: str) -> None:
        registry = get_metrics()
        if registry.enabled:
            registry.bump("resilience.budget.trips")
        raise ExecutionBudgetExceeded(
            f"execution budget exceeded: {reason} "
            f"(steps={self.steps}, max_steps={self.max_steps}, "
            f"max_seconds={self.max_seconds})"
        )

    def charge(self, amount: int = 1) -> None:
        """Count ``amount`` steps; trip if a bound is exceeded."""
        self.steps += amount
        if self.max_steps is not None and self.steps > self.max_steps:
            self._trip(f"more than {self.max_steps} steps")
        if (
            self._deadline is not None
            and not (self.steps & _CLOCK_CHECK_MASK)
            and time.monotonic() > self._deadline
        ):
            self._trip(f"ran longer than {self.max_seconds}s")


def make_execution_budget(
    seconds: Optional[float], steps: Optional[int]
) -> Optional[ExecutionBudget]:
    """An :class:`ExecutionBudget` for the given bounds, or None for none."""
    if seconds is None and steps is None:
        return None
    return ExecutionBudget(max_steps=steps, max_seconds=seconds)
