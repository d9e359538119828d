"""Passes and the pass manager.

A :class:`Pass` transforms a module in place.  :class:`PassManager` runs a
pipeline of passes, optionally verifying the IR after each one (the default,
as in MLIR's ``-verify-each``), and merges each pass's rewrite counters
(MLIR's ``-mlir-pass-statistics`` analogue).  It keeps no clock: per-pass
time is the ``pass:<name>`` span (MLIR's ``-mlir-timing`` analogue).

Observability (see ``docs/OBSERVABILITY.md``):

* :class:`~repro.telemetry.instrumentation.PassInstrumentation` callbacks
  bracket every pass (``run_before_pass`` / ``run_after_pass`` /
  ``run_after_pass_failed``) — a pass that raises, or whose output the
  ``verify_each`` verifier rejects, triggers the failure hook before the
  exception propagates,
* each pass runs inside a telemetry span (``pass:<name>``) that carries the
  run's counter delta, so traces show where inside a pipeline phase the
  time goes and what each run rewrote,
* per-pass counter deltas publish into the active metrics registry under
  ``rewrite.<pass>.<counter>``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ir.core import Operation
from ..ir.verifier import verify
from ..record import Record
from ..resilience.faults import active_plan, fault_hit
from ..telemetry import (
    PassInstrumentation,
    get_metrics,
    get_tracer,
    metric_component,
)


class PassStatistics(Record):
    """Named counters a pass may update while running.

    Counters come in two flavours: *rewrite* counters (applications,
    ops-erased, …) that :meth:`total` sums into the pass's rewrite count,
    and *meters* (match attempts, worklist pushes, ops scanned, …) that
    measure work done rather than IR changed and are excluded from
    :meth:`total` — both appear in reports.
    """

    _fields = ("counters", "meters")

    def __init__(
        self,
        counters: Optional[Dict[str, int]] = None,
        meters: Optional[set] = None,
    ):
        self.counters = {} if counters is None else counters
        #: Names of counters that measure work, not rewrites.
        self.meters = set() if meters is None else meters

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def bump_meter(self, name: str, amount: int = 1) -> None:
        self.meters.add(name)
        self.bump(name, amount)

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def total(self) -> int:
        """Sum of the rewrite counters (the pass's total rewrite count)."""
        return sum(
            value for name, value in self.counters.items()
            if name not in self.meters
        )


class Pass:
    """Base class of all passes."""

    #: Human-readable pass name used in pipeline descriptions and reports.
    name: str = "unnamed-pass"

    #: When True, pattern-driver passes raise
    #: :class:`~repro.rewrite.driver.NonConvergenceError` if the rewrite
    #: fixpoint is not reached.  :meth:`PassManager.run` syncs this with its
    #: ``verify_each`` setting before running the pass.
    strict_convergence: bool = True

    #: Options the pass accepts in textual pipeline specs — a tuple of
    #: :class:`~repro.rewrite.registry.PassOption` (empty for most passes).
    SPEC_OPTIONS: tuple = ()

    #: Canonical one-pass pipeline spec (``name{options}``) this instance
    #: was built from.  :func:`~repro.rewrite.registry.build_passes` fills
    #: it in; hand-constructed passes fall back to ``name`` — crash bundles
    #: use it to record a replayable remaining pipeline.
    spec: Optional[str] = None

    def __init__(self):
        self.statistics = PassStatistics()

    @classmethod
    def from_spec_options(cls, options: Dict[str, List[str]]) -> "Pass":
        """Build an instance from validated pipeline-spec options.

        ``options`` maps option key to the list of values it was given
        (already validated against :attr:`SPEC_OPTIONS` by the registry).
        The base implementation covers option-free passes.
        """
        return cls()

    def run(self, module: Operation) -> None:
        raise NotImplementedError


class ModulePass(Pass):
    """A pass operating on the whole module at once."""


class FunctionPass(Pass):
    """A pass applied independently to every ``func.func`` in the module."""

    def run(self, module: Operation) -> None:
        from ..dialects.func import FuncOp

        for op in list(module.walk()):
            if isinstance(op, FuncOp) and not op.is_declaration:
                self.run_on_function(op)

    def run_on_function(self, func) -> None:
        raise NotImplementedError


class PassManager:
    """Runs a sequence of passes over a module.

    With a ``crash_handler`` (a
    :class:`~repro.resilience.bundle.CrashBundleWriter` or anything with
    its ``on_crash`` signature), a pass raise or a ``verify_each``
    rejection writes a crash reproducer bundle — the textual IR as it
    stood before the failing pass, the remaining pipeline spec, and the
    active fault plan re-based to that point — before the exception
    propagates (tagged with ``error.crash_bundle``).  Snapshotting the IR
    per pass costs a print, so handlers are attached on the failure-path
    pipelines (the CLIs, the fuzzers), not the benchmark loops.
    """

    def __init__(
        self,
        passes: Optional[Sequence[Pass]] = None,
        *,
        verify_each: bool = True,
        instrumentations: Optional[Sequence[PassInstrumentation]] = None,
        crash_handler=None,
    ):
        self.passes: List[Pass] = list(passes or [])
        self.verify_each = verify_each
        #: pass name -> statistics, populated by :meth:`run`.
        self.statistics: Dict[str, PassStatistics] = {}
        #: Instrumentation callbacks bracketing every pass.
        self.instrumentations: List[PassInstrumentation] = list(
            instrumentations or []
        )
        #: Crash-bundle writer invoked when a pass fails (None = disabled).
        self.crash_handler = crash_handler

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def add_instrumentation(self, instr: PassInstrumentation) -> "PassManager":
        self.instrumentations.append(instr)
        return self

    def _notify_failed(self, pass_: Pass, module: Operation, error: Exception):
        for instr in self.instrumentations:
            instr.run_after_pass_failed(pass_, module, error)

    def _handle_crash(
        self,
        index: int,
        pre_pass_ir: Optional[str],
        hits_baseline: Dict[str, int],
        error: Exception,
    ) -> None:
        """Write a crash bundle for a failure in pass ``index`` (guarded)."""
        if self.crash_handler is None or pre_pass_ir is None:
            return
        remaining = ",".join(
            p.spec or p.name for p in self.passes[index:]
        )
        plan = active_plan()
        fault_specs = (
            plan.remaining_specs(hits_baseline) if plan is not None else []
        )
        try:
            path = self.crash_handler.on_crash(
                pre_pass_ir=pre_pass_ir,
                remaining_spec=remaining,
                failing_pass=self.passes[index].name,
                error=error,
                fault_specs=fault_specs,
                verify_each=self.verify_each,
            )
        except Exception:
            return  # bundle writing must never mask the original failure
        try:
            error.crash_bundle = str(path)
        except Exception:
            pass

    def run(self, module: Operation) -> Operation:
        tracer = get_tracer()
        registry = get_metrics()
        for index, pass_ in enumerate(self.passes):
            pass_.strict_convergence = self.verify_each
            before = dict(pass_.statistics.counters)
            pre_pass_ir: Optional[str] = None
            hits_baseline: Dict[str, int] = {}
            if self.crash_handler is not None:
                from ..ir.printer import print_module

                pre_pass_ir = print_module(module)
                plan = active_plan()
                if plan is not None:
                    hits_baseline = plan.snapshot_hits()
            for instr in self.instrumentations:
                instr.run_before_pass(pass_, module)
            try:
                with tracer.span("pass:" + pass_.name, category="pass") as span:
                    fault_hit("pass." + pass_.name)
                    pass_.run(module)
            except Exception as error:
                self._notify_failed(pass_, module, error)
                self._handle_crash(index, pre_pass_ir, hits_baseline, error)
                raise
            # Merge this run's counter *delta* into the per-name statistics.
            # Assigning ``pass_.statistics`` outright (the old behaviour)
            # silently clobbered earlier runs whenever the same pass — or two
            # instances sharing a name — ran twice.
            delta = {
                key: value - before.get(key, 0)
                for key, value in pass_.statistics.counters.items()
                if value != before.get(key, 0)
            }
            merged = self.statistics.setdefault(pass_.name, PassStatistics())
            for key, value in delta.items():
                if key in pass_.statistics.meters:
                    merged.bump_meter(key, value)
                else:
                    merged.bump(key, value)
                span.set(key, value)
            if registry.enabled:
                prefix = "rewrite." + metric_component(pass_.name) + "."
                for key, value in delta.items():
                    registry.bump(prefix + metric_component(key), value)
            if self.verify_each:
                try:
                    with tracer.span("verify:" + pass_.name, category="verify"):
                        fault_hit("verify")
                        verify(module)
                except Exception as error:
                    self._notify_failed(pass_, module, error)
                    self._handle_crash(index, pre_pass_ir, hits_baseline, error)
                    raise
            for instr in self.instrumentations:
                instr.run_after_pass(pass_, module)
        return module

    def total_rewrites(self) -> int:
        """Total rewrite count across every pass that has run."""
        return sum(stats.total() for stats in self.statistics.values())

    def describe(self) -> str:
        """Textual pipeline description, e.g. ``cse,dce,region-gvn``."""
        return ",".join(p.name for p in self.passes)
