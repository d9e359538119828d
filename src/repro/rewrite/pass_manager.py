"""Passes and the pass manager.

A :class:`Pass` transforms a module in place.  :class:`PassManager` runs a
pipeline of passes, optionally verifying every IR state it produces once
(the default, as in MLIR's ``-verify-each``), and merges each pass's
rewrite counters (MLIR's ``-mlir-pass-statistics`` analogue).  It keeps no
clock: per-pass time is the ``pass:<name>`` span (MLIR's ``-mlir-timing``
analogue).

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

import contextvars
from typing import Dict, List, Optional, Sequence

from ..ir.core import Operation, mutation_count
from ..ir.verifier import verify
from ..record import Record
from ..resilience.faults import active_plan, fault_hit, fault_plan
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

    #: When True, the canonicalize pass raises
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


class FunctionPass(Pass):
    """A pass applied independently to every ``func.func`` in the module.

    Functions are the module body's top-level ops (or ``module`` itself
    when it is a ``func.func``); nothing nested is searched.
    """

    def run(self, module: Operation) -> None:
        from ..dialects.func import FuncOp

        if isinstance(module, FuncOp):
            funcs = [module]
        else:
            funcs = [
                op
                for region in module.regions
                for block in region.blocks
                for op in block
                if isinstance(op, FuncOp)
            ]
        for func in funcs:
            if not func.is_declaration:
                self.run_on_function(func)

    def run_on_function(self, func) -> None:
        raise NotImplementedError


class PassManager:
    """Runs a sequence of passes over a module.

    With ``verify_each`` every IR state the run produces is verified once.
    The verifier always runs after the first pass, which also covers the
    run's input (unless :meth:`run` is told the input is verified); after
    each later pass it runs only if
    :func:`~repro.ir.core.mutation_count` moved since the last
    verification.  The count belongs to the IR, not to the passes, so a
    pass cannot claim "unchanged" falsely.

    With a ``crash_handler`` (a
    :class:`~repro.resilience.bundle.CrashBundleWriter` or anything with
    its ``on_crash`` signature), a pass raise or a ``verify_each``
    rejection writes a crash reproducer bundle — the textual IR as it
    stood before the failing pass, the remaining pipeline spec, and the
    active fault plan re-based to that point — before the exception
    propagates (tagged with ``error.crash_bundle``).  The run prints the
    module once, at entry; passes are deterministic, so on a failure in
    pass *i* :meth:`_handle_crash` re-parses that text and replays passes
    0…i−1 from their specs to rebuild the pre-pass IR.  The entry print
    is the handler's whole cost on a run that succeeds, so handlers are
    attached on the failure-path pipelines (the CLIs, the fuzzers), not
    the benchmark loops.
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

    def _notify_failed(self, pass_: Pass, module: Operation, error: Exception):
        for instr in self.instrumentations:
            instr.run_after_pass_failed(pass_, module, error)

    def _replay_prefix(self, pipeline_input: str, index: int) -> str:
        """The IR before pass ``index``: passes 0…index−1 rebuilt from
        their specs and run over ``pipeline_input`` with fault injection
        disarmed, in a fresh context (no telemetry session, so the replay
        adds no span and no counter)."""
        if index == 0:
            return pipeline_input
        from ..ir.parser import parse_module
        from ..ir.printer import print_module
        from .registry import build_pipeline

        prefix = build_pipeline(
            ",".join(p.spec or p.name for p in self.passes[:index]),
            verify_each=self.verify_each,
        )
        module = parse_module(pipeline_input)
        with fault_plan(None):
            contextvars.Context().run(prefix.run, module)
        return print_module(module)

    def _handle_crash(
        self,
        index: int,
        pipeline_input: Optional[str],
        hits: List[Dict[str, int]],
        error: Exception,
    ) -> None:
        """Write a crash bundle for a failure in pass ``index`` (guarded).

        ``hits`` holds the fault plan's hit counts at the entry of every
        pass run so far.  When the prefix replay fails (a hand-built pass
        has no registered spec), the bundle is MLIR's non-local
        reproducer: the pipeline input and the whole pipeline, with a
        note saying so in ``error.txt``.
        """
        if pipeline_input is None:  # no crash handler
            return
        specs = [p.spec or p.name for p in self.passes]
        try:
            pre_pass_ir = self._replay_prefix(pipeline_input, index)
            start = index
        except Exception as replay_error:
            pre_pass_ir, start = pipeline_input, 0
            # PEP 678 note (``add_note`` itself is Python 3.11+).
            error.__notes__ = [*getattr(error, "__notes__", ()), (
                f"note: the IR before pass {index} ({specs[index]}) could "
                f"not be rebuilt ({type(replay_error).__name__}: "
                f"{replay_error}); this bundle holds the pipeline input and "
                "the whole pipeline"
            )]
        plan = active_plan()
        try:
            path = self.crash_handler.on_crash(
                pre_pass_ir=pre_pass_ir,
                remaining_spec=",".join(specs[start:]),
                failing_pass=self.passes[index].name,
                error=error,
                fault_specs=(
                    plan.remaining_specs(hits[start]) if hits else []
                ),
                verify_each=self.verify_each,
            )
        except Exception:
            return  # bundle writing must never mask the original failure
        try:
            error.crash_bundle = str(path)
        except Exception:
            pass

    def run(self, module: Operation, *, verified: bool = False) -> Operation:
        """Run every pass over ``module`` in place and return it.

        ``verified`` says the verifier already accepted ``module`` as given
        (say, a clone of a verified module), so under ``verify_each`` the
        first pass, like every later one, verifies only if it changed the
        IR.
        """
        tracer = get_tracer()
        registry = get_metrics()
        # Mutation count at the last verification (None: not verified yet).
        verified_at: Optional[int] = mutation_count() if verified else None
        # The crash handler's snapshot: the module printed once, and the
        # fault plan's hit counts at every pass entry (while one is armed).
        pipeline_input: Optional[str] = None
        plan = None
        hits: List[Dict[str, int]] = []
        if self.crash_handler is not None:
            from ..ir.printer import print_module

            pipeline_input = print_module(module)
            plan = active_plan()
        for index, pass_ in enumerate(self.passes):
            pass_.strict_convergence = self.verify_each
            before = dict(pass_.statistics.counters)
            if plan is not None:
                hits.append(plan.snapshot_hits())
            for instr in self.instrumentations:
                instr.run_before_pass(pass_, module)
            try:
                with tracer.span("pass:" + pass_.name, category="pass") as span:
                    fault_hit("pass." + pass_.name)
                    pass_.run(module)
            except Exception as error:
                self._notify_failed(pass_, module, error)
                self._handle_crash(index, pipeline_input, hits, error)
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
            if self.verify_each and verified_at != mutation_count():
                try:
                    with tracer.span("verify:" + pass_.name, category="verify"):
                        fault_hit("verify")
                        verify(module)
                except Exception as error:
                    self._notify_failed(pass_, module, error)
                    self._handle_crash(index, pipeline_input, hits, error)
                    raise
                verified_at = mutation_count()
            for instr in self.instrumentations:
                instr.run_after_pass(pass_, module)
        return module

    def describe(self) -> str:
        """Textual pipeline description, e.g. ``cse,dce,region-gvn``."""
        return ",".join(p.name for p in self.passes)
