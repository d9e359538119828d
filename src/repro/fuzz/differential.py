"""Full-matrix differential executor for generated (and corpus) programs.

One program goes through **every** configuration the compiler exposes:

* rc mode: ``rc-naive`` / ``rc-opt`` / ``rc-opt+reuse``,
* rewrite engine: ``worklist`` / ``rescan``,
* execution engine: ``vm`` (register bytecode) / ``tree`` (walker oracles),
* incremental rgn-opt recompilation: off / on,

plus the baseline ("leanc") pipeline at every rc mode and the λpure
reference interpreter as the golden value.  The contract asserted for
every run (:func:`run_matrix`):

* **values** — every configuration returns the reference value,
* **heap balance** — allocations equal frees in every configuration (the
  zero-leak invariant of *Counting Immutable Beans*),
* **metric identity** — within one rc mode, the lp+rgn pipeline must
  produce identical execution metrics (cost, op counts, heap traffic)
  across rewrite engines, execution engines and incremental on/off: those
  axes may change *how fast the compiler runs*, never *what it compiles
  to*.  Across rc modes only values must agree — changing RC traffic is
  the point of the rc-opt subsystem.

Any violation (or any crash anywhere in a pipeline) raises
:class:`DifferentialFailure` carrying the pretty-printed source, so
hypothesis shrinks the *program*, and the shrunk source is what lands in
``tests/corpus/``.

Every pipeline runs with :func:`~repro.eval.harness.oracle_options`: a
VM fault is a finding naming its configuration, and every lp+rgn compile
runs the IR verifier after each pass (``verify_each=True``, which also
makes rewrite non-convergence an error), so a pass that breaks an IR
invariant is a finding too.

Each distinct artifact is built once and run on every execution
configuration that asks for it:

* the baseline compiles one λrc program per rc mode and runs it on both
  ``vm`` and ``tree``;
* the lp+rgn configurations group by compile key (rc mode, rewrite
  engine, incremental).  The first configuration of a group compiles;
  later ones execute the group's latest CFG module.  An incremental group
  compiles once more, for its second configuration: that compile is
  served by the session's incremental cache, so incremental hits stay
  under test.

Executing never writes into a CFG module or a λrc program, so sharing
leaves labels, values and metric fingerprints as separate compiles would.
A compile failure names the configuration whose compile failed.

Every execution runs under a per-program step budget
(:data:`DEFAULT_BUDGET_STEPS`, overridable per call), so a generated
program that diverges — or an optimisation that breaks termination —
trips :class:`~repro.resilience.budgets.ExecutionBudgetExceeded` and
becomes a :class:`DifferentialFailure` finding instead of hanging the
nightly fuzz run.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..backend.pipeline import (
    RC_VARIANTS,
    BaselineCompiler,
    CompilationSession,
    MlirCompiler,
    run_reference,
)
from ..eval.harness import oracle_options
from ..interp.bytecode import EXECUTION_ENGINES
from ..record import FrozenRecord, Record

#: The matrix axes (rc mode × rewrite engine × execution engine ×
#: incremental recompilation).
REWRITE_ENGINES = ("worklist", "rescan")
INCREMENTAL_MODES = (False, True)

#: Default per-program execution step budget (calls and branches).  Fuel-
#: bounded generated programs finish in a few thousand steps; a run that
#: charges two million of them is diverging and should surface as a
#: finding, not hang the fuzzer.  Steps (not wall-clock) keep the trip
#: deterministic across machines and engines.
DEFAULT_BUDGET_STEPS = 2_000_000


class MatrixConfig(FrozenRecord):
    """One lp+rgn pipeline configuration of the differential matrix."""

    _fields = (
        "rc_variant", "rewrite_engine", "execution_engine", "incremental",
    )

    # Only perfbench/staged.py still reads this attribute.
    dispatch = "threaded"

    def __init__(
        self,
        rc_variant: str,
        rewrite_engine: str,
        execution_engine: str,
        incremental: bool,
    ):
        object.__setattr__(self, "rc_variant", rc_variant)
        object.__setattr__(self, "rewrite_engine", rewrite_engine)
        object.__setattr__(self, "execution_engine", execution_engine)
        object.__setattr__(self, "incremental", incremental)

    @property
    def label(self) -> str:
        inc = "inc" if self.incremental else "noinc"
        return (
            f"{self.rc_variant}/{self.rewrite_engine}/"
            f"{self.execution_engine}/{inc}"
        )


def full_matrix() -> Tuple[MatrixConfig, ...]:
    """Every lp+rgn configuration: 3 rc modes × 2 rewrite engines ×
    2 execution engines × 2 incremental modes = 24 configurations, built
    by 18 compiles per program."""
    return tuple(
        MatrixConfig(rc, engine, execution, incremental)
        for rc, engine, execution, incremental in itertools.product(
            RC_VARIANTS, REWRITE_ENGINES, EXECUTION_ENGINES, INCREMENTAL_MODES
        )
    )


def smoke_matrix() -> Tuple[MatrixConfig, ...]:
    """A cheaper diagonal used by the CI smoke budget: every rc mode, every
    rewrite and execution engine and the incremental path each appear at
    least once."""
    return (
        MatrixConfig("rc-naive", "worklist", "vm", False),
        MatrixConfig("rc-naive", "rescan", "tree", False),
        MatrixConfig("rc-opt", "worklist", "tree", True),
        MatrixConfig("rc-opt+reuse", "worklist", "vm", True),
        MatrixConfig("rc-opt+reuse", "rescan", "vm", False),
    )


class DifferentialFailure(AssertionError):
    """A matrix disagreement (or crash), carrying the offending source."""

    def __init__(self, source: str, reason: str):
        super().__init__(f"{reason}\n--- program ---\n{source}")
        self.source = source
        self.reason = reason


class MatrixReport(Record):
    """Everything observed while running one program through the matrix."""

    _fields = ("source", "reference_value", "runs")

    def __init__(
        self,
        source: str,
        reference_value: object = None,
        runs: Optional[Dict[str, Tuple[object, Tuple]]] = None,
    ):
        self.source = source
        self.reference_value = reference_value
        #: config label -> (value, metric fingerprint).
        self.runs = {} if runs is None else runs

    @property
    def configurations(self) -> int:
        return len(self.runs)


def _metric_fingerprint(result) -> Tuple:
    """The executed-semantics fingerprint that must be identical across the
    compile-strategy axes (engines, incremental) within one rc mode."""
    counts = result.metrics.counts
    return (
        result.metrics.total_cost(),
        tuple(sorted(counts.items())),
        tuple(sorted(result.heap_stats.items())),
        tuple(result.output),
    )


def run_matrix(
    source: str,
    *,
    session: Optional[CompilationSession] = None,
    configs: Optional[Tuple[MatrixConfig, ...]] = None,
    baselines: bool = True,
    budget_steps: Optional[int] = DEFAULT_BUDGET_STEPS,
) -> MatrixReport:
    """Run ``source`` through the configured matrix; raise on any violation.

    ``session`` shares frontend work and the λrc lowering (one per rc mode,
    for the baselines and lp+rgn configurations alike) across the whole
    matrix, and is what the incremental configurations exercise; the
    caller may reuse one session across many programs — the cache is
    content-keyed.

    ``budget_steps`` bounds every execution (reference, baselines and the
    lp+rgn matrix alike); a trip surfaces as a :class:`DifferentialFailure`
    naming the configuration.  Pass ``None`` to run unbounded.
    """
    report = MatrixReport(source=source)
    session = session if session is not None else CompilationSession()
    configs = configs if configs is not None else full_matrix()

    def guarded(label, run):
        try:
            return run()
        except DifferentialFailure:
            raise
        except Exception as error:  # noqa: BLE001 - every crash is a finding
            raise DifferentialFailure(
                source, f"{label}: {type(error).__name__}: {error}"
            ) from error

    # Compile key -> compiles the group still owes / its latest artifact.
    compiles_left: Dict[Tuple, int] = {}
    latest: Dict[Tuple, object] = {}

    def compile_and_execute(label, compiler, key, compiles):
        """Run ``label``: compile while its group still owes a compile,
        then execute the group's latest artifact."""
        left = compiles_left.setdefault(key, compiles)
        if left:
            compiles_left[key] = left - 1
            latest[key] = guarded(
                label,
                lambda: getattr(compiler.compile(source), compiler.executable),
            )
        return guarded(label, lambda: compiler.execute(latest[key]))

    def options_for(rc_variant, execution_engine, rewrite_engine=None):
        options = oracle_options(
            rc_variant,
            rewrite_engine=rewrite_engine,
            execution_engine=execution_engine,
        )
        options.execution_budget_steps = budget_steps
        return options

    report.reference_value = guarded(
        "reference",
        lambda: run_reference(
            source, session=session, budget_steps=budget_steps
        ),
    )

    if baselines:
        for rc_variant in RC_VARIANTS:
            for execution_engine in EXECUTION_ENGINES:
                label = f"baseline/{rc_variant}/{execution_engine}"
                compiler = BaselineCompiler(
                    options_for(rc_variant, execution_engine), session=session
                )
                result = compile_and_execute(
                    label, compiler, ("baseline", rc_variant), 1
                )
                _check_run(report, label, result)

    fingerprints: Dict[str, Tuple[str, Tuple]] = {}
    for config in configs:
        label = config.label
        options = options_for(
            config.rc_variant, config.execution_engine, config.rewrite_engine
        )
        options.incremental_rgn_opt = config.incremental
        # An incremental group compiles twice: the second compile is served
        # by the incremental cache, which keeps cache hits under test.
        result = compile_and_execute(
            label,
            MlirCompiler(options, session=session),
            (config.rc_variant, config.rewrite_engine, config.incremental),
            2 if config.incremental else 1,
        )
        _check_run(report, label, result)
        fingerprint = _metric_fingerprint(result)
        report.runs[label] = (result.value, fingerprint)
        seen = fingerprints.get(config.rc_variant)
        if seen is None:
            fingerprints[config.rc_variant] = (label, fingerprint)
        elif seen[1] != fingerprint:
            raise DifferentialFailure(
                source,
                f"metric fingerprints diverge within {config.rc_variant}: "
                f"{seen[0]} vs {label}:\n  {seen[1]}\n  {fingerprint}",
            )
    return report


def _check_run(report: MatrixReport, label: str, result) -> None:
    if result.value != report.reference_value:
        raise DifferentialFailure(
            report.source,
            f"{label}: value {result.value!r} != reference "
            f"{report.reference_value!r}",
        )
    stats = result.heap_stats
    if stats.get("allocations") != stats.get("frees"):
        raise DifferentialFailure(
            report.source,
            f"{label}: heap imbalance — {stats.get('allocations')} "
            f"allocations vs {stats.get('frees')} frees",
        )
    if label not in report.runs:
        report.runs[label] = (result.value, _metric_fingerprint(result))
