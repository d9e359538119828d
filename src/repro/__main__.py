"""Command-line driver: compile and run a mini-LEAN program.

Usage::

    python -m repro program.lean
    python -m repro program.lean --variant rc-opt+reuse --metrics
    python -m repro program.lean --variant baseline --rc-mode opt
    python -m repro program.lean --emit c          # print the C artifact
    python -m repro program.lean --emit lp         # print the lp module
    python -m repro program.lean --emit cfg        # print the final CFG module
    python -m repro program.lean --execution-engine tree   # tree-walking oracle
    python -m repro - < program.lean               # read from stdin

The ``--variant`` flag selects the pipeline configuration: ``baseline`` is
the λrc-interpreting leanc analogue; everything else runs the lp+rgn MLIR
pipeline (``default``, the Figure-10 ablations ``simplifier`` / ``rgn`` /
``none``, and the RC-optimisation ablations ``rc-naive`` / ``rc-opt`` /
``rc-opt+reuse``).

Exit codes tell failure layers apart (see ``docs/RESILIENCE.md``):

* 0 — success,
* 2 — usage errors (bad flags, unreadable input),
* 3 — frontend errors (lexing, parsing, type checking, lowering to
  λpure; also a program that nests too deeply for one of them),
* 4 — pipeline errors (a pass crashed or verification rejected its
  output; a crash reproducer bundle is written into ``--crash-dir`` and
  its path printed),
* 5 — execution errors (runtime faults, tripped ``--budget-*`` limits),
* 1 — anything unexpected.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .backend.pipeline import (
    FIGURE10_VARIANTS,
    RC_VARIANTS,
    BaselineCompiler,
    CompilationSession,
    MlirCompiler,
    PipelineOptions,
)
from .interp.bytecode import EXECUTION_ENGINES, FUSED_OPCODE_BASES
from .ir.printer import print_module
from .lambda_pure.lowering import LoweringError
from .lean import LexError, ParseError, TypeError_
from .resilience import FaultPlan, fault_plan
from .rewrite.driver import ENGINES
from .telemetry import MetricsRegistry, cli_telemetry

VARIANTS = ("default", "baseline", *FIGURE10_VARIANTS, *RC_VARIANTS)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _format_result(value: object) -> str:
    """``str(value)`` for a run's value, built with an explicit stack: a
    long list nests deeper than ``str`` can recurse."""
    if value.__class__ is not tuple and value.__class__ is not list:
        return str(value)
    parts: List[str] = []
    # Rendered text, or a tuple/list still to open.
    stack: List[object] = [value]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        if item.__class__ is tuple:
            parts.append("(")
            stack.append(",)" if len(item) == 1 else ")")
        else:
            parts.append("[")
            stack.append("]")
        for index in range(len(item) - 1, -1, -1):
            element = item[index]
            if element.__class__ is tuple or element.__class__ is list:
                stack.append(element)
            else:
                stack.append(repr(element))
            if index:
                stack.append(", ")
    return "".join(parts)


def _print_run_report(result, *, show_metrics: bool) -> None:
    for line in result.output:
        print(line)
    print(f"result: {_format_result(result.value)}")
    if not show_metrics:
        return
    metrics = result.metrics
    heap = result.heap_stats
    print(
        f"[metrics] cost={metrics.total_cost()} "
        f"operations={metrics.total_operations()}"
    )
    print(
        f"[heap] allocations={heap['allocations']} frees={heap['frees']} "
        f"peak_live={heap['peak_live']} reuses={heap.get('reuses', 0)}"
    )
    rc_events = metrics.counts.get("rc", 0) + metrics.counts.get("reuse", 0)
    print(
        f"[rc] rc_ops={metrics.counts.get('rc', 0)} "
        f"reuse_ops={metrics.counts.get('reuse', 0)} "
        f"rc_events={rc_events}"
    )


def _print_exec_stats(registry: MetricsRegistry, *, unfused: bool = False) -> None:
    """Sorted VM instruction-frequency table from ``vm.instr.freq.*``.

    With ``unfused`` every superinstruction row is decomposed back into
    its base opcodes (one fused execution counts once for each
    constituent), so the table counts what the unfused bytecode
    (``compile_cfg_module(..., fuse=False)``) would execute.
    """
    prefix = "vm.instr.freq."
    frequencies = {
        name[len(prefix):]: count
        for name, count in registry.snapshot().items()
        if name.startswith(prefix)
    }
    if unfused:
        decomposed: dict = {}
        for name, count in frequencies.items():
            for base in FUSED_OPCODE_BASES.get(name, (name,)):
                decomposed[base] = decomposed.get(base, 0) + count
        frequencies = decomposed
    total = sum(frequencies.values())
    print(f"[exec-stats] {total} instructions across "
          f"{len(frequencies)} opcodes")
    print(f"  {'opcode':<16s} {'count':>10s} {'share':>7s}")
    for name, count in sorted(
        frequencies.items(), key=lambda item: (-item[1], item[0])
    ):
        share = 100.0 * count / total if total else 0.0
        print(f"  {name:<16s} {count:>10d} {share:>6.1f}%")


def _print_rc_report(report) -> None:
    if report is None or report.mode == "naive":
        return
    print(
        f"[rc_opt] mode={report.mode} "
        f"borrowed_params={report.borrowed_parameters} "
        f"fused_pairs={report.fusion.cancelled_pairs} "
        f"merged_ops={report.fusion.merged_ops} "
        f"reuse_pairs={report.reuse.reuse_pairs}",
        file=sys.stderr,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("file", help="mini-LEAN source file ('-' for stdin)")
    parser.add_argument(
        "--variant", choices=VARIANTS, default="default",
        help="pipeline variant to compile with (default: %(default)s)",
    )
    parser.add_argument(
        "--rc-mode", choices=("naive", "opt", "opt+reuse"), default=None,
        help="RC optimisation level (overrides the level implied by --variant)",
    )
    parser.add_argument(
        "--rewrite-engine", choices=ENGINES, default=None,
        help="pattern-rewrite fixpoint engine for the lp+rgn pipeline "
        "(worklist is the default; rescan is the differential baseline)",
    )
    parser.add_argument(
        "--execution-engine", choices=EXECUTION_ENGINES, default="vm",
        help="how the compiled program executes: the register-bytecode VM "
        "(default) or the tree-walking oracle interpreter",
    )
    parser.add_argument(
        "--emit", choices=("c", "lp", "rgn", "rgn-opt", "cfg"), default=None,
        help="print a compilation artifact instead of running (rgn is the "
        "module entering the rgn optimisations, rgn-opt the module leaving "
        "them — ready for replay through python -m repro.opt)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the cost model, heap and RC statistics after the result",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="record spans and print the span tree (per-pass rewrite "
        "counters included) and the RC-optimisation report to stderr",
    )
    parser.add_argument(
        "--no-check-heap", action="store_true",
        help="skip the zero-leak / no-double-free heap check at exit",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON (load in Perfetto / "
        "chrome://tracing) covering the whole compile and run",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write a JSON snapshot of the unified metrics registry",
    )
    parser.add_argument(
        "--exec-stats", action="store_true",
        help="print a sorted VM instruction-frequency table after the run "
        "(requires --execution-engine vm)",
    )
    parser.add_argument(
        "--unfused", action="store_true",
        help="decompose superinstruction rows in the --exec-stats table "
        "back into their base opcodes",
    )
    parser.add_argument(
        "--print-ir-after", metavar="PASS", action="append", default=[],
        help="print the module's IR after the named pass runs "
        "(repeatable; lp+rgn pipeline only)",
    )
    parser.add_argument(
        "--print-ir-after-all", action="store_true",
        help="print the module's IR after every pass (lp+rgn pipeline only)",
    )
    parser.add_argument(
        "--inject-fault", metavar="SITE[:N]", action="append", default=[],
        help="raise a deterministic fault at the N-th hit of SITE "
        "(repeatable; python -m repro.opt --list-fault-sites lists them)",
    )
    parser.add_argument(
        "--crash-dir", metavar="DIR", default=".",
        help="directory crash reproducer bundles are written into when a "
        "pipeline pass fails (default: current directory)",
    )
    parser.add_argument(
        "--budget-seconds", type=float, metavar="S", default=None,
        help="wall-clock execution budget; exceeding it exits 5 instead "
        "of running forever",
    )
    parser.add_argument(
        "--budget-steps", type=int, metavar="N", default=None,
        help="execution step budget (calls and branches); exceeding it "
        "exits 5",
    )
    args = parser.parse_args(argv)

    if args.exec_stats and args.execution_engine != "vm":
        print(
            "error: --exec-stats needs the bytecode VM "
            "(--execution-engine vm)",
            file=sys.stderr,
        )
        return 2
    if args.unfused and not args.exec_stats:
        print(
            "error: --unfused only makes sense with --exec-stats",
            file=sys.stderr,
        )
        return 2

    try:
        source = _read_source(args.file)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        plan = FaultPlan.parse(args.inject_fault) if args.inject_fault else None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    with cli_telemetry(
        args.trace_out, args.metrics_json,
        verbose=args.verbose, record=args.exec_stats,
    ) as session, fault_plan(plan):
        code = _compile_and_run(args, source)
    if code == 0 and args.exec_stats:
        _print_exec_stats(session.metrics, unfused=args.unfused)
    return code


def _compile_and_run(args, source: str) -> int:
    """Compile, optionally emit, and run — inside any telemetry scope.

    The compile and execute phases are separate ``try`` blocks so the exit
    code names the failing layer: 3 for frontend errors, 4 for pipeline
    errors (after the crash-bundle path is reported), 5 for execution
    errors.
    """
    check_heap = not args.no_check_heap
    # One compilation session per CLI invocation: repeated compiles of the
    # same source (e.g. driver scripts importing main) share frontend work.
    session = CompilationSession()
    options = (
        PipelineOptions()
        if args.variant in ("default", "baseline")
        else PipelineOptions.variant(args.variant)
    )
    if args.rc_mode is not None:
        options.rc_mode = args.rc_mode
    if args.rewrite_engine is not None:
        options.rewrite_engine = args.rewrite_engine
    options.execution_engine = args.execution_engine
    options.print_ir_after = tuple(args.print_ir_after)
    options.print_ir_after_all = args.print_ir_after_all
    options.crash_bundle_dir = args.crash_dir
    options.execution_budget_seconds = args.budget_seconds
    options.execution_budget_steps = args.budget_steps
    if args.emit in ("lp", "rgn", "rgn-opt"):
        options.capture_ir = (args.emit,)
    compiler = (
        BaselineCompiler if args.variant == "baseline" else MlirCompiler
    )(options, session=session)

    try:
        artifacts = compiler.compile(source)
    except (LexError, ParseError, TypeError_, LoweringError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except Exception as error:  # noqa: BLE001 - CLI boundary
        from .resilience import report_crash_bundle

        print(f"error: {error}", file=sys.stderr)
        report_crash_bundle(error)
        return 4

    if args.variant == "baseline":
        if args.emit:
            if args.emit != "c":
                print(
                    "error: the baseline pipeline only emits C",
                    file=sys.stderr,
                )
                return 2
            print(artifacts.c_source)
            return 0
    else:
        if args.emit == "c":
            print(
                "error: the lp+rgn pipeline does not emit C; "
                "use --variant baseline",
                file=sys.stderr,
            )
            return 2
        if args.emit == "lp":
            print(artifacts.captured_ir["lp"], end="")
            return 0
        if args.emit in ("rgn", "rgn-opt"):
            captured = artifacts.captured_ir.get(args.emit)
            if captured is None:
                print(
                    "error: this variant does not run the rgn "
                    "optimisations, so there is no rgn-opt module",
                    file=sys.stderr,
                )
                return 2
            print(captured, end="")
            return 0
        if args.emit == "cfg":
            print(print_module(artifacts.cfg_module))
            return 0
    if args.verbose:
        _print_rc_report(artifacts.rc_report)

    try:
        result = compiler.execute(
            getattr(artifacts, compiler.executable), check_heap=check_heap
        )
    except Exception as error:  # noqa: BLE001 - CLI boundary
        print(f"error: {error}", file=sys.stderr)
        return 5

    _print_run_report(result, show_metrics=args.metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
