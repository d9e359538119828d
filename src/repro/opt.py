"""``repro-opt``: run a textual pass pipeline over textual IR.

The mlir-opt / xdsl-opt analogue — the tool the per-pass regression tests
and the pipeline-debugging workflow are built on.  Usage::

    python -m repro.opt file.mlir                        # default rgn pipeline
    python -m repro.opt --pipeline "cse,dce" file.mlir
    python -m repro.opt --pipeline "canonicalize{ablate=case-elim}" -
    python -m repro.opt --list-passes
    python -m repro.opt --show-pipeline file.mlir        # spec + fingerprint
    python -m repro.opt --verify-roundtrip file.mlir     # parse(print(m)) check
    python -m repro.opt file.mlir --print-ir-after cse --metrics-json m.json
    python -m repro.opt file.mlir --inject-fault pass.cse:1
    python -m repro.opt --pipeline-from-bundle crash-0123456789ab

Resilience (see ``docs/RESILIENCE.md``): a pass failure prints the
failing IR on stderr, writes a crash reproducer bundle into
``--crash-dir`` (the pre-pass IR, the remaining pipeline spec, and the
re-based fault plan) and prints its path;
``--pipeline-from-bundle`` replays such a bundle byte-identically —
input, pipeline and fault plan all come from the bundle.
``--inject-fault site:N`` arms deterministic fault injection
(``--list-fault-sites`` prints the site catalogue).

The input is generic-form IR as printed by :mod:`repro.ir.printer` (get
some via ``python -m repro program.lean --emit rgn``); the result prints
on stdout (or ``-o``).  Telemetry flags (``--trace-out``, ``--verbose``,
``--metrics-json``, ``--print-ir-after*``) come for free through
:class:`~repro.rewrite.pass_manager.PassManager`, built by
:func:`~repro.backend.pipeline.build_spec_pipeline` — the exact
instrumentation stack of the in-compiler pipelines.

The default pipeline is the compiler's rgn optimisation spec, so

.. code-block:: shell

    python -m repro program.lean --emit rgn > before.mlir
    python -m repro.opt before.mlir

reproduces the compiler's rgn-opt phase byte-identically.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .backend.pipeline import (
    PipelineOptions,
    build_spec_pipeline,
    rgn_pipeline_spec,
)
from .ir.parser import ParseError, parse_module
from .ir.printer import print_module
from .ir.verifier import VerificationError, verify
from .resilience import (
    FaultPlan,
    fault_plan,
    known_sites,
    load_bundle,
    report_crash_bundle,
)
from .rewrite.registry import (
    PipelineSpecError,
    canonical_pipeline_spec,
    describe_registered_passes,
    pipeline_fingerprint,
)
from .telemetry import cli_telemetry


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def default_pipeline_spec() -> str:
    """The compiler's rgn optimisation spec under default options."""
    return rgn_pipeline_spec(PipelineOptions())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.opt", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "file", nargs="?", default=None,
        help="generic-form IR file ('-' for stdin)",
    )
    parser.add_argument(
        "--pipeline", metavar="SPEC", default=None,
        help="textual pipeline spec, e.g. "
        "\"cse,canonicalize{ablate=case-elim},dce\" "
        "(default: the compiler's rgn optimisation pipeline)",
    )
    parser.add_argument(
        "--list-passes", action="store_true",
        help="list every registered pass (with options) and exit",
    )
    parser.add_argument(
        "--show-pipeline", action="store_true",
        help="print the canonical pipeline spec and its fingerprint, "
        "then exit without reading input",
    )
    parser.add_argument(
        "-o", metavar="PATH", dest="output", default=None,
        help="write the resulting IR to PATH instead of stdout",
    )
    parser.add_argument(
        "--verify-roundtrip", action="store_true",
        help="after running, re-parse the printed result and check the "
        "reprint is byte-identical (printer/parser roundtrip guard)",
    )
    parser.add_argument(
        "--no-verify-each", action="store_true",
        help="skip IR verification after each pass",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="record spans and print the span tree (per-pass rewrite "
        "counters included) to stderr",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON of the pipeline run",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write a JSON snapshot of the unified metrics registry",
    )
    parser.add_argument(
        "--print-ir-after", metavar="PASS", action="append", default=[],
        help="print the module's IR after the named pass runs (repeatable)",
    )
    parser.add_argument(
        "--print-ir-after-all", action="store_true",
        help="print the module's IR after every pass",
    )
    parser.add_argument(
        "--inject-fault", metavar="SITE[:N]", action="append", default=[],
        help="raise a deterministic fault at the N-th hit of SITE "
        "(repeatable; see --list-fault-sites)",
    )
    parser.add_argument(
        "--list-fault-sites", action="store_true",
        help="list every fault-injection site and exit",
    )
    parser.add_argument(
        "--crash-dir", metavar="DIR", default=".",
        help="directory crash reproducer bundles are written into "
        "(default: current directory)",
    )
    parser.add_argument(
        "--pipeline-from-bundle", metavar="DIR", default=None,
        help="replay a crash bundle: input IR, pipeline spec, verify-each "
        "setting and fault plan are all read from the bundle directory",
    )
    args = parser.parse_args(argv)

    if args.list_passes:
        print(describe_registered_passes())
        return 0

    if args.list_fault_sites:
        for site, description in sorted(known_sites().items()):
            print(f"{site:24s} {description}")
        return 0

    bundle = None
    fault_specs = list(args.inject_fault)
    if args.pipeline_from_bundle is not None:
        if args.file is not None or args.pipeline is not None:
            parser.error(
                "--pipeline-from-bundle replaces both the input file and "
                "--pipeline"
            )
        try:
            bundle = load_bundle(args.pipeline_from_bundle)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load bundle: {error}", file=sys.stderr)
            return 2
        spec = bundle.pipeline_spec
        # The bundle's faults replay first; extra --inject-fault specs stack.
        fault_specs = list(bundle.faults) + fault_specs
    else:
        spec = (
            args.pipeline if args.pipeline is not None
            else default_pipeline_spec()
        )

    try:
        plan = FaultPlan.parse(fault_specs) if fault_specs else None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.show_pipeline:
        try:
            canonical = canonical_pipeline_spec(spec)
        except PipelineSpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(canonical)
        print(f"fingerprint: {pipeline_fingerprint(spec)}")
        return 0

    if args.file is None and bundle is None:
        parser.error("an input file is required (use '-' for stdin)")

    options = PipelineOptions(
        verify_each=(
            bundle.verify_each if bundle is not None else True
        ) and not args.no_verify_each,
        print_ir_after=tuple(args.print_ir_after),
        print_ir_after_all=args.print_ir_after_all,
        crash_bundle_dir=args.crash_dir,
    )
    try:
        pipeline = build_spec_pipeline(spec, options)
    except PipelineSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if bundle is not None:
        text = bundle.input_ir
    else:
        try:
            text = _read_input(args.file)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    with cli_telemetry(args.trace_out, args.metrics_json, verbose=args.verbose):
        try:
            with fault_plan(plan):
                module = parse_module(text)
                verify(module)
                pipeline.run(module)
        except (ParseError, VerificationError) as error:
            print(f"error: {error}", file=sys.stderr)
            report_crash_bundle(error)
            return 1
        except Exception as error:  # pass crash / injected fault / budget
            name = type(error).__name__
            print(f"error: {name}: {error}", file=sys.stderr)
            report_crash_bundle(error)
            return 1
        result = print_module(module)

    if args.verify_roundtrip:
        try:
            reparsed = parse_module(result)
        except ParseError as error:
            print(f"error: roundtrip parse failed: {error}", file=sys.stderr)
            return 1
        reprint = print_module(reparsed)
        if reprint != result:
            print(
                "error: roundtrip print is not byte-identical",
                file=sys.stderr,
            )
            return 1

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result)
    else:
        print(result, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
