"""MLIR-style pass instrumentation.

:class:`PassInstrumentation` callbacks hook the
:class:`~repro.rewrite.pass_manager.PassManager` around every pass:
``run_before_pass`` / ``run_after_pass`` bracket a successful run,
``run_after_pass_failed`` fires when the pass itself raises (e.g. a
:class:`~repro.rewrite.driver.NonConvergenceError`) **or** when the
post-pass ``verify_each`` verification rejects the module.

:class:`PrintIRInstrumentation` is the standard consumer — MLIR's
``--mlir-print-ir-after`` / ``--mlir-print-ir-after-all`` /
print-on-failure, surfaced on the CLI as ``--print-ir-after=<pass>``,
``--print-ir-after-all`` and the always-on failure dump.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence, TextIO


class PassInstrumentation:
    """Base class: every callback defaults to a no-op."""

    def run_before_pass(self, pass_, module) -> None:
        """Called immediately before ``pass_`` runs on ``module``."""

    def run_after_pass(self, pass_, module) -> None:
        """Called after ``pass_`` ran and (when enabled) verification
        passed."""

    def run_after_pass_failed(self, pass_, module, error: Exception) -> None:
        """Called when ``pass_`` raised or post-pass verification failed."""


class PrintIRInstrumentation(PassInstrumentation):
    """Dump IR around pass execution.

    * ``print_after`` — pass names whose output IR is printed,
    * ``print_after_all`` — print the module after every pass.

    When a pass fails (pattern non-convergence or a ``verify_each``
    rejection), the offending IR is always printed: for a verification
    failure, each failing *function* (located by re-running the verifier
    per function) together with its error list; otherwise the whole
    module.

    ``stream`` defaults to ``sys.stderr`` resolved at print time, so
    test harnesses that capture stderr see the dumps.
    """

    def __init__(
        self,
        *,
        print_after: Sequence[str] = (),
        print_after_all: bool = False,
        stream: Optional[TextIO] = None,
    ):
        self.print_after = frozenset(print_after)
        self.print_after_all = print_after_all
        self._stream = stream

    @property
    def stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stderr

    def _dump(self, header: str, op) -> None:
        from ..ir.printer import print_op

        print(f"// -----// {header} //----- //", file=self.stream)
        print(print_op(op), file=self.stream)

    def run_after_pass(self, pass_, module) -> None:
        if self.print_after_all or pass_.name in self.print_after:
            self._dump(f"IR Dump After {pass_.name}", module)

    def run_after_pass_failed(self, pass_, module, error: Exception) -> None:
        from ..ir.verifier import VerificationError

        stream = self.stream
        print(
            f"// -----// IR Dump After {pass_.name} Failed "
            f"({type(error).__name__}) //----- //",
            file=stream,
        )
        if isinstance(error, VerificationError):
            if self._dump_failing_functions(pass_, module, stream):
                return
        # Non-verifier failures (or errors outside any function): the
        # whole module is the most precise thing we can show.
        from ..ir.printer import print_op

        print(print_op(module), file=stream)

    def _dump_failing_functions(self, pass_, module, stream: TextIO) -> bool:
        """Print every function the verifier rejects; True if any found."""
        from ..dialects.func import FuncOp
        from ..ir.printer import print_op
        from ..ir.verifier import collect_errors

        found = False
        for op in module.walk():
            if not isinstance(op, FuncOp):
                continue
            errors = collect_errors(op)
            if not errors:
                continue
            found = True
            print(
                f"// function @{op.sym_name} failed verification after "
                f"pass '{pass_.name}':",
                file=stream,
            )
            for message in errors:
                print(f"//   {message}", file=stream)
            print(print_op(op), file=stream)
        return found
