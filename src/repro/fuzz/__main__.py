"""``python -m repro.fuzz`` — seeded, budgeted differential fuzzing.

Usage::

    python -m repro.fuzz --seed 2022 --max-examples 60 --budget-seconds 30
    python -m repro.fuzz --matrix full --max-examples 500 --budget-seconds 600 \\
        --save --corpus-dir tests/corpus

The run is deterministic for a given ``--seed``: examples are drawn in
fixed-size batches, each batch seeded with ``seed + batch_index``, and the
wall-clock budget is checked *between* batches — so a budgeted run stops
early but never changes which programs a batch generates.

On a failure hypothesis shrinks the program; the minimal counterexample is
pretty-printed and (with ``--save``) written into the corpus directory,
where the regression replay test (``tests/test_fuzz.py``) picks it up
forever after.  Exit code 1 when any counterexample was found.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from hypothesis import HealthCheck, given, seed as hypothesis_seed, settings

from ..backend.pipeline import CompilationSession
from ..lean.printer import print_program
from ..resilience import FaultPlan, fault_plan
from .corpus import DEFAULT_CORPUS_DIR, save_counterexample
from .differential import DifferentialFailure, full_matrix, run_matrix, smoke_matrix
from .generator import typed_programs


def _run_batch(
    batch_seed: int, examples: int, configs, counter: List[int]
) -> Optional[DifferentialFailure]:
    """Run one seeded batch; returns the shrunk failure, if any."""
    session = CompilationSession()

    @hypothesis_seed(batch_seed)
    @settings(
        max_examples=examples,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        print_blob=False,
    )
    @given(program=typed_programs())
    def batch(program):
        counter[0] += 1
        source = print_program(program)
        run_matrix(source, session=session, configs=configs)

    try:
        batch()
    except DifferentialFailure as failure:
        return failure
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base PRNG seed (default 0)"
    )
    parser.add_argument(
        "--max-examples", type=int, default=100,
        help="total generated programs across all batches (default 100)",
    )
    parser.add_argument(
        "--budget-seconds", type=float, default=60.0,
        help="soft wall-clock budget, checked between batches (default 60)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=20,
        help="examples per seeded batch (default 20)",
    )
    parser.add_argument(
        "--matrix", choices=("smoke", "full"), default="full",
        help="configuration matrix per program: 'full' is every rc-mode × "
        "rewrite-engine × execution-engine combination (12, from 6 "
        "compiles), 'smoke' a cheap covering diagonal (default full)",
    )
    parser.add_argument(
        "--corpus-dir", type=Path, default=DEFAULT_CORPUS_DIR,
        help=f"where --save writes counterexamples (default {DEFAULT_CORPUS_DIR})",
    )
    parser.add_argument(
        "--save", action="store_true",
        help="save shrunk counterexamples into --corpus-dir",
    )
    parser.add_argument(
        "--stop-on-failure", action="store_true",
        help="stop at the first counterexample instead of finishing the budget",
    )
    parser.add_argument(
        "--inject-fault", metavar="SITE[:N]", action="append", default=[],
        help="arm deterministic fault injection for the whole run — every "
        "resulting crash surfaces as a counterexample (repeatable; "
        "python -m repro.opt --list-fault-sites lists the sites)",
    )
    args = parser.parse_args(argv)

    try:
        plan = FaultPlan.parse(args.inject_fault) if args.inject_fault else None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    configs = full_matrix() if args.matrix == "full" else smoke_matrix()
    start = time.monotonic()
    counter = [0]
    failures: List[DifferentialFailure] = []
    batch_index = 0
    while counter[0] < args.max_examples:
        if time.monotonic() - start > args.budget_seconds:
            print(f"budget exhausted after {counter[0]} examples")
            break
        examples = min(args.batch_size, args.max_examples - counter[0])
        with fault_plan(plan):
            failure = _run_batch(
                args.seed + batch_index, examples, configs, counter
            )
        batch_index += 1
        if failure is not None:
            failures.append(failure)
            print("=" * 60)
            print(f"counterexample (batch seed {args.seed + batch_index - 1}):")
            print(failure.reason)
            print(failure.source)
            if args.save:
                path = save_counterexample(
                    failure.source, args.corpus_dir, reason=failure.reason
                )
                print(f"saved: {path}")
            if args.stop_on_failure:
                break

    elapsed = time.monotonic() - start
    per_program = len(configs) + 7  # + reference + 6 baseline runs
    print(
        f"fuzz: {counter[0]} programs x {per_program} configurations "
        f"in {elapsed:.1f}s ({batch_index} batches, seed {args.seed}), "
        f"{len(failures)} counterexample(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
