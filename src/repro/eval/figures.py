"""Regenerate the paper's figures as text reports.

Usage::

    python -m repro.eval.figures --figure 9
    python -m repro.eval.figures --figure 10
    python -m repro.eval.figures --figure 11
    python -m repro.eval.figures --figure rc
    python -m repro.eval.figures --figure compile
    python -m repro.eval.figures --all
    python -m repro.eval.figures --all --jobs 4   # shard across processes
    python -m repro.eval.figures --figure 9 --sizes xlarge      # biggest tier
    python -m repro.eval.figures --all --sizes default          # quick tier
    python -m repro.eval.figures --all --execution-engine tree  # oracle engine

The ``large`` tier is the figure default (the fused direct-threaded VM is
fast enough); ``default`` stays the quick tier for smoke runs and the
tree-walking oracles, and ``xlarge`` exercises the VM 2.0 headroom.

Each report prints the same rows/series as the paper's figure; absolute
numbers differ (the substrate is a cost-model interpreter, not the authors'
Xeon testbed) but the shape — per-benchmark speedups hovering around parity —
is what the paper's conclusion rests on.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from ..interp.bytecode import EXECUTION_ENGINES
from ..telemetry import telemetry_session
from .benchmarks import SIZE_TIERS
from .harness import EvaluationHarness, FigureData

#: Paper-reported speedups (Figure 9): lp+rgn backend over leanc.
PAPER_FIGURE9 = {
    "binarytrees-int": 1.05,
    "binarytrees": 1.12,
    "const_fold": 1.01,
    "deriv": 1.04,
    "filter": 0.93,
    "qsort": 0.99,
    "rbmap_checkpoint": 1.39,
    "unionfind": 1.27,
    "geomean": 1.09,
}

#: Paper-reported speedups (Figure 10): rgn optimisations over the λrc
#: simplifier.
PAPER_FIGURE10 = {
    "binarytrees-int": 1.05,
    "binarytrees": 1.0,
    "const_fold": 0.98,
    "deriv": 1.05,
    "filter": 0.95,
    "qsort": 0.97,
    "rbmap_checkpoint": 1.0,
    "unionfind": 0.98,
    "geomean": 1.0,
}

#: Figure 11: the qualitative ecosystem comparison, as reproduced by this
#: repository (feature -> (baseline pipeline, lp+rgn pipeline)).
FIGURE11_ROWS = [
    ("Backend", "C-like emission (c_backend)", "mini-MLIR (lp + rgn dialects)"),
    ("Vectorization", "No", "possible via dialects (affine/linalg analogue)"),
    ("Testing harness", "ad-hoc scripts", "pytest + textual IR FileCheck-style tests"),
    ("Constant folding", "hand-written (λpure simplifier)", "rewrite patterns (constant-fold pass)"),
    ("CSE", "none", "builtin pass (cse, extended by region-gvn)"),
    ("DCE", "hand-written", "builtin pass (dce / dead-region-elimination)"),
    ("Inliner", "hand-written join inlining", "builtin pass (inline)"),
    ("Test minimization", "none",
     "crash bundle cut at the failing pass + hypothesis program shrinking"),
    ("Debug information", "none", "value name hints preserved end-to-end"),
    ("IDE support", "none", "textual IR + parser (LSP-ready)"),
    ("Tail call optimization", "VM call+ret peephole, no IR mark",
     "verified musttail attribute + VM frame reuse"),
]


def _bar(value: float, scale: int = 40) -> str:
    filled = max(0, min(int(round(value * scale / 1.5)), scale))
    return "#" * filled


def format_speedup_figure(
    data: FigureData,
    title: str,
    paper: Optional[dict] = None,
    extra_label: Optional[str] = None,
) -> str:
    lines: List[str] = []
    lines.append(title)
    lines.append("=" * len(title))
    header = f"{'benchmark':20s} {'speedup':>8s}"
    if extra_label:
        header += f" {extra_label:>10s}"
    if paper:
        header += f" {'paper':>8s}"
    lines.append(header)
    for index, row in enumerate(data.rows):
        line = f"{row.benchmark:20s} {row.speedup:8.3f}"
        if extra_label:
            other = data.extra_series[extra_label][index]
            line += f" {other.speedup:10.3f}"
        if paper:
            line += f" {paper.get(row.benchmark, float('nan')):8.2f}"
        line += "  " + _bar(row.speedup)
        lines.append(line)
    summary = f"{'geomean':20s} {data.geomean:8.3f}"
    if extra_label:
        summary += f" {data.geomean_of(extra_label):10.3f}"
    if paper:
        summary += f" {paper.get('geomean', float('nan')):8.2f}"
    lines.append("-" * len(header))
    lines.append(summary)
    return "\n".join(lines)


def figure9_report(harness: Optional[EvaluationHarness] = None) -> str:
    harness = harness or EvaluationHarness()
    data = harness.figure9()
    return format_speedup_figure(
        data,
        "Figure 9: speedup of the lp+rgn backend over the baseline (leanc)",
        paper=PAPER_FIGURE9,
    )


def figure10_report(harness: Optional[EvaluationHarness] = None) -> str:
    harness = harness or EvaluationHarness()
    data = harness.figure10()
    return format_speedup_figure(
        data,
        "Figure 10: speedup of rgn optimisations over the λrc simplifier "
        "(and of no optimisation, right column)",
        paper=PAPER_FIGURE10,
        extra_label="none",
    )


def figure11_table() -> str:
    lines = [
        "Figure 11: ecosystem comparison (baseline λrc+C vs lp+rgn)",
        "=" * 60,
        f"{'Feature':24s} {'λrc + C':34s} {'lp + rgn'}",
        "-" * 110,
    ]
    for feature, old, new in FIGURE11_ROWS:
        lines.append(f"{feature:24s} {old:34s} {new}")
    return "\n".join(lines)


def rc_report(harness: Optional[EvaluationHarness] = None) -> str:
    """The RC-optimisation ablation (the :mod:`repro.rc_opt` subsystem):
    executed RC operations and heap allocations per benchmark for
    ``rc-naive`` / ``rc-opt`` / ``rc-opt+reuse``."""
    harness = harness or EvaluationHarness()
    rows = harness.rc_table()
    title = "RC optimisation: rc ops and allocations by variant"
    lines = [title, "=" * len(title)]
    header = (
        f"{'benchmark':18s} {'rc naive':>9s} {'rc opt':>9s} {'Δrc':>7s}"
        f" {'alloc naive':>12s} {'alloc reuse':>12s} {'Δalloc':>7s} {'reused':>7s}"
    )
    lines.append(header)
    for row in rows:
        naive = row.measurements["rc-naive"]
        opt = row.measurements["rc-opt"]
        reuse = row.measurements["rc-opt+reuse"]
        lines.append(
            f"{row.benchmark:18s} {naive.rc_ops:9d} {opt.rc_ops:9d}"
            f" {row.rc_reduction('rc-opt'):6.1%}"
            f" {naive.allocations:12d} {reuse.allocations:12d}"
            f" {row.allocation_reduction('rc-opt+reuse'):6.1%}"
            f" {reuse.reuses:7d}"
        )
    total_naive_rc = sum(r.measurements["rc-naive"].rc_ops for r in rows)
    total_opt_rc = sum(r.measurements["rc-opt"].rc_ops for r in rows)
    total_naive_alloc = sum(r.measurements["rc-naive"].allocations for r in rows)
    total_reuse_alloc = sum(r.measurements["rc-opt+reuse"].allocations for r in rows)
    total_reuses = sum(r.measurements["rc-opt+reuse"].reuses for r in rows)
    lines.append("-" * len(header))
    rc_delta = 1.0 - total_opt_rc / total_naive_rc if total_naive_rc else 0.0
    alloc_delta = (
        1.0 - total_reuse_alloc / total_naive_alloc if total_naive_alloc else 0.0
    )
    lines.append(
        f"{'total':18s} {total_naive_rc:9d} {total_opt_rc:9d} {rc_delta:6.1%}"
        f" {total_naive_alloc:12d} {total_reuse_alloc:12d} {alloc_delta:6.1%}"
        f" {total_reuses:7d}"
    )
    return "\n".join(lines)


def correctness_report(verdicts: Dict[str, bool]) -> str:
    """Format :meth:`EvaluationHarness.verify_correctness`'s verdicts."""
    passed = sum(1 for ok in verdicts.values() if ok)
    lines = ["Benchmark-suite correctness (both backends vs reference):"]
    for name, ok in verdicts.items():
        lines.append(f"  {name:20s} {'PASS' if ok else 'FAIL'}")
    lines.append(f"{passed}/{len(verdicts)} benchmarks agree with the reference")
    return "\n".join(lines)


def write_measurement_metrics(path: str, harness: EvaluationHarness) -> int:
    """Measure the full variant matrix and write per-measurement metrics.

    Each row pairs one (benchmark, variant) measurement with the unified
    metrics delta recorded while it ran, so figure data and telemetry land
    in one artifact.  Returns the number of rows written.
    """
    with telemetry_session():
        measurements = harness.all_measurements()
    payload = {
        "schema": "repro/metrics/v1",
        "measurements": [
            {
                "benchmark": m.benchmark,
                "variant": m.variant,
                "metrics": m.metrics,
            }
            for m in measurements
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=False, default=str)
        handle.write("\n")
    return len(payload["measurements"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure", choices=["9", "10", "11", "rc", "compile"], default=None
    )
    parser.add_argument("--all", action="store_true", help="print every figure")
    parser.add_argument(
        "--correctness", action="store_true", help="print the correctness report"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard measurement across N worker processes (one benchmark "
        "per worker); the figure output is byte-identical to --jobs 1",
    )
    parser.add_argument(
        "--execution-engine", choices=EXECUTION_ENGINES, default="vm",
        help="how compiled programs execute: the register-bytecode VM "
        "(default) or the tree-walking oracle interpreters; the figure "
        "output is byte-identical either way",
    )
    parser.add_argument(
        "--sizes", choices=sorted(SIZE_TIERS), default="large",
        help="benchmark problem-size tier; 'large' (the default) is sized "
        "for the bytecode engine and 'xlarge' for the fused direct-"
        "threaded VM",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="measure the full variant matrix and write per-measurement "
        "unified-telemetry metrics to PATH",
    )
    args = parser.parse_args(argv)

    printed = False
    # Failed checks exit with the layer codes of ``python -m repro``: 5 for
    # an execution mismatch, 4 for a pass bug (which outranks it).
    status = 0
    harness = EvaluationHarness(
        SIZE_TIERS[args.sizes],
        jobs=args.jobs,
        execution_engine=args.execution_engine,
    )
    if args.correctness:
        verdicts = harness.verify_correctness()
        print(correctness_report(verdicts))
        if not all(verdicts.values()):
            status = 5
        printed = True
    if args.all or args.figure == "9":
        print(figure9_report(harness))
        print()
        printed = True
    if args.all or args.figure == "10":
        print(figure10_report(harness))
        print()
        printed = True
    if args.all or args.figure == "11":
        print(figure11_table())
        printed = True
    if args.all or args.figure == "rc":
        print(rc_report(harness))
        printed = True
    if args.all or args.figure == "compile":
        from .compile_bench import compile_report, differential_rows

        differential = differential_rows(jobs=args.jobs)
        print(compile_report(differential))
        if not all(row.ir_equal for row in differential):
            status = 4
        printed = True
    if args.metrics_json:
        rows = write_measurement_metrics(args.metrics_json, harness)
        print(f"wrote {args.metrics_json} ({rows} measurements)")
        printed = True
    if not printed:
        parser.print_help()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
