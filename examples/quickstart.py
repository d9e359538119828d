"""Quickstart: compile a mini-LEAN program with both backends and compare.

Run with::

    python examples/quickstart.py
"""

from repro.backend import (
    BaselineCompiler,
    MlirCompiler,
    PipelineOptions,
    run_baseline,
    run_mlir,
    run_reference,
)

SOURCE = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))

def sum (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => h + sum t

def main : Nat := sum (upto 25)
"""


def main() -> None:
    print("=== source program ===")
    print(SOURCE)

    expected = run_reference(SOURCE)
    print(f"reference interpreter result: {expected}")

    baseline = run_baseline(SOURCE)
    print(
        f"baseline (leanc-style) result: {baseline.value}, "
        f"cost={baseline.metrics.total_cost()}, "
        f"allocations={baseline.heap_stats['allocations']}"
    )

    mlir = run_mlir(SOURCE)
    print(
        f"lp+rgn backend result:         {mlir.value}, "
        f"cost={mlir.metrics.total_cost()}, "
        f"allocations={mlir.heap_stats['allocations']}"
    )
    print(f"speedup (cost ratio): {baseline.metrics.total_cost() / mlir.metrics.total_cost():.3f}x")

    # Peek at the intermediate artifacts.
    artifacts = MlirCompiler(PipelineOptions(capture_ir=("lp",))).compile(SOURCE)
    print("\n=== lp-dialect module for `sum` (excerpt) ===")
    lp_text = artifacts.captured_ir["lp"]
    print("\n".join(lp_text.splitlines()[:30]))

    c_source = BaselineCompiler().compile(SOURCE).c_source
    print("\n=== baseline C emission (excerpt) ===")
    print("\n".join(c_source.splitlines()[:25]))


if __name__ == "__main__":
    main()
