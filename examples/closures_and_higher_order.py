"""Closures, partial application and lambda lifting through the full pipeline
(the workload class that motivates lp.pap / lp.papextend, Figure 7).

Run with::

    python examples/closures_and_higher_order.py
"""

from repro.backend import (
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

def map (f : Nat -> Nat) (xs : List) : List :=
  match xs with
  | List.nil => List.nil
  | List.cons h t => List.cons (f h) (map f t)

def foldl (f : Nat -> Nat -> Nat) (acc : Nat) (xs : List) : Nat :=
  match xs with
  | List.nil => acc
  | List.cons h t => foldl f (f acc h) t

def add (x : Nat) (y : Nat) : Nat := x + y

def main : Nat :=
  let scale := 3;
  let xs := map (fun (v : Nat) => v * scale) (upto 15);
  foldl add 0 xs
"""


def main() -> None:
    expected = run_reference(SOURCE)
    baseline = run_baseline(SOURCE)
    mlir = run_mlir(SOURCE)
    print(f"reference = {expected}, baseline = {baseline.value}, lp+rgn = {mlir.value}")
    print(
        f"closure applications (apply): baseline={baseline.metrics.counts.get('apply', 0)}, "
        f"lp+rgn={mlir.metrics.counts.get('apply', 0)}"
    )
    print(
        f"closure allocations: baseline={baseline.metrics.counts.get('alloc_closure', 0)}, "
        f"lp+rgn={mlir.metrics.counts.get('alloc_closure', 0)}"
    )

    artifacts = MlirCompiler(PipelineOptions(capture_ir=("lp",))).compile(SOURCE)
    print("\n=== lifted lambda in the lp dialect (look for lp.pap) ===")
    text = artifacts.captured_ir["lp"]
    lines = text.splitlines()
    pap_lines = [i for i, line in enumerate(lines) if "lp.pap" in line]
    for index in pap_lines[:3]:
        start = max(0, index - 2)
        print("\n".join(lines[start : index + 2]))
        print("  ...")


if __name__ == "__main__":
    main()
