"""Reproduce the paper's worked IR examples (Figures 1, 5 and 8, §IV-B).

The script builds the exact programs from the figures, prints the IR before
and after each region optimisation, and shows the lp → rgn → CFG lowering of
the join-point example.

Run with::

    python examples/paper_figures.py
"""

from repro.backend import MlirCompiler, PipelineOptions
from repro.backend.lp_codegen import generate_lp_module
from repro.backend.lp_to_rgn import lower_lp_to_rgn
from repro.backend.pipeline import Frontend
from repro.dialects import arith, lp, rgn
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp
from repro.ir import Builder, FunctionType, InsertionPoint, box, i1, print_module
from repro.lambda_rc import insert_rc
from repro.rewrite import build_pipeline


def figure1_common_branch() -> None:
    """§IV-B.2 / Figure 1 C: case b of True -> 7 | False -> 7."""
    module = ModuleOp()
    func = FuncOp("common_branch", FunctionType([i1], [box]))
    module.append(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    left = builder.create(rgn.ValOp)
    b = Builder(InsertionPoint.at_end(left.body_block))
    c7 = b.create(lp.IntOp, 7)
    b.create(lp.ReturnOp, c7.result())
    right = builder.create(rgn.ValOp)
    b = Builder(InsertionPoint.at_end(right.body_block))
    c7b = b.create(lp.IntOp, 7)
    b.create(lp.ReturnOp, c7b.result())
    chosen = builder.create(
        arith.SelectOp, func.arguments[0], left.result(), right.result()
    )
    builder.create(rgn.RunOp, chosen.result())

    print("=== Figure 1 C / §IV-B.2: before region optimisation ===")
    print(print_module(module))
    build_pipeline("region-gvn,canonicalize,dce").run(module)
    print("=== after region GVN + canonicalize + DCE ===")
    print(print_module(module))


EVAL_SOURCE = """
def eval (x : Nat) (y : Nat) (z : Nat) : Nat :=
  match x, y, z with
  | 0, 2, _ => 40
  | 0, _, 2 => 50
  | _, _, _ => 60
def main : Nat := eval 0 1 2
"""


def figure5_and_8_joinpoints() -> None:
    """Figure 5 (join-point deduplication) and Figure 8 (lowering to rgn)."""
    rc = insert_rc(Frontend.to_pure(EVAL_SOURCE))
    module = generate_lp_module(rc)
    print("=== Figure 5: lp dialect with lp.joinpoint / lp.jump ===")
    print(print_module(module))
    lower_lp_to_rgn(module)
    print("=== Figure 8: after lowering lp control flow to rgn ===")
    print(print_module(module))
    artifacts = MlirCompiler(PipelineOptions()).compile(EVAL_SOURCE)
    print("=== §IV-C: final flat CFG (cf dialect) ===")
    print(print_module(artifacts.cfg_module))


def main() -> None:
    figure1_common_branch()
    figure5_and_8_joinpoints()


if __name__ == "__main__":
    main()
