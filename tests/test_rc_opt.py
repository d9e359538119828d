"""Tests for the RC optimisation subsystem (:mod:`repro.rc_opt`).

* borrow-signature fixpoint: convergence and precision, including mutually
  recursive functions,
* dup/drop fusion: cancellation/merging unit tests and soundness,
* constructor reuse: reset/reuse pairing, runtime token semantics,
* heap-balance property tests over the whole benchmark suite for every new
  pipeline variant (both the λrc interpreter and the lp+rgn CFG pipeline),
* the pipeline-level acceptance criteria: ``rc-opt`` reduces RC traffic and
  ``rc-opt+reuse`` reduces allocations on constructor-heavy benchmarks.
"""

import pytest

from repro.backend.pipeline import (
    RC_VARIANTS,
    BaselineCompiler,
    Frontend,
    PipelineOptions,
    run_baseline,
    run_mlir,
    run_reference,
)
from repro.eval.benchmarks import benchmark_sources
from repro.interp.rc_interp import RcInterpreter, run_rc_program
from repro.lambda_pure.ir import (
    Call,
    Case,
    CaseAlt,
    Ctor,
    Dec,
    Function,
    Inc,
    Let,
    Lit,
    Program,
    Proj,
    Reset,
    Ret,
    Reuse,
)
from repro.lambda_pure.simplifier import simplify_program
from repro.lambda_rc import insert_rc
from repro.rc_opt import (
    apply_reuse,
    fuse_rc,
    infer_borrow_signatures,
    insert_optimized_rc,
    reuse_critical_params,
)
from repro.runtime import Heap, NullToken, RuntimeError_

SMALL_SIZES = {
    "binarytrees": {"depth": 4},
    "binarytrees-int": {"depth": 4},
    "const_fold": {"depth": 3, "reps": 2},
    "deriv": {"reps": 2},
    "filter": {"length": 15},
    "qsort": {"size": 8},
    "rbmap_checkpoint": {"inserts": 8},
    "unionfind": {"elements": 10, "unions": 8},
}

BENCHMARKS = benchmark_sources(SMALL_SIZES)


def to_pure(source):
    return simplify_program(Frontend.to_pure(source))


# ---------------------------------------------------------------------------
# Borrow inference
# ---------------------------------------------------------------------------


class TestBorrowInference:
    def test_inspect_only_param_is_borrowed(self):
        source = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => 1 + length t

def main : Nat := length (List.cons 1 (List.cons 2 List.nil))
"""
        pure = to_pure(source)
        signatures = infer_borrow_signatures(pure)
        assert signatures.get("length") == frozenset({0})

    def test_returned_param_stays_owned(self):
        source = """
def identity (x : Nat) : Nat := x

def main : Nat := identity 7
"""
        pure = to_pure(source)
        signatures = infer_borrow_signatures(pure)
        assert "identity" not in signatures

    def test_ctor_stored_param_stays_owned(self):
        source = """
inductive Pair where
| mk (a : Nat) (b : Nat)

def box (x : Nat) : Pair := Pair.mk x x

def main : Nat :=
  match box 3 with
  | Pair.mk a b => a + b
"""
        pure = to_pure(source)
        signatures = infer_borrow_signatures(pure)
        assert "box" not in signatures

    def test_mutually_recursive_fixpoint_converges(self):
        """Mutually recursive inspectors keep their parameter borrowed; a
        mutually recursive pair where one side has an owning use demotes the
        parameter on both sides of the cycle."""
        pure = Program()
        # evenLen/oddLen only case on the list and recurse on the tail
        # through each other -> xs stays borrowed through the cycle.
        # tail is produced by proj (owned local), consumed by the recursive
        # call -- which is what keeps the *parameter* borrow-eligible.
        def inspector(name, other):
            tail_call = Let(
                "t",
                Proj(1, "xs"),
                Let("r", Call(other, ["t"]), Ret("r")),
            )
            base = Let("z", Lit(0), Ret("z"))
            return Function(
                name,
                ["xs"],
                Case("xs", [CaseAlt(0, "nil", base), CaseAlt(1, "cons", tail_call)], None, "List"),
            )

        pure.add_function(inspector("evenLen", "oddLen"))
        pure.add_function(inspector("oddLen", "evenLen"))
        # retEven/retOdd form a cycle in which retOdd *returns* the value:
        # the owning use must propagate around the cycle to retEven.
        pure.add_function(
            Function("retEven", ["v"], Let("r", Call("retOdd", ["v"]), Ret("r")))
        )
        pure.add_function(Function("retOdd", ["v"], Ret("v")))
        pure.add_function(Function("main", [], Let("z", Lit(0), Ret("z"))))
        pure.main = "main"

        signatures = infer_borrow_signatures(pure)
        assert signatures.get("evenLen") == frozenset({0})
        assert signatures.get("oddLen") == frozenset({0})
        assert "retOdd" not in signatures
        assert "retEven" not in signatures

    def test_borrowed_call_argument_does_not_force_ownership(self):
        """Passing a param to a *borrowed* position of a callee keeps it
        borrow-eligible (transitivity through the call graph)."""
        source = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => 1 + length t

def lengthTwice (xs : List) : Nat := length xs + length xs

def main : Nat := lengthTwice (List.cons 1 List.nil)
"""
        pure = to_pure(source)
        signatures = infer_borrow_signatures(pure)
        assert signatures.get("lengthTwice") == frozenset({0})

    def test_keep_owned_pins_parameters(self):
        source = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => 1 + length t

def main : Nat := length (List.cons 1 List.nil)
"""
        pure = to_pure(source)
        signatures = infer_borrow_signatures(pure, {"length": {0}})
        assert "length" not in signatures

    def test_reuse_critical_param_detection(self):
        source = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def mapDouble (xs : List) : List :=
  match xs with
  | List.nil => List.nil
  | List.cons h t => List.cons (2 * h) (mapDouble t)

def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => 1 + length t

def main : Nat := length (mapDouble (List.cons 1 List.nil))
"""
        pure = to_pure(source)
        critical = reuse_critical_params(pure)
        assert critical.get("mapDouble") == {0}
        assert "length" not in critical

    def test_borrowed_insertion_reduces_rc_traffic(self):
        """A param that stays live across repeated borrowed calls saves an
        inc/dec pair per call."""
        source = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => 1 + length t

def lengths (n : Nat) (xs : List) (acc : Nat) : Nat :=
  if n == 0 then acc
  else lengths (n - 1) xs (acc + length xs)

def main : Nat := lengths 10 (List.cons 1 (List.cons 2 List.nil)) 0
"""
        pure = to_pure(source)
        naive, _ = insert_optimized_rc(pure, "naive")
        opt, report = insert_optimized_rc(pure, "opt")
        assert report.borrowed_parameters >= 1
        naive_result = run_rc_program(naive)
        opt_result = run_rc_program(opt)
        assert naive_result.value == opt_result.value
        assert opt_result.metrics.counts["rc"] < naive_result.metrics.counts["rc"]


# ---------------------------------------------------------------------------
# Dup/drop fusion
# ---------------------------------------------------------------------------


def _count_nodes(body, node_type):
    found = 0
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found += 1
        if isinstance(node, Let):
            stack.append(node.body)
        elif isinstance(node, Case):
            stack.extend(alt.body for alt in node.alts)
            if node.default is not None:
                stack.append(node.default)
        elif isinstance(node, (Inc, Dec)):
            stack.append(node.body)
    return found


class TestFusion:
    def test_inc_before_dec_cancels(self):
        program = Program()
        body = Inc("x", Dec("x", Let("r", Lit(1), Ret("r"))))
        program.add_function(Function("main", ["x"], body))
        fused, stats = fuse_rc(program)
        assert stats.cancelled_pairs == 1
        main = fused.functions["main"]
        assert _count_nodes(main.body, Inc) == 0
        assert _count_nodes(main.body, Dec) == 0

    def test_dec_before_inc_does_not_cancel(self):
        program = Program()
        body = Dec("x", Inc("x", Ret("x")))
        program.add_function(Function("main", ["x"], body))
        fused, stats = fuse_rc(program)
        assert stats.cancelled_pairs == 0
        main = fused.functions["main"]
        assert _count_nodes(main.body, Inc) == 1
        assert _count_nodes(main.body, Dec) == 1

    def test_adjacent_incs_merge_counts(self):
        program = Program()
        body = Inc("x", Inc("x", Ret("x")))
        program.add_function(Function("main", ["x"], body))
        fused, stats = fuse_rc(program)
        assert stats.merged_ops == 1
        main = fused.functions["main"]
        incs = []
        node = main.body
        while isinstance(node, (Inc, Dec)):
            incs.append(node)
            node = node.body
        assert len(incs) == 1 and incs[0].count == 2

    def test_fusion_does_not_cross_instructions(self):
        program = Program()
        body = Inc("x", Let("y", Lit(1), Dec("x", Ret("y"))))
        program.add_function(Function("main", ["x"], body))
        fused, stats = fuse_rc(program)
        assert stats.cancelled_pairs == 0

    def test_fusion_preserves_semantics_on_benchmarks(self):
        source = BENCHMARKS["deriv"]
        pure = to_pure(source)
        rc = insert_rc(pure)
        fused, _ = fuse_rc(rc)
        base = RcInterpreter(rc).run_main()
        opt = RcInterpreter(fused).run_main()
        assert base.value == opt.value
        assert opt.heap_stats["allocations"] == opt.heap_stats["frees"]


# ---------------------------------------------------------------------------
# Constructor reuse
# ---------------------------------------------------------------------------


class TestReuse:
    def test_heap_reset_unique_cell_yields_live_token(self):
        heap = Heap()
        cell = heap.alloc_ctor(1, [1, 2])
        token = heap.reset(cell)
        assert token is cell
        reused = heap.reuse(token, 3, [4, 5])
        assert reused is cell and reused.tag == 3
        assert heap.stats.reuses == 1
        assert heap.stats.allocations == 1  # no second allocation
        heap.dec(reused)
        heap.check_balanced()

    def test_heap_reset_shared_cell_yields_null_token(self):
        heap = Heap()
        cell = heap.alloc_ctor(1, [1])
        heap.inc(cell)
        token = heap.reset(cell)
        assert isinstance(token, NullToken)
        fresh = heap.reuse(token, 2, [9])
        assert fresh is not cell
        assert heap.stats.allocations == 2
        heap.dec(cell)
        heap.dec(fresh)
        heap.check_balanced()

    def test_heap_reuse_rejects_bad_token(self):
        heap = Heap()
        with pytest.raises(RuntimeError_):
            heap.reuse(1, 0, [])

    def test_reuse_transform_pairs_dec_with_ctor(self):
        source = """
inductive List where
| nil
| cons (head : Nat) (tail : List)

def mapDouble (xs : List) : List :=
  match xs with
  | List.nil => List.nil
  | List.cons h t => List.cons (2 * h) (mapDouble t)

def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))

def sum (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => h + sum t

def main : Nat := sum (mapDouble (upto 10))
"""
        pure = to_pure(source)
        rc = insert_rc(pure)
        reused, stats = apply_reuse(rc)
        assert stats.reuse_pairs >= 1
        assert _count_nodes(reused.functions["mapDouble"].body, type(None)) == 0
        baseline = RcInterpreter(rc).run_main()
        with_reuse = RcInterpreter(reused).run_main()
        assert baseline.value == with_reuse.value
        assert with_reuse.heap_stats["reuses"] > 0
        assert (
            with_reuse.heap_stats["allocations"]
            < baseline.heap_stats["allocations"]
        )

    def test_reuse_never_crosses_control_flow(self):
        """A dec whose continuation branches before any ctor stays a dec."""
        program = Program()
        case = Case(
            "y",
            [CaseAlt(0, "a", Let("r", Lit(0), Ret("r")))],
            Let("c", Ctor(1, ["z"], "T", "mk"), Ret("c")),
            "T",
        )
        body = Let(
            "y",
            Ctor(1, ["x"], "T", "mk"),
            Dec("w", case),
        )
        program.add_function(Function("f", ["x", "z", "w"], body))
        # w has no known shape here, but even with one there is no linear
        # path from the dec to the ctor -- nothing may be rewritten.
        reused, stats = apply_reuse(program)
        assert stats.reuse_pairs == 0
        assert _count_nodes(reused.functions["f"].body, Reset) == 0
        assert _count_nodes(reused.functions["f"].body, Reuse) == 0


# ---------------------------------------------------------------------------
# Pipeline variants: heap-balance property + acceptance criteria
# ---------------------------------------------------------------------------


class TestRcVariantsOnBenchmarkSuite:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS), ids=sorted(BENCHMARKS))
    @pytest.mark.parametrize("variant", RC_VARIANTS)
    def test_mlir_pipeline_heap_balanced_and_correct(self, name, variant):
        source = BENCHMARKS[name]
        expected = run_reference(source)
        # check_heap=True raises on leaks; double frees raise eagerly.
        result = run_mlir(source, PipelineOptions.variant(variant), check_heap=True)
        assert result.value == expected
        assert result.heap_stats["allocations"] == result.heap_stats["frees"]

    @pytest.mark.parametrize("name", sorted(BENCHMARKS), ids=sorted(BENCHMARKS))
    @pytest.mark.parametrize("mode", ("opt", "opt+reuse"))
    def test_rc_interpreter_heap_balanced_and_correct(self, name, mode):
        source = BENCHMARKS[name]
        expected = run_reference(source)
        result = run_baseline(
            source, PipelineOptions(rc_mode=mode), check_heap=True
        )
        assert result.value == expected
        assert result.heap_stats["allocations"] == result.heap_stats["frees"]

    def test_rc_opt_reduces_total_rc_traffic(self):
        naive_total = 0
        opt_total = 0
        for source in BENCHMARKS.values():
            naive_total += run_mlir(
                source, PipelineOptions.variant("rc-naive")
            ).metrics.counts["rc"]
            opt_total += run_mlir(
                source, PipelineOptions.variant("rc-opt")
            ).metrics.counts["rc"]
        assert opt_total < naive_total

    def test_rc_opt_reuse_reduces_allocations_on_ctor_heavy_benchmarks(self):
        reduced = []
        for name in ("const_fold", "deriv", "rbmap_checkpoint"):
            source = BENCHMARKS[name]
            naive = run_mlir(source, PipelineOptions.variant("rc-naive")).heap_stats
            reuse = run_mlir(source, PipelineOptions.variant("rc-opt+reuse")).heap_stats
            assert reuse["allocations"] <= naive["allocations"]
            if reuse["allocations"] < naive["allocations"]:
                assert reuse["reuses"] > 0
                reduced.append(name)
        assert reduced, "no constructor-heavy benchmark saw allocation reuse"

    def test_baseline_artifacts_include_reuse_markers(self):
        artifacts = BaselineCompiler(
            PipelineOptions(rc_mode="opt+reuse")
        ).compile(BENCHMARKS["const_fold"])
        assert artifacts.rc_report is not None
        assert artifacts.rc_report.reuse.reuse_pairs > 0
        assert "lean_reset(" in artifacts.c_source
        assert "lean_reuse_ctor(" in artifacts.c_source
