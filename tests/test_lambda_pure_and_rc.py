"""Tests for the λpure lowering, the simplifier and reference-count insertion."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.eval.benchmarks import benchmark_sources
from repro.eval.testsuite import regression_programs
from repro.fuzz.generator import typed_programs
from repro.interp.rc_interp import run_rc_program
from repro.interp.reference import ReferenceInterpreter, normalize
from repro.lambda_pure import (
    Call,
    Case,
    Ctor,
    Dec,
    Inc,
    JDecl,
    Jmp,
    Let,
    Lit,
    PAp,
    Proj,
    Ret,
    body_size,
    count_jumps,
    free_vars,
    live_sets,
    lower_program,
    simplify_program,
)
from repro.lambda_pure.simplifier import Simplifier
from repro.lambda_rc import insert_rc
from repro.lean import check_program, parse_program
from repro.lean.printer import print_program


def to_pure(src):
    program = parse_program(src)
    env = check_program(program)
    return lower_program(program, env)


def collect_nodes(body, node_type):
    """Collect all IR nodes of a given type in a function body."""
    found = []

    def walk(b):
        if isinstance(b, node_type):
            found.append(b)
        if isinstance(b, Let):
            walk(b.body)
        elif isinstance(b, Case):
            for alt in b.alts:
                walk(alt.body)
            if b.default is not None:
                walk(b.default)
        elif isinstance(b, JDecl):
            walk(b.jbody)
            walk(b.rest)
        elif isinstance(b, (Inc, Dec)):
            walk(b.body)

    walk(body)
    return found


class TestLowering:
    def test_literal_and_return(self):
        program = to_pure("def main : Nat := 5")
        body = program.functions["main"].body
        assert isinstance(body, Let) and isinstance(body.expr, Lit)
        assert isinstance(body.body, Ret)

    def test_constructor_lowering(self):
        program = to_pure(
            """
inductive Pair where
| mk (a : Nat) (b : Nat)
def main : Pair := Pair.mk 1 2
"""
        )
        ctors = collect_nodes(program.functions["main"].body, Let)
        assert any(isinstance(l.expr, Ctor) and l.expr.tag == 0 for l in ctors)

    def test_match_produces_case_and_projections(self):
        program = to_pure(
            """
inductive List where
| nil
| cons (h : Nat) (t : List)
def head (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h _ => h
"""
        )
        body = program.functions["head"].body
        cases = collect_nodes(body, Case)
        assert cases and cases[0].type_name == "List"
        projections = [
            l for l in collect_nodes(body, Let) if isinstance(l.expr, Proj)
        ]
        assert projections

    def test_multi_arm_match_introduces_join_points(self):
        """Figure 5: fall-through arms share code via join points."""
        program = to_pure(
            """
def eval (x : Nat) (y : Nat) (z : Nat) : Nat :=
  match x, y, z with
  | 0, 2, _ => 40
  | 0, _, 2 => 50
  | _, _, _ => 60
"""
        )
        body = program.functions["eval"].body
        jdecls = collect_nodes(body, JDecl)
        jumps = collect_nodes(body, Jmp)
        assert len(jdecls) >= 2
        assert len(jumps) >= 2
        # The default arm (60) appears exactly once: no code duplication.
        sixty = [
            l for l in collect_nodes(body, Let)
            if isinstance(l.expr, Lit) and l.expr.value == 60
        ]
        assert len(sixty) == 1

    def test_partial_application_lowered_to_pap(self):
        program = to_pure(
            """
def k (x : Nat) (y : Nat) : Nat := x
def k10 : Nat -> Nat := k 10
"""
        )
        paps = [
            l for l in collect_nodes(program.functions["k10"].body, Let)
            if isinstance(l.expr, PAp)
        ]
        assert paps and paps[0].expr.fn == "k"

    def test_lambda_lifting_creates_function(self):
        program = to_pure(
            """
def addK (k : Nat) : Nat -> Nat := fun (x : Nat) => x + k
"""
        )
        lifted = [name for name in program.functions if "_lam" in name]
        assert len(lifted) == 1
        # The lifted function takes the captured variable plus the parameter.
        assert program.functions[lifted[0]].arity == 2

    def test_operators_become_runtime_calls(self):
        program = to_pure("def main : Nat := 2 + 3 * 4")
        calls = [
            l.expr.fn
            for l in collect_nodes(program.functions["main"].body, Let)
            if isinstance(l.expr, Call)
        ]
        assert "lean_nat_add" in calls and "lean_nat_mul" in calls

    def test_int_operators_use_int_runtime(self):
        program = to_pure("def f (x : Int) : Int := x * 2 - 1")
        calls = [
            l.expr.fn
            for l in collect_nodes(program.functions["f"].body, Let)
            if isinstance(l.expr, Call)
        ]
        assert "lean_int_mul" in calls and "lean_int_sub" in calls

    def test_if_lowered_to_bool_case(self):
        program = to_pure("def f (x : Nat) : Nat := if x == 0 then 1 else 2")
        cases = collect_nodes(program.functions["f"].body, Case)
        assert cases and cases[0].type_name == "Bool"


class TestAnalyses:
    def test_free_vars_of_let(self):
        body = Let("x", Call("lean_nat_add", ["a", "b"]), Ret("x"))
        assert free_vars(body) == {"a", "b"}

    def test_free_vars_through_join(self):
        body = JDecl(
            "j",
            ["p"],
            Let("r", Call("lean_nat_add", ["p", "captured"]), Ret("r")),
            Jmp("j", ["arg"]),
        )
        assert free_vars(body) == {"captured", "arg"}

    def test_count_jumps_and_size(self):
        body = JDecl("j", [], Ret("x"), Case("c", [], Jmp("j", [])))
        assert count_jumps(body.rest, "j") == 1
        assert body_size(body) >= 3


def assert_live_sets_match_free_vars(body):
    """At every ``let``/``case``/join point of ``body``, the set
    :func:`live_sets` gives each continuation equals ``free_vars`` of that
    continuation under the same join environment."""
    sets = live_sets(body)
    assert sets[id(body)] == free_vars(body)
    stack = [(body, {})]
    while stack:
        node, joins = stack.pop()
        if isinstance(node, (Let, Inc, Dec)):
            assert sets[id(node.body)] == free_vars(node.body, joins), str(node)
            stack.append((node.body, joins))
        elif isinstance(node, Case):
            branches = [alt.body for alt in node.alts]
            if node.default is not None:
                branches.append(node.default)
            for branch in branches:
                assert sets[id(branch)] == free_vars(branch, joins), str(node)
                stack.append((branch, joins))
        elif isinstance(node, JDecl):
            assert sets[id(node.jbody)] == free_vars(node.jbody, joins), str(node)
            jfree = free_vars(node.jbody, joins) - set(node.params)
            inner = {**joins, node.label: (node.params, jfree)}
            assert sets[id(node.rest)] == free_vars(node.rest, inner), str(node)
            stack.append((node.jbody, joins))
            stack.append((node.rest, inner))


def assert_program_live_sets(source):
    pure = to_pure(source)
    for program in (pure, simplify_program(pure)):
        for fn in program.functions.values():
            assert_live_sets_match_free_vars(fn.body)


def suite_sources():
    """The regression suite, the fuzz corpus seeds and the nine benchmarks."""
    sources = [(p.name, p.source) for p in regression_programs()]
    corpus = Path(__file__).resolve().parent / "corpus"
    sources += [(path.stem, path.read_text()) for path in sorted(corpus.glob("*.lean"))]
    sources += sorted(benchmark_sources().items())
    return sources


SUITE = suite_sources()


class TestLiveSets:
    """``live_sets`` (one backward pass) against ``free_vars`` (a fresh walk
    per query), before and after the simplifier."""

    def test_join_point_liveness(self):
        body = JDecl(
            "j",
            ["p"],
            Let("r", Call("lean_nat_add", ["p", "captured"]), Ret("r")),
            Let("a", Lit(1), Case("c", [], Jmp("j", ["a"]))),
        )
        sets = live_sets(body)
        assert sets[id(body.rest)] == {"c", "captured"}
        assert sets[id(body.rest.body)] == {"a", "c", "captured"}
        assert_live_sets_match_free_vars(body)

    @pytest.mark.parametrize(
        "source", [source for _, source in SUITE], ids=[name for name, _ in SUITE]
    )
    def test_suite_programs(self, source):
        assert_program_live_sets(source)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        database=None,
    )
    @given(program=typed_programs())
    def test_generated_programs(self, program):
        assert_program_live_sets(print_program(program))


class TestSimplifier:
    def test_dead_let_elimination(self):
        program = to_pure("def main : Nat := let unused := 5 * 5; 3")
        simplified = simplify_program(program)
        lets = collect_nodes(simplified.functions["main"].body, Let)
        values = [l.expr.value for l in lets if isinstance(l.expr, Lit)]
        assert 3 in values and 5 not in values

    def test_constant_folding(self):
        program = to_pure("def main : Nat := 2 + 3")
        simplified = simplify_program(program)
        body = simplified.functions["main"].body
        lets = collect_nodes(body, Let)
        assert any(isinstance(l.expr, Lit) and l.expr.value == 5 for l in lets)
        calls = [l for l in lets if isinstance(l.expr, Call)]
        assert not calls

    def test_case_of_known_constructor(self):
        src = """
inductive Option where
| none
| some (v : Nat)
def main : Nat :=
  match Option.some 41 with
  | Option.none => 0
  | Option.some v => v + 1
"""
        program = to_pure(src)
        simplified = simplify_program(program)
        body = simplified.functions["main"].body
        assert not collect_nodes(body, Case)

    def test_simp_case_can_be_disabled(self):
        src = """
inductive Option where
| none
| some (v : Nat)
def main : Nat :=
  match Option.some 41 with
  | Option.none => 0
  | Option.some v => v + 1
"""
        program = to_pure(src)
        kept = Simplifier(enable_simp_case=False).run(program)
        assert collect_nodes(kept.functions["main"].body, Case)

    def test_identical_branches_collapsed(self):
        program = to_pure("def f (b : Bool) : Nat := let k := 7; if b then k else k")
        simplified = simplify_program(program)
        assert not collect_nodes(simplified.functions["f"].body, Case)

    def test_alpha_varying_branches_left_to_region_gvn(self):
        """Branches that differ only in bound-variable names are not collapsed
        by the λpure simplifier (its comparison is syntactic); the rgn
        pipeline's region GVN handles that case — which is exactly the
        paper's motivation for value-numbering regions."""
        program = to_pure("def f (b : Bool) : Nat := if b then 7 else 7")
        simplified = simplify_program(program)
        assert collect_nodes(simplified.functions["f"].body, Case)
        from repro.backend import run_mlir, run_reference

        src = "def f (b : Bool) : Nat := if b then 7 else 7\ndef main : Nat := f (1 < 2)"
        assert run_mlir(src).value == run_reference(src) == 7

    def test_single_use_join_inlined(self):
        program = to_pure(
            """
def f (x : Nat) : Nat :=
  let y := (if x == 0 then 1 else 2);
  y + 10
"""
        )
        simplified = simplify_program(program)
        # The continuation join point had two jumps (one per branch), so it
        # must be preserved; but simplification must preserve semantics.
        reference = normalize(ReferenceInterpreter(simplified).call("f", [0]))
        assert reference == 11

    def test_simplifier_preserves_semantics(self):
        src = """
inductive List where
| nil
| cons (h : Nat) (t : List)
def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))
def sum (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => h + sum t
def main : Nat := sum (upto 15)
"""
        program = to_pure(src)
        expected = normalize(ReferenceInterpreter(program).run_main())
        simplified = simplify_program(program)
        assert normalize(ReferenceInterpreter(simplified).run_main()) == expected

    def test_input_program_is_not_modified(self):
        program = to_pure(
            """
inductive Option where
| none
| some (v : Nat)
def main : Nat :=
  let unused := 5 * 5;
  match Option.some (2 + 3) with
  | Option.none => 0
  | Option.some v => v + 1
"""
        )
        text = str(program)
        functions = dict(program.functions)
        simplified = simplify_program(program)
        assert str(simplified) != text  # the simplifier did rewrite main
        assert simplified is not program
        assert str(program) == text
        assert program.functions == functions
        assert all(
            program.functions[name] is fn for name, fn in functions.items()
        )


class TestReferenceCounting:
    def run_balanced(self, src):
        """Lower, insert RC, run, and assert the heap ends balanced."""
        rc = insert_rc(to_pure(src))
        result = run_rc_program(rc)  # raises on leak / double free
        return result

    def test_inserts_inc_for_shared_values(self):
        src = """
inductive Pair where
| mk (a : Nat) (b : Nat)
def dup (p : Pair) : Pair :=
  match p with
  | Pair.mk a b => Pair.mk (a + b) (a + b)
def main : Nat :=
  match dup (Pair.mk 100000000000000000000 2) with
  | Pair.mk a _ => Int.toNat (Nat.toInt a)
"""
        rc = insert_rc(to_pure(src))
        incs = sum(
            len(collect_nodes(fn.body, Inc)) for fn in rc.functions.values()
        )
        assert incs > 0
        self.run_balanced(src)

    def test_dead_parameter_released(self):
        result = self.run_balanced(
            """
inductive Box where
| mk (v : Nat)
def ignore (b : Box) : Nat := 7
def main : Nat := ignore (Box.mk 99999999999999999999)
"""
        )
        assert result.value == 7
        assert result.heap_stats["allocations"] == result.heap_stats["frees"]

    def test_heap_balance_for_list_program(self):
        result = self.run_balanced(
            """
inductive List where
| nil
| cons (h : Nat) (t : List)
def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))
def sum (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => h + sum t
def main : Nat := sum (upto 40)
"""
        )
        assert result.value == 820
        assert result.heap_stats["allocations"] == result.heap_stats["frees"]

    def test_heap_balance_with_closures(self):
        result = self.run_balanced(
            """
def applyN (f : Nat -> Nat) (n : Nat) (x : Nat) : Nat :=
  if n == 0 then x else applyN f (n - 1) (f x)
def main : Nat :=
  let offset := 5;
  applyN (fun (v : Nat) => v + offset) 10 0
"""
        )
        assert result.value == 50

    def test_heap_balance_shared_structure(self):
        result = self.run_balanced(
            """
inductive Tree where
| leaf
| node (l : Tree) (r : Tree)
def weight (t : Tree) : Nat :=
  match t with
  | Tree.leaf => 1
  | Tree.node l r => weight l + weight r
def main : Nat :=
  let shared := Tree.node Tree.leaf Tree.leaf;
  weight (Tree.node shared shared) + weight shared
"""
        )
        assert result.value == 6

    def test_double_insert_rejected(self):
        program = to_pure(
            """
inductive Box where
| mk (v : Nat)
def ignore (b : Box) : Nat := 7
def main : Nat := ignore (Box.mk 1)
"""
        )
        rc = insert_rc(program)
        assert any(
            collect_nodes(fn.body, (Inc, Dec)) for fn in rc.functions.values()
        )
        with pytest.raises(ValueError):
            insert_rc(rc)

    def test_rc_program_matches_reference(self):
        src = """
inductive List where
| nil
| cons (h : Nat) (t : List)
def rev (xs : List) (acc : List) : List :=
  match xs with
  | List.nil => acc
  | List.cons h t => rev t (List.cons h acc)
def headOr (xs : List) (d : Nat) : Nat :=
  match xs with
  | List.nil => d
  | List.cons h _ => h
def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))
def main : Nat := headOr (rev (upto 12) List.nil) 0
"""
        pure = to_pure(src)
        expected = normalize(ReferenceInterpreter(pure).run_main())
        assert run_rc_program(insert_rc(pure)).value == expected
