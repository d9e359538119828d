"""The regression test-suite generator.

The paper validates its backend against LEAN's 648-test suite.  We generate a
large family of small mini-LEAN programs, each exercising a distinct language
feature or corner case; the differential test (``tests/test_differential.py``)
runs every program through the reference interpreter, the baseline backend
and the lp+rgn backend (all three Figure-10 variants) and requires identical
results plus a balanced heap.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..record import FrozenRecord

_LIST_PRELUDE = """
inductive List where
| nil
| cons (head : Nat) (tail : List)
"""

_TREE_PRELUDE = """
inductive Tree where
| leaf
| node (value : Nat) (left : Tree) (right : Tree)
"""

_PAIR_PRELUDE = """
inductive Pair where
| mk (first : Nat) (second : Nat)
"""

_OPTION_PRELUDE = """
inductive Option where
| none
| some (value : Nat)
"""


class TestProgram(FrozenRecord):
    """One regression program with its human-readable category."""

    _fields = ("name", "category", "source")

    def __init__(self, name: str, category: str, source: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "source", source)


def _simple(name: str, category: str, body: str, prelude: str = "") -> TestProgram:
    return TestProgram(name, category, f"{prelude}\ndef main : Nat := {body}\n")


def regression_programs() -> List[TestProgram]:
    """Generate the full regression suite."""
    programs: List[TestProgram] = []

    # -- arithmetic and literals -------------------------------------------------
    arithmetic_cases = [
        ("add", "1 + 2 + 3"),
        ("mul", "6 * 7"),
        ("sub_floor", "3 - 5"),
        ("div", "100 / 7"),
        ("mod", "100 % 7"),
        ("precedence", "2 + 3 * 4"),
        ("nested_parens", "(2 + 3) * (4 + 5)"),
        ("zero", "0"),
        ("large_literal", "123456789 * 987654321"),
        ("bigint_literal", "9999999999999999999 % 1000003"),
        ("deep_expression", "1 + (2 + (3 + (4 + (5 + (6 + (7 + 8))))))"),
    ]
    for name, body in arithmetic_cases:
        programs.append(_simple(f"arith_{name}", "arithmetic", body))

    # -- booleans and comparisons -------------------------------------------------
    bool_cases = [
        ("if_true", "if 1 < 2 then 10 else 20"),
        ("if_false", "if 2 < 1 then 10 else 20"),
        ("eq", "if 5 == 5 then 1 else 0"),
        ("ne", "if 5 != 5 then 1 else 0"),
        ("le_ge", "if 3 <= 3 then (if 4 >= 5 then 0 else 2) else 9"),
        ("and_short_circuit", "if 1 < 2 && 3 < 4 then 7 else 8"),
        ("or_short_circuit", "if 2 < 1 || 3 < 4 then 7 else 8"),
        ("nested_if", "if 1 < 2 then (if 2 < 3 then 11 else 12) else 13"),
        ("bool_literal", "if true then (if false then 1 else 2) else 3"),
    ]
    for name, body in bool_cases:
        programs.append(_simple(f"bool_{name}", "booleans", body))

    # -- let bindings -----------------------------------------------------------------
    let_cases = [
        ("basic", "let x := 5; x + x"),
        ("shadowing", "let x := 1; let x := x + 1; x * 10"),
        ("dead_binding", "let unused := 1000; 3"),
        ("chained", "let a := 1; let b := a + 1; let c := b + 1; a + b + c"),
        ("let_in_operand", "(let a := 4; a + 1) * 2"),
    ]
    for name, body in let_cases:
        programs.append(_simple(f"let_{name}", "let", body))

    # -- named functions / recursion -----------------------------------------------------
    programs.append(
        TestProgram(
            "fn_fib",
            "recursion",
            """
def fib (n : Nat) : Nat :=
  if n < 2 then n else fib (n - 1) + fib (n - 2)
def main : Nat := fib 12
""",
        )
    )
    programs.append(
        TestProgram(
            "fn_mutual_arity",
            "recursion",
            """
def isEven (n : Nat) : Bool := if n == 0 then true else isOdd (n - 1)
def isOdd (n : Nat) : Bool := if n == 0 then false else isEven (n - 1)
def main : Nat := if isEven 20 then 1 else 0
""",
        )
    )
    programs.append(
        TestProgram(
            "fn_accumulator",
            "recursion",
            """
def sumAcc (n : Nat) (acc : Nat) : Nat :=
  if n == 0 then acc else sumAcc (n - 1) (acc + n)
def main : Nat := sumAcc 50 0
""",
        )
    )
    programs.append(
        TestProgram(
            "fn_ackermann_small",
            "recursion",
            """
def ack (m : Nat) (n : Nat) : Nat :=
  if m == 0 then n + 1
  else (if n == 0 then ack (m - 1) 1 else ack (m - 1) (ack m (n - 1)))
def main : Nat := ack 2 3
""",
        )
    )

    # -- data constructors and pattern matching -------------------------------------------
    programs.append(
        TestProgram(
            "match_list_length",
            "pattern-matching",
            _LIST_PRELUDE
            + """
def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons _ t => 1 + length t
def main : Nat := length (List.cons 1 (List.cons 2 (List.cons 3 List.nil)))
""",
        )
    )
    programs.append(
        TestProgram(
            "match_list_sum_map",
            "pattern-matching",
            _LIST_PRELUDE
            + """
def mapAdd (k : Nat) (xs : List) : List :=
  match xs with
  | List.nil => List.nil
  | List.cons h t => List.cons (h + k) (mapAdd k t)
def sum (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => h + sum t
def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))
def main : Nat := sum (mapAdd 3 (upto 10))
""",
        )
    )
    programs.append(
        TestProgram(
            "match_nested_patterns",
            "pattern-matching",
            _LIST_PRELUDE
            + """
def secondOrZero (xs : List) : Nat :=
  match xs with
  | List.cons _ (List.cons s _) => s
  | List.cons only List.nil => only
  | List.nil => 0
def main : Nat :=
  secondOrZero (List.cons 7 (List.cons 9 List.nil)) +
  secondOrZero (List.cons 5 List.nil) + secondOrZero List.nil
""",
        )
    )
    programs.append(
        TestProgram(
            "match_multi_scrutinee",
            "pattern-matching",
            """
def eval (x : Nat) (y : Nat) (z : Nat) : Nat :=
  match x, y, z with
  | 0, 2, _ => 40
  | 0, _, 2 => 50
  | _, _, _ => 60
def main : Nat := eval 0 2 9 + eval 0 1 2 + eval 1 2 2
""",
        )
    )
    programs.append(
        TestProgram(
            "match_literal_patterns",
            "pattern-matching",
            """
def intUsage (n : Nat) : Nat :=
  match n with
  | 42 => 43
  | _ => 99999999
def main : Nat := intUsage 42 + intUsage 7 % 1000
""",
        )
    )
    programs.append(
        TestProgram(
            "match_tree_fold",
            "pattern-matching",
            _TREE_PRELUDE
            + """
def build (d : Nat) : Tree :=
  if d == 0 then Tree.leaf else Tree.node d (build (d - 1)) (build (d - 1))
def sumTree (t : Tree) : Nat :=
  match t with
  | Tree.leaf => 0
  | Tree.node v l r => v + sumTree l + sumTree r
def main : Nat := sumTree (build 5)
""",
        )
    )
    programs.append(
        TestProgram(
            "match_pair_projections",
            "pattern-matching",
            _PAIR_PRELUDE
            + """
def swap (p : Pair) : Pair :=
  match p with
  | Pair.mk a b => Pair.mk b a
def addPair (p : Pair) : Nat :=
  match p with
  | Pair.mk a b => a + 2 * b
def main : Nat := addPair (swap (Pair.mk 3 10))
""",
        )
    )
    programs.append(
        TestProgram(
            "match_option_chain",
            "pattern-matching",
            _OPTION_PRELUDE
            + """
def orElse (o : Option) (d : Nat) : Nat :=
  match o with
  | Option.none => d
  | Option.some v => v
def half (n : Nat) : Option :=
  if n % 2 == 0 then Option.some (n / 2) else Option.none
def main : Nat := orElse (half 10) 100 + orElse (half 7) 100
""",
        )
    )
    programs.append(
        TestProgram(
            "match_bool_patterns",
            "pattern-matching",
            """
def toNat (b : Bool) : Nat :=
  match b with
  | true => 1
  | false => 0
def main : Nat := toNat (3 < 5) * 10 + toNat (5 < 3)
""",
        )
    )

    # -- closures and higher-order functions ------------------------------------------------
    programs.append(
        TestProgram(
            "closure_partial_application",
            "closures",
            """
def k (x : Nat) (y : Nat) : Nat := x
def ap42 (f : Nat -> Nat -> Nat) : Nat -> Nat := f 42
def main : Nat :=
  let k10 := k 10;
  let k42 := ap42 k;
  k10 5 + k42 7
""",
        )
    )
    programs.append(
        TestProgram(
            "closure_lambda_capture",
            "closures",
            """
def applyTwice (f : Nat -> Nat) (x : Nat) : Nat := f (f x)
def main : Nat :=
  let k := 3;
  applyTwice (fun (x : Nat) => x * k) 2
""",
        )
    )
    programs.append(
        TestProgram(
            "closure_compose",
            "closures",
            """
def compose (f : Nat -> Nat) (g : Nat -> Nat) (x : Nat) : Nat := f (g x)
def inc (x : Nat) : Nat := x + 1
def double (x : Nat) : Nat := x * 2
def main : Nat := compose inc double 10 + compose double inc 10
""",
        )
    )
    programs.append(
        TestProgram(
            "closure_over_application",
            "closures",
            """
def const2 (x : Nat) (y : Nat) : Nat -> Nat := fun (z : Nat) => x + y + z
def main : Nat := const2 1 2 3
""",
        )
    )
    programs.append(
        TestProgram(
            "closure_fold",
            "closures",
            _LIST_PRELUDE
            + """
def foldl (f : Nat -> Nat -> Nat) (acc : Nat) (xs : List) : Nat :=
  match xs with
  | List.nil => acc
  | List.cons h t => foldl f (f acc h) t
def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))
def main : Nat := foldl (fun (a : Nat) (b : Nat) => a + b) 0 (upto 20)
""",
        )
    )
    programs.append(
        TestProgram(
            "closure_filter_predicates",
            "closures",
            _LIST_PRELUDE
            + """
def filter (p : Nat -> Bool) (xs : List) : List :=
  match xs with
  | List.nil => List.nil
  | List.cons h t => if p h then List.cons h (filter p t) else filter p t
def count (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons _ t => 1 + count t
def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))
def main : Nat :=
  let xs := upto 30;
  count (filter (fun (v : Nat) => v % 2 == 0) xs) * 100 +
  count (filter (fun (v : Nat) => v % 3 == 0) xs)
""",
        )
    )

    # -- Int arithmetic ------------------------------------------------------------------------
    programs.append(
        TestProgram(
            "int_negative",
            "integers",
            """
def main : Nat :=
  let a : Int := -5;
  let b : Int := 3;
  Int.toNat (b - a)
""",
        )
    )
    programs.append(
        TestProgram(
            "int_mixed_ops",
            "integers",
            """
def f (x : Int) : Int := x * x - 2 * x + 1
def main : Nat := Int.toNat (f 7 + f (-3))
""",
        )
    )

    # -- arrays -----------------------------------------------------------------------------------
    programs.append(
        TestProgram(
            "array_push_get",
            "arrays",
            """
def build (i : Nat) (n : Nat) (a : Array Nat) : Array Nat :=
  if i == n then a else build (i + 1) n (Array.push a (i * i))
def sumGo (a : Array Nat) (i : Nat) (acc : Nat) : Nat :=
  if i == Array.size a then acc else sumGo a (i + 1) (acc + Array.get a i)
def main : Nat := sumGo (build 0 12 Array.empty) 0 0
""",
        )
    )
    programs.append(
        TestProgram(
            "array_set_swap",
            "arrays",
            """
def build (i : Nat) (n : Nat) (a : Array Nat) : Array Nat :=
  if i == n then a else build (i + 1) n (Array.push a i)
def main : Nat :=
  let a := build 0 10 Array.empty;
  let a := Array.set a 0 99;
  let a := Array.swap a 0 9;
  Array.get a 9 * 10 + Array.get a 0
""",
        )
    )

    # -- programs from the paper's figures --------------------------------------------------------
    programs.append(
        TestProgram(
            "paper_fig4_intUsage",
            "paper-figures",
            """
def intUsage (n : Nat) : Nat :=
  match n with
  | 42 => 43
  | _ => 99999999
def main : Nat := intUsage 42
""",
        )
    )
    programs.append(
        TestProgram(
            "paper_fig5_eval",
            "paper-figures",
            """
def eval (x : Nat) (y : Nat) (z : Nat) : Nat :=
  match x, y, z with
  | 0, 2, _ => 40
  | 0, _, 2 => 50
  | _, _, _ => 60
def main : Nat := eval 0 2 1 + eval 0 3 2 + eval 9 9 9
""",
        )
    )
    programs.append(
        TestProgram(
            "paper_fig6_singleton_length",
            "paper-figures",
            _LIST_PRELUDE
            + """
def singleton (n : Nat) : List := List.cons n List.nil
def length (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons _ l => 1 + length l
def main : Nat := length (singleton 42)
""",
        )
    )
    programs.append(
        TestProgram(
            "paper_fig7_closures",
            "paper-figures",
            """
def k (x : Nat) (y : Nat) : Nat := x
def k10 : Nat -> Nat := k 10
def ap42 (f : Nat -> Nat -> Nat) : Nat -> Nat := f 42
def k42 : Nat -> Nat := ap42 k
def main : Nat := k10 1 + k42 2
""",
        )
    )
    programs.append(
        TestProgram(
            "paper_fig1_case_true",
            "paper-figures",
            """
def caseOfTrue : Nat := if true then 3 else 5
def commonBranch (b : Bool) : Nat := if b then 7 else 7
def main : Nat := caseOfTrue + commonBranch (1 < 2) + commonBranch (2 < 1)
""",
        )
    )

    # -- stress / combination programs -------------------------------------------------------------
    programs.append(
        TestProgram(
            "combo_tree_of_lists",
            "combination",
            _LIST_PRELUDE
            + _TREE_PRELUDE
            + """
def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))
def sumList (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => h + sumList t
def build (d : Nat) : Tree :=
  if d == 0 then Tree.leaf
  else Tree.node (sumList (upto d)) (build (d - 1)) (build (d - 1))
def sumTree (t : Tree) : Nat :=
  match t with
  | Tree.leaf => 0
  | Tree.node v l r => v + sumTree l + sumTree r
def main : Nat := sumTree (build 4)
""",
        )
    )
    programs.append(
        TestProgram(
            "combo_church_like",
            "combination",
            """
def iterate (f : Nat -> Nat) (n : Nat) (x : Nat) : Nat :=
  if n == 0 then x else iterate f (n - 1) (f x)
def main : Nat := iterate (fun (v : Nat) => v * 2 + 1) 10 0
""",
        )
    )
    programs.append(
        TestProgram(
            "combo_deep_join_points",
            "combination",
            """
def classify (a : Nat) (b : Nat) (c : Nat) (d : Nat) : Nat :=
  match a, b, c, d with
  | 0, 0, 0, 0 => 1
  | 0, 0, _, _ => 2
  | 0, _, 0, _ => 3
  | _, 0, 0, _ => 4
  | _, _, _, 0 => 5
  | _, _, _, _ => 6
def sweep (n : Nat) (acc : Nat) : Nat :=
  if n == 0 then acc
  else sweep (n - 1) (acc + classify (n % 2) (n % 3) (n % 5) (n % 7))
def main : Nat := sweep 30 0
""",
        )
    )

    return programs


def programs_by_category() -> Dict[str, List[TestProgram]]:
    """Group the regression programs by category."""
    grouped: Dict[str, List[TestProgram]] = {}
    for program in regression_programs():
        grouped.setdefault(program.category, []).append(program)
    return grouped


def let_spine_program(length: int) -> Tuple[str, int]:
    """A straight-line function of ``length`` ``let`` bindings, with the
    value its ``main`` returns.

    Each binding adds a small constant to the previous one, so every
    binding stays live until the next and none folds away before λrc.  A
    frontend layer that recurses once per binding overflows Python's stack
    on a long enough spine; this program is how that is tested.
    """
    lines = ["def spine (n : Nat) : Nat :="]
    previous = "n"
    for index in range(1, length + 1):
        lines.append(f"  let x{index} := {previous} + {index % 7};")
        previous = f"x{index}"
    lines.append(f"  {previous}")
    lines.append("def main : Nat := spine 1")
    return "\n".join(lines) + "\n", 1 + sum(i % 7 for i in range(1, length + 1))
