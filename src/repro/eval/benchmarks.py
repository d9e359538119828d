"""The benchmark programs of the paper's evaluation (§V-B), ported to
mini-LEAN.

The LEAN benchmark suite workloads used by Figures 9 and 10:

* ``binarytrees`` / ``binarytrees-int`` — purely functional binary tree
  build / checksum / deallocate,
* ``const_fold`` — constant folding over an expression language,
* ``deriv`` — symbolic differentiation of expression trees,
* ``digits`` — digit statistics over pair-state iteration (not from the
  paper's suite; added to exercise Lean's tuple-destructuring desugaring,
  i.e. case-of-known-constructor, on a realistic numeric workload),
* ``filter`` — filtering a linked list with a (higher-order) predicate,
* ``qsort`` — in-place quicksort over LEAN arrays,
* ``rbmap_checkpoint`` — red-black tree insertion and lookup,
* ``unionfind`` — Tarjan's union-find over arrays.

Problem sizes are laptop-scale (the interpreters are written in Python), but
each program exercises the same code paths — data constructors, nested
pattern matching, join points, closures, arrays and reference counting — as
the original suite.
"""

from __future__ import annotations

from typing import Dict, List

from ..record import FrozenRecord


class Benchmark(FrozenRecord):
    """One benchmark program: its name, source and expected result."""

    _fields = ("name", "source", "description", "expected")

    def __init__(
        self,
        name: str,
        source: str,
        description: str,
        expected: int,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "expected", expected)


def _binarytrees(depth: int) -> str:
    return f"""
inductive Tree where
| leaf
| node (left : Tree) (right : Tree)

def mkTree (d : Nat) : Tree :=
  if d == 0 then Tree.leaf
  else Tree.node (mkTree (d - 1)) (mkTree (d - 1))

def checkTree (t : Tree) : Nat :=
  match t with
  | Tree.leaf => 1
  | Tree.node l r => 1 + checkTree l + checkTree r

def sweep (iters : Nat) (d : Nat) (acc : Nat) : Nat :=
  if iters == 0 then acc
  else sweep (iters - 1) d (acc + checkTree (mkTree d))

def main : Nat :=
  let deep := checkTree (mkTree {depth});
  deep + sweep 4 {max(depth - 2, 1)} 0
"""


def _binarytrees_int(depth: int) -> str:
    return f"""
inductive Tree where
| leaf
| node (value : Nat) (left : Tree) (right : Tree)

def mkTree (v : Nat) (d : Nat) : Tree :=
  if d == 0 then Tree.leaf
  else Tree.node v (mkTree (2 * v) (d - 1)) (mkTree (2 * v + 1) (d - 1))

def checkTree (t : Tree) : Nat :=
  match t with
  | Tree.leaf => 1
  | Tree.node v l r => v + checkTree l + checkTree r

def sweep (iters : Nat) (d : Nat) (acc : Nat) : Nat :=
  if iters == 0 then acc
  else sweep (iters - 1) d (acc + checkTree (mkTree iters d))

def main : Nat :=
  let deep := checkTree (mkTree 1 {depth});
  deep + sweep 4 {max(depth - 2, 1)} 0
"""


def _const_fold(depth: int, reps: int) -> str:
    return f"""
inductive Expr where
| num (value : Nat)
| var
| add (lhs : Expr) (rhs : Expr)
| mul (lhs : Expr) (rhs : Expr)

def mkExpr (n : Nat) (v : Nat) : Expr :=
  if n == 0 then (if v == 0 then Expr.var else Expr.num v)
  else Expr.add (mkExpr (n - 1) (v + 1)) (mkExpr (n - 1) (v % 2))

def appendAdd (e1 : Expr) (e2 : Expr) : Expr := Expr.add e1 e2

def constFold (e : Expr) : Expr :=
  match e with
  | Expr.num v => Expr.num v
  | Expr.var => Expr.var
  | Expr.add l r =>
      (match constFold l, constFold r with
       | Expr.num a, Expr.num b => Expr.num (a + b)
       | a, b => Expr.add a b)
  | Expr.mul l r =>
      (match constFold l, constFold r with
       | Expr.num a, Expr.num b => Expr.num (a * b)
       | a, b => Expr.mul a b)

def evalExpr (x : Nat) (e : Expr) : Nat :=
  match e with
  | Expr.num v => v
  | Expr.var => x
  | Expr.add l r => evalExpr x l + evalExpr x r
  | Expr.mul l r => evalExpr x l * evalExpr x r

def loop (n : Nat) (acc : Nat) : Nat :=
  if n == 0 then acc
  else loop (n - 1) (acc + evalExpr 2 (constFold (mkExpr {depth} (n % 3))))

def main : Nat := loop {reps} 0
"""


def _deriv(reps: int) -> str:
    return f"""
inductive Expr where
| num (value : Nat)
| x
| add (lhs : Expr) (rhs : Expr)
| mul (lhs : Expr) (rhs : Expr)

def mkAdd (a : Expr) (b : Expr) : Expr :=
  match a, b with
  | Expr.num 0, e => e
  | e, Expr.num 0 => e
  | e1, e2 => Expr.add e1 e2

def mkMul (a : Expr) (b : Expr) : Expr :=
  match a, b with
  | Expr.num 0, _ => Expr.num 0
  | _, Expr.num 0 => Expr.num 0
  | Expr.num 1, e => e
  | e, Expr.num 1 => e
  | e1, e2 => Expr.mul e1 e2

def deriv (e : Expr) : Expr :=
  match e with
  | Expr.num _ => Expr.num 0
  | Expr.x => Expr.num 1
  | Expr.add l r => mkAdd (deriv l) (deriv r)
  | Expr.mul l r => mkAdd (mkMul l (deriv r)) (mkMul (deriv l) r)

def evalExpr (v : Nat) (e : Expr) : Nat :=
  match e with
  | Expr.num n => n
  | Expr.x => v
  | Expr.add l r => evalExpr v l + evalExpr v r
  | Expr.mul l r => evalExpr v l * evalExpr v r

def pow (n : Nat) : Expr :=
  if n == 0 then Expr.num 1
  else Expr.mul Expr.x (pow (n - 1))

def nthDeriv (n : Nat) (e : Expr) : Expr :=
  if n == 0 then e else nthDeriv (n - 1) (deriv e)

def loop (n : Nat) (acc : Nat) : Nat :=
  if n == 0 then acc
  else loop (n - 1) (acc + evalExpr 2 (nthDeriv 3 (pow (4 + n % 3))))

def main : Nat := loop {reps} 0
"""


def _filter(length: int) -> str:
    return f"""
inductive List where
| nil
| cons (head : Nat) (tail : List)

def upto (n : Nat) : List :=
  if n == 0 then List.nil else List.cons n (upto (n - 1))

def filter (p : Nat -> Bool) (xs : List) : List :=
  match xs with
  | List.nil => List.nil
  | List.cons h t => if p h then List.cons h (filter p t) else filter p t

def sum (xs : List) : Nat :=
  match xs with
  | List.nil => 0
  | List.cons h t => h + sum t

def main : Nat :=
  let xs := upto {length};
  let evens := filter (fun (v : Nat) => v % 2 == 0) xs;
  let small := filter (fun (v : Nat) => v < {length // 2}) evens;
  sum small + sum (filter (fun (v : Nat) => v % 3 == 0) xs)
"""


def _digits(reps: int, span: int) -> str:
    """Digit statistics with Lean-style tuple destructuring.

    Ports the ``let (q, r) := (n / 10, n % 10)`` idiom: mini-LEAN has no
    tuple-let patterns, so (exactly like Lean's desugaring) the destructuring
    is a ``match`` on a freshly constructed pair.  That makes this the
    suite's workload for the case-of-known-constructor canonicalisation:
    every destructuring site is an ``lp.getlabel`` of a direct
    ``lp.construct``.
    """
    return f"""
inductive Pair where
| mk (fst : Nat) (snd : Nat)

def digitStep (fuel : Nat) (n : Nat) (acc : Nat) : Nat :=
  if fuel == 0 then acc
  else if n == 0 then acc
  else match Pair.mk (n / 10) (n % 10) with
  | Pair.mk q r => digitStep (fuel - 1) q (acc + r)

def digitSum (n : Nat) : Nat := digitStep 32 n 0

def fibSwap (p : Pair) : Pair :=
  match p with
  | Pair.mk a b => Pair.mk b ((a + b) % 1000003)

def fibPair (n : Nat) (p : Pair) : Pair :=
  if n == 0 then p else fibPair (n - 1) (fibSwap p)

def fibDigits (n : Nat) : Nat :=
  match fibPair n (Pair.mk 0 1) with
  | Pair.mk a b => digitSum a

def loop (i : Nat) (acc : Nat) : Nat :=
  if i == 0 then acc
  else loop (i - 1) (acc + fibDigits (i + {span}) + digitSum (i * 2654435761))

def main : Nat := loop {reps} 0
"""


def _qsort_simple(size: int) -> str:
    """In-place quicksort on LEAN arrays (Lomuto partition)."""
    return f"""
def fill (i : Nat) (n : Nat) (seed : Nat) (a : Array Nat) : Array Nat :=
  if i == n then a
  else fill (i + 1) n ((seed * 1103515245 + 12345) % 2147483648)
       (Array.push a (seed % 1000))

def partitionGo (a : Array Nat) (pivot : Nat) (i : Nat) (j : Nat) (hi : Nat) : Array Nat :=
  if j == hi then Array.push (Array.swap a i hi) i
  else
    if Array.get a j <= pivot
    then partitionGo (Array.swap a i j) pivot (i + 1) (j + 1) hi
    else partitionGo a pivot i (j + 1) hi

def popLast (a : Array Nat) (i : Nat) (dst : Array Nat) (n : Nat) : Array Nat :=
  if i == n then dst
  else popLast a (i + 1) (Array.push dst (Array.get a i)) n

def qsortGo (fuel : Nat) (a : Array Nat) (lo : Nat) (hi : Nat) : Array Nat :=
  if fuel == 0 then a
  else
    if hi <= lo then a
    else
      let pivot := Array.get a hi;
      let packed := partitionGo a pivot lo lo hi;
      let n := Array.size packed;
      let mid := Array.get packed (n - 1);
      let arr := popLast packed 0 Array.empty (n - 1);
      let left := qsortGo (fuel - 1) arr lo (if mid == 0 then 0 else mid - 1);
      qsortGo (fuel - 1) left (mid + 1) hi

def checksumGo (a : Array Nat) (i : Nat) (acc : Nat) : Nat :=
  if i == Array.size a then acc
  else checksumGo a (i + 1) (acc + (i + 1) * Array.get a i)

def main : Nat :=
  let a := fill 0 {size} 42 Array.empty;
  let sorted := qsortGo {4 * size} a 0 ({size} - 1);
  checksumGo sorted 0 0
"""


def _rbmap(inserts: int) -> str:
    return f"""
inductive Color where
| red
| black

inductive Tree where
| leaf
| node (color : Color) (left : Tree) (key : Nat) (value : Nat) (right : Tree)

def balance1 (c : Color) (l : Tree) (k : Nat) (v : Nat) (r : Tree) : Tree :=
  match c, l, k, v, r with
  | Color.black, Tree.node Color.red (Tree.node Color.red a xk xv b) yk yv c2, zk, zv, d =>
      Tree.node Color.red (Tree.node Color.black a xk xv b) yk yv (Tree.node Color.black c2 zk zv d)
  | Color.black, Tree.node Color.red a xk xv (Tree.node Color.red b yk yv c2), zk, zv, d =>
      Tree.node Color.red (Tree.node Color.black a xk xv b) yk yv (Tree.node Color.black c2 zk zv d)
  | co, le, ke, ve, ri => Tree.node co le ke ve ri

def balance2 (c : Color) (l : Tree) (k : Nat) (v : Nat) (r : Tree) : Tree :=
  match c, l, k, v, r with
  | Color.black, a, xk, xv, Tree.node Color.red (Tree.node Color.red b yk yv c2) zk zv d =>
      Tree.node Color.red (Tree.node Color.black a xk xv b) yk yv (Tree.node Color.black c2 zk zv d)
  | Color.black, a, xk, xv, Tree.node Color.red b yk yv (Tree.node Color.red c2 zk zv d) =>
      Tree.node Color.red (Tree.node Color.black a xk xv b) yk yv (Tree.node Color.black c2 zk zv d)
  | co, le, ke, ve, ri => Tree.node co le ke ve ri

def ins (t : Tree) (k : Nat) (v : Nat) : Tree :=
  match t with
  | Tree.leaf => Tree.node Color.red Tree.leaf k v Tree.leaf
  | Tree.node c l tk tv r =>
      if k < tk then balance1 c (ins l k v) tk tv r
      else (if tk < k then balance2 c l tk tv (ins r k v)
            else Tree.node c l tk v r)

def setBlack (t : Tree) : Tree :=
  match t with
  | Tree.leaf => Tree.leaf
  | Tree.node _ l k v r => Tree.node Color.black l k v r

def insert (t : Tree) (k : Nat) (v : Nat) : Tree := setBlack (ins t k v)

def find (t : Tree) (k : Nat) : Nat :=
  match t with
  | Tree.leaf => 0
  | Tree.node _ l tk tv r =>
      if k < tk then find l k
      else (if tk < k then find r k else tv)

def buildGo (n : Nat) (t : Tree) : Tree :=
  if n == 0 then t
  else buildGo (n - 1) (insert t ((n * 7919) % {inserts * 3}) n)

def sumFinds (n : Nat) (t : Tree) (acc : Nat) : Nat :=
  if n == 0 then acc
  else sumFinds (n - 1) t (acc + find t ((n * 7919) % {inserts * 3}))

def main : Nat :=
  let t := buildGo {inserts} Tree.leaf;
  sumFinds {inserts} t 0
"""


def _unionfind(elements: int, unions: int) -> str:
    return f"""
def initGo (i : Nat) (n : Nat) (a : Array Nat) : Array Nat :=
  if i == n then a
  else initGo (i + 1) n (Array.push a i)

def findRoot (fuel : Nat) (parents : Array Nat) (x : Nat) : Nat :=
  if fuel == 0 then x
  else
    let p := Array.get parents x;
    if p == x then x else findRoot (fuel - 1) parents p

def union (parents : Array Nat) (a : Nat) (b : Nat) : Array Nat :=
  let ra := findRoot {elements} parents a;
  let rb := findRoot {elements} parents b;
  if ra == rb then parents else Array.set parents ra rb

def unionLoop (n : Nat) (seed : Nat) (parents : Array Nat) : Array Nat :=
  if n == 0 then parents
  else
    let s1 := (seed * 1103515245 + 12345) % 2147483648;
    let s2 := (s1 * 1103515245 + 12345) % 2147483648;
    let a := s1 % {elements};
    let b := s2 % {elements};
    unionLoop (n - 1) s2 (union parents a b)

def countRoots (i : Nat) (n : Nat) (parents : Array Nat) (acc : Nat) : Nat :=
  if i == n then acc
  else
    let r := findRoot {elements} parents i;
    countRoots (i + 1) n parents (acc + (if r == i then 1 else 0))

def main : Nat :=
  let parents := initGo 0 {elements} Array.empty;
  let merged := unionLoop {unions} 7 parents;
  countRoots 0 {elements} merged 0
"""


#: Default problem sizes (kept modest because execution is interpreted).
DEFAULT_SIZES: Dict[str, Dict[str, int]] = {
    "binarytrees": {"depth": 6},
    "binarytrees-int": {"depth": 6},
    "const_fold": {"depth": 4, "reps": 6},
    "deriv": {"reps": 6},
    "digits": {"reps": 10, "span": 12},
    "filter": {"length": 60},
    "qsort": {"size": 24},
    "rbmap_checkpoint": {"inserts": 30},
    "unionfind": {"elements": 40, "unions": 30},
}

#: The larger problem-size tier unlocked by the bytecode execution engine:
#: roughly an order of magnitude more executed operations per benchmark
#: than the defaults — too slow to be pleasant under the tree-walkers,
#: comfortable on the VM (``--sizes large`` in the figure harness).
LARGE_SIZES: Dict[str, Dict[str, int]] = {
    "binarytrees": {"depth": 10},
    "binarytrees-int": {"depth": 10},
    "const_fold": {"depth": 5, "reps": 36},
    "deriv": {"reps": 18},
    "digits": {"reps": 80, "span": 32},
    "filter": {"length": 400},
    "qsort": {"size": 96},
    "rbmap_checkpoint": {"inserts": 220},
    "unionfind": {"elements": 300, "unions": 240},
}

#: The extra-large tier funded by the VM 2.0 work (superinstruction
#: fusion, direct threading, explicit call stack): roughly another
#: order of magnitude beyond ``large``.  Only meaningful on the VM — the
#: tree-walkers are skipped for this tier by the timing harness.
XLARGE_SIZES: Dict[str, Dict[str, int]] = {
    "binarytrees": {"depth": 13},
    "binarytrees-int": {"depth": 13},
    "const_fold": {"depth": 6, "reps": 180},
    "deriv": {"reps": 180},
    # digits cost grows superlinearly in reps (fib arguments track the
    # loop counter, so bigint widths grow too): 320/48 lands at ~10x the
    # large tier like the rest of the row.
    "digits": {"reps": 320, "span": 48},
    "filter": {"length": 1600},
    "qsort": {"size": 300},
    "rbmap_checkpoint": {"inserts": 2200},
    "unionfind": {"elements": 2400, "unions": 2000},
}

#: Named size tiers selectable from the harness / figure CLI.
SIZE_TIERS: Dict[str, Dict[str, Dict[str, int]]] = {
    "default": DEFAULT_SIZES,
    "large": LARGE_SIZES,
    "xlarge": XLARGE_SIZES,
}


_GENERATORS = {
    "binarytrees": _binarytrees,
    "binarytrees-int": _binarytrees_int,
    "const_fold": _const_fold,
    "deriv": _deriv,
    "digits": _digits,
    "filter": _filter,
    "qsort": _qsort_simple,
    "rbmap_checkpoint": _rbmap,
    "unionfind": _unionfind,
}


def benchmark_sources(sizes: Dict[str, Dict[str, int]] = None) -> Dict[str, str]:
    """Generate the benchmark source programs at the given (or default) sizes.

    ``sizes`` may name a subset of the suite; only those programs are
    generated (several test modules pin their own reduced size tables).
    """
    sizes = sizes or DEFAULT_SIZES
    return {name: _GENERATORS[name](**params) for name, params in sizes.items()}


BENCHMARK_NAMES = tuple(DEFAULT_SIZES.keys())
