"""Surface AST and types of the mini-LEAN frontend.

The frontend is a deliberately small, strict, monomorphic functional language
that produces exactly the λpure constructs the paper's backend consumes:
inductive data types, (nested) pattern matching, higher-order functions with
partial application, and let/if expressions.  It substitutes for the LEAN4
frontend + elaborator, whose output (λpure) is type erased anyway.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..record import FrozenRecord, Record


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class LeanType(FrozenRecord):
    """Base class of surface types (immutable, compared structurally)."""


class NatType(LeanType):
    """Arbitrary precision natural numbers."""

    def __str__(self):
        return "Nat"


class IntType(LeanType):
    """Arbitrary precision integers."""

    def __str__(self):
        return "Int"


class BoolType(LeanType):
    """Booleans (an inductive with constructors ``false`` / ``true``)."""

    def __str__(self):
        return "Bool"


class UnitType(LeanType):
    """The unit type."""

    def __str__(self):
        return "Unit"


class ArrayType(LeanType):
    """Dynamic arrays of boxed values (LEAN's ``Array``)."""

    _fields = ("element",)

    def __init__(self, element: "LeanType"):
        object.__setattr__(self, "element", element)

    def __str__(self):
        return f"Array {self.element}"


class DataType(LeanType):
    """A user-declared inductive type, referenced by name."""

    _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __str__(self):
        return self.name


class FunType(LeanType):
    """Function type ``a -> b`` (curried, right associative)."""

    _fields = ("param", "result")

    def __init__(self, param: "LeanType", result: "LeanType"):
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "result", result)

    def __str__(self):
        param = f"({self.param})" if isinstance(self.param, FunType) else str(self.param)
        return f"{param} -> {self.result}"


def fun_type(params: List[LeanType], result: LeanType) -> LeanType:
    """Build the curried function type ``p1 -> p2 -> ... -> result``."""
    t = result
    for p in reversed(params):
        t = FunType(p, t)
    return t


def uncurry(t: LeanType) -> Tuple[List[LeanType], LeanType]:
    """Split a curried function type into parameter list and final result."""
    params: List[LeanType] = []
    while isinstance(t, FunType):
        params.append(t.param)
        t = t.result
    return params, t


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Record):
    """Base class of surface expressions."""

    #: Filled in by the type checker; compared by ``==``, not shown by
    #: ``repr``.
    _hidden = ("inferred_type",)
    inferred_type: Optional[LeanType] = None


class Var(Expr):
    """A variable or (possibly qualified) global name."""

    _fields = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self):
        return self.name


class NatLit(Expr):
    """A non-negative integer literal (``Nat`` unless context says ``Int``)."""

    _fields = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __str__(self):
        return str(self.value)


class IntLit(Expr):
    """A (possibly negative) integer literal of type ``Int``."""

    _fields = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __str__(self):
        return str(self.value)


class BoolLit(Expr):
    """``true`` / ``false``."""

    _fields = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __str__(self):
        return "true" if self.value else "false"


class App(Expr):
    """Application ``fn arg1 arg2 ...`` (possibly partial)."""

    _fields = ("fn", "args")

    def __init__(self, fn: Expr, args: List[Expr]):
        self.fn = fn
        self.args = args

    def __str__(self):
        return "(" + " ".join(str(e) for e in [self.fn, *self.args]) + ")"


class BinOp(Expr):
    """A binary operator application, desugared during lowering."""

    _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __str__(self):
        return f"({self.lhs} {self.op} {self.rhs})"


class UnaryOp(Expr):
    """Unary negation."""

    _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand

    def __str__(self):
        return f"({self.op}{self.operand})"


class Let(Expr):
    """``let name := value; body``."""

    _fields = ("name", "value", "body", "annotation")

    def __init__(
        self,
        name: str,
        value: Expr,
        body: Expr,
        annotation: Optional[LeanType] = None,
    ):
        self.name = name
        self.value = value
        self.body = body
        self.annotation = annotation

    def __str__(self):
        return f"let {self.name} := {self.value};\n{self.body}"


class If(Expr):
    """``if cond then then_branch else else_branch``."""

    _fields = ("cond", "then_branch", "else_branch")

    def __init__(self, cond: Expr, then_branch: Expr, else_branch: Expr):
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch

    def __str__(self):
        return f"if {self.cond} then {self.then_branch} else {self.else_branch}"


class Lambda(Expr):
    """``fun (x : T) ... => body``."""

    _fields = ("params", "body")

    def __init__(self, params: List[Tuple[str, LeanType]], body: Expr):
        self.params = params
        self.body = body

    def __str__(self):
        params = " ".join(f"({n} : {t})" for n, t in self.params)
        return f"(fun {params} => {self.body})"


# -- patterns ----------------------------------------------------------------


class Pattern(Record):
    """Base class of match patterns."""


class PVar(Pattern):
    """Bind the scrutinee to a name."""

    _fields = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self):
        return self.name


class PWild(Pattern):
    """``_`` — match anything, bind nothing."""

    def __str__(self):
        return "_"


class PCtor(Pattern):
    """Constructor pattern ``Type.ctor p1 p2 ...`` (sub-patterns allowed)."""

    _fields = ("ctor", "subpatterns")

    def __init__(self, ctor: str, subpatterns: Optional[List[Pattern]] = None):
        self.ctor = ctor
        self.subpatterns = [] if subpatterns is None else subpatterns

    def __str__(self):
        if not self.subpatterns:
            return self.ctor
        return "(" + " ".join([self.ctor, *[str(p) for p in self.subpatterns]]) + ")"


class PLit(Pattern):
    """Integer literal pattern."""

    _fields = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __str__(self):
        return str(self.value)


class PBool(Pattern):
    """``true`` / ``false`` pattern."""

    _fields = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __str__(self):
        return "true" if self.value else "false"


class MatchArm(Record):
    """One ``| p1, p2, ... => body`` arm."""

    _fields = ("patterns", "body")

    def __init__(self, patterns: List[Pattern], body: Expr):
        self.patterns = patterns
        self.body = body


class Match(Expr):
    """``match e1, e2, ... with arms``."""

    _fields = ("scrutinees", "arms")

    def __init__(self, scrutinees: List[Expr], arms: List[MatchArm]):
        self.scrutinees = scrutinees
        self.arms = arms

    def __str__(self):
        scrs = ", ".join(str(s) for s in self.scrutinees)
        arms = "\n".join(
            "| " + ", ".join(str(p) for p in a.patterns) + " => " + str(a.body)
            for a in self.arms
        )
        return f"match {scrs} with\n{arms}"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class ConstructorDecl(Record):
    """One constructor of an inductive declaration."""

    _fields = ("name", "fields")

    def __init__(
        self,
        name: str,
        fields: Optional[List[Tuple[str, LeanType]]] = None,
    ):
        self.name = name
        self.fields = [] if fields is None else fields


class InductiveDecl(Record):
    """``inductive Name where | ctor (field : T) ...``."""

    _fields = ("name", "constructors")

    def __init__(
        self,
        name: str,
        constructors: Optional[List[ConstructorDecl]] = None,
    ):
        self.name = name
        self.constructors = [] if constructors is None else constructors


class DefDecl(Record):
    """``def name (p : T) ... : R := body`` (``partial def`` is accepted)."""

    _fields = ("name", "params", "return_type", "body", "is_partial")

    def __init__(
        self,
        name: str,
        params: List[Tuple[str, LeanType]],
        return_type: LeanType,
        body: Expr,
        is_partial: bool = False,
    ):
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.is_partial = is_partial

    def type(self) -> LeanType:
        return fun_type([t for _, t in self.params], self.return_type)


class Program(Record):
    """A parsed mini-LEAN source file."""

    _fields = ("inductives", "defs")

    def __init__(
        self,
        inductives: Optional[List[InductiveDecl]] = None,
        defs: Optional[List[DefDecl]] = None,
    ):
        self.inductives = [] if inductives is None else inductives
        self.defs = [] if defs is None else defs

    def inductive(self, name: str) -> Optional[InductiveDecl]:
        for ind in self.inductives:
            if ind.name == name:
                return ind
        return None

    def definition(self, name: str) -> Optional[DefDecl]:
        for d in self.defs:
            if d.name == name:
                return d
        return None
