"""A simple monomorphic type checker for mini-LEAN.

The checker is bidirectional-lite: it infers types bottom-up and uses the
expected type to give numeric literals an ``Int`` type where required.  It
annotates every expression's ``inferred_type`` so that the λpure lowering can
select the right runtime routines (``lean_nat_*`` vs ``lean_int_*``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import ast
from .prelude import BUILTIN_FUNCTIONS, builtin_inductives


class TypeError_(Exception):
    """Raised when a mini-LEAN program fails to type check."""


class ConstructorSignature:
    """Resolved information about a single constructor."""

    def __init__(self, type_name: str, ctor_name: str, tag: int, fields: List[ast.LeanType]):
        self.type_name = type_name
        self.ctor_name = ctor_name
        self.tag = tag
        self.fields = fields

    @property
    def qualified(self) -> str:
        return f"{self.type_name}.{self.ctor_name}"

    @property
    def arity(self) -> int:
        return len(self.fields)


#: Lazily built prelude tables (constructor signatures and inductive lists
#: of the builtin declarations).  The prelude never changes within a
#: process, so every :class:`GlobalEnv` — and hence every compilation in a
#: session — shares one resolved copy instead of re-deriving it per program.
_PRELUDE_TABLES: Optional[
    Tuple[Dict[str, ConstructorSignature], Dict[str, List[ConstructorSignature]]]
] = None


def _prelude_tables():
    global _PRELUDE_TABLES
    if _PRELUDE_TABLES is None:
        constructors: Dict[str, ConstructorSignature] = {}
        inductives: Dict[str, List[ConstructorSignature]] = {}
        for ind in builtin_inductives():
            signatures = []
            for tag, ctor in enumerate(ind.constructors):
                sig = ConstructorSignature(
                    ind.name, ctor.name, tag, [t for _, t in ctor.fields]
                )
                signatures.append(sig)
                constructors[sig.qualified] = sig
            inductives[ind.name] = signatures
        _PRELUDE_TABLES = (constructors, inductives)
    return _PRELUDE_TABLES


class GlobalEnv:
    """Global typing environment: functions, constructors and inductives.

    Prelude-derived structures (builtin function types and constructor
    signatures) are resolved once per process by :func:`_prelude_tables`
    and shared; only the program's own declarations are processed here.
    """

    def __init__(self, program: ast.Program):
        self.program = program
        prelude_constructors, prelude_inductives = _prelude_tables()
        self.functions: Dict[str, ast.LeanType] = dict(BUILTIN_FUNCTIONS)
        self.constructors: Dict[str, ConstructorSignature] = dict(
            prelude_constructors
        )
        self.inductives: Dict[str, List[ConstructorSignature]] = dict(
            prelude_inductives
        )

        for ind in list(program.inductives):
            if ind.name in self.inductives:
                raise TypeError_(f"duplicate inductive {ind.name}")
            signatures = []
            for tag, ctor in enumerate(ind.constructors):
                sig = ConstructorSignature(
                    ind.name, ctor.name, tag, [t for _, t in ctor.fields]
                )
                signatures.append(sig)
                self.constructors[sig.qualified] = sig
            self.inductives[ind.name] = signatures

        for d in program.defs:
            if d.name in self.functions:
                raise TypeError_(f"duplicate definition {d.name}")
            self.functions[d.name] = d.type()

    def constructor(self, qualified: str) -> ConstructorSignature:
        if qualified not in self.constructors:
            raise TypeError_(f"unknown constructor {qualified}")
        return self.constructors[qualified]

    def constructors_of(self, type_name: str) -> List[ConstructorSignature]:
        if type_name not in self.inductives:
            raise TypeError_(f"unknown inductive type {type_name}")
        return self.inductives[type_name]


def _is_numeric(t: ast.LeanType) -> bool:
    return isinstance(t, (ast.NatType, ast.IntType))


class TypeChecker:
    """Checks a surface program and annotates inferred types."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.env = GlobalEnv(program)

    # -- entry point ----------------------------------------------------------
    def check_program(self) -> GlobalEnv:
        for d in self.program.defs:
            locals_: Dict[str, ast.LeanType] = dict(d.params)
            self.check_expr(d.body, d.return_type, locals_)
        return self.env

    # -- expressions -------------------------------------------------------------
    def check_expr(
        self,
        expr: ast.Expr,
        expected: Optional[ast.LeanType],
        locals_: Dict[str, ast.LeanType],
    ) -> ast.LeanType:
        actual = self._infer(expr, expected, locals_)
        if expected is not None and actual != expected:
            raise TypeError_(
                f"type mismatch: expected {expected}, got {actual} in {expr}"
            )
        expr.inferred_type = actual
        return actual

    def _infer(
        self,
        expr: ast.Expr,
        expected: Optional[ast.LeanType],
        locals_: Dict[str, ast.LeanType],
    ) -> ast.LeanType:
        if isinstance(expr, ast.NatLit):
            if isinstance(expected, ast.IntType):
                return ast.IntType()
            return ast.NatType()
        if isinstance(expr, ast.IntLit):
            return ast.IntType()
        if isinstance(expr, ast.BoolLit):
            return ast.BoolType()
        if isinstance(expr, ast.Var):
            return self._infer_name(expr.name, locals_)
        if isinstance(expr, ast.App):
            return self._infer_app(expr, locals_)
        if isinstance(expr, ast.BinOp):
            return self._infer_binop(expr, expected, locals_)
        if isinstance(expr, ast.UnaryOp):
            operand = self.check_expr(expr.operand, ast.IntType(), locals_)
            return operand
        if isinstance(expr, ast.Let):
            value_type = self.check_expr(expr.value, expr.annotation, locals_)
            inner = dict(locals_)
            inner[expr.name] = value_type
            return self.check_expr(expr.body, expected, inner)
        if isinstance(expr, ast.If):
            self.check_expr(expr.cond, ast.BoolType(), locals_)
            then_type = self.check_expr(expr.then_branch, expected, locals_)
            self.check_expr(expr.else_branch, then_type, locals_)
            return then_type
        if isinstance(expr, ast.Lambda):
            inner = dict(locals_)
            for name, t in expr.params:
                inner[name] = t
            result_expected = None
            if isinstance(expected, ast.FunType):
                remaining = expected
                for _ in expr.params:
                    if isinstance(remaining, ast.FunType):
                        remaining = remaining.result
                result_expected = remaining
            body_type = self.check_expr(expr.body, result_expected, inner)
            return ast.fun_type([t for _, t in expr.params], body_type)
        if isinstance(expr, ast.Match):
            return self._infer_match(expr, expected, locals_)
        raise TypeError_(f"cannot type-check expression {expr!r}")

    # -- names --------------------------------------------------------------------
    def _infer_name(self, name: str, locals_: Dict[str, ast.LeanType]) -> ast.LeanType:
        if name in locals_:
            return locals_[name]
        if name in self.env.functions:
            return self.env.functions[name]
        if name in self.env.constructors:
            sig = self.env.constructors[name]
            result: ast.LeanType = (
                ast.BoolType() if sig.type_name == "Bool" else ast.DataType(sig.type_name)
            )
            return ast.fun_type(sig.fields, result)
        raise TypeError_(f"unknown identifier {name}")

    # -- applications -----------------------------------------------------------------
    def _infer_app(self, expr: ast.App, locals_: Dict[str, ast.LeanType]) -> ast.LeanType:
        fn_type = self.check_expr(expr.fn, None, locals_)
        result = fn_type
        for arg in expr.args:
            if not isinstance(result, ast.FunType):
                raise TypeError_(
                    f"too many arguments in application {expr}: "
                    f"{result} is not a function type"
                )
            self.check_expr(arg, result.param, locals_)
            result = result.result
        return result

    # -- operators --------------------------------------------------------------------
    def _infer_binop(
        self,
        expr: ast.BinOp,
        expected: Optional[ast.LeanType],
        locals_: Dict[str, ast.LeanType],
    ) -> ast.LeanType:
        op = expr.op
        if op in ("&&", "||"):
            self.check_expr(expr.lhs, ast.BoolType(), locals_)
            self.check_expr(expr.rhs, ast.BoolType(), locals_)
            return ast.BoolType()
        if op in ("+", "-", "*", "/", "%"):
            hint = expected if expected is not None and _is_numeric(expected) else None
            lhs = self.check_expr(expr.lhs, hint, locals_)
            if not _is_numeric(lhs):
                raise TypeError_(f"operator {op} expects Nat or Int, got {lhs}")
            self.check_expr(expr.rhs, lhs, locals_)
            return lhs
        if op in ("==", "!=", "<", "<=", ">", ">="):
            lhs = self.check_expr(expr.lhs, None, locals_)
            if not _is_numeric(lhs):
                raise TypeError_(
                    f"comparison {op} expects Nat or Int operands, got {lhs}"
                )
            self.check_expr(expr.rhs, lhs, locals_)
            return ast.BoolType()
        raise TypeError_(f"unknown operator {op}")

    # -- match -------------------------------------------------------------------------
    def _infer_match(
        self,
        expr: ast.Match,
        expected: Optional[ast.LeanType],
        locals_: Dict[str, ast.LeanType],
    ) -> ast.LeanType:
        scrutinee_types = [
            self.check_expr(s, None, locals_) for s in expr.scrutinees
        ]
        result_type = expected
        for arm in expr.arms:
            bindings = dict(locals_)
            for pattern, scrutinee_type in zip(arm.patterns, scrutinee_types):
                self._check_pattern(pattern, scrutinee_type, bindings)
            arm_type = self.check_expr(arm.body, result_type, bindings)
            if result_type is None:
                result_type = arm_type
        if result_type is None:
            raise TypeError_("match expression has no arms")
        return result_type

    def _check_pattern(
        self,
        pattern: ast.Pattern,
        scrutinee_type: ast.LeanType,
        bindings: Dict[str, ast.LeanType],
    ) -> None:
        if isinstance(pattern, ast.PWild):
            return
        if isinstance(pattern, ast.PVar):
            bindings[pattern.name] = scrutinee_type
            return
        if isinstance(pattern, ast.PLit):
            if not _is_numeric(scrutinee_type):
                raise TypeError_(
                    f"literal pattern {pattern.value} against non-numeric type "
                    f"{scrutinee_type}"
                )
            return
        if isinstance(pattern, ast.PBool):
            if not isinstance(scrutinee_type, ast.BoolType):
                raise TypeError_(
                    f"boolean pattern against non-Bool type {scrutinee_type}"
                )
            return
        if isinstance(pattern, ast.PCtor):
            sig = self.env.constructor(pattern.ctor)
            if isinstance(scrutinee_type, ast.BoolType):
                expected_name = "Bool"
            elif isinstance(scrutinee_type, ast.DataType):
                expected_name = scrutinee_type.name
            else:
                raise TypeError_(
                    f"constructor pattern {pattern.ctor} against non-inductive "
                    f"type {scrutinee_type}"
                )
            if sig.type_name != expected_name:
                raise TypeError_(
                    f"constructor {pattern.ctor} does not belong to type "
                    f"{expected_name}"
                )
            if len(pattern.subpatterns) != sig.arity:
                raise TypeError_(
                    f"constructor {pattern.ctor} expects {sig.arity} "
                    f"sub-patterns, got {len(pattern.subpatterns)}"
                )
            for sub, field_type in zip(pattern.subpatterns, sig.fields):
                self._check_pattern(sub, field_type, bindings)
            return
        raise TypeError_(f"unknown pattern {pattern!r}")


def check_program(program: ast.Program) -> GlobalEnv:
    """Type-check ``program``; returns the resolved global environment."""
    try:
        return TypeChecker(program).check_program()
    except RecursionError:
        raise TypeError_(
            "the program nests too deeply for the type checker "
            "(Python's recursion limit was reached)"
        ) from None
