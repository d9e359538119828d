"""Reference interpreter for λpure — the golden semantics.

This interpreter is deliberately *independent* of the runtime, the backends
and the cost model: it evaluates λpure with plain Python values (ints,
``(tag, fields)`` tuples, pure lists for arrays) and pure functional array
semantics.  The differential tests compare its answers against both the
baseline λrc interpreter and the full lp+rgn pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..record import Record
from ..resilience.budgets import ExecutionBudget
from .limits import DEFAULT_RECURSION_LIMIT, recursion_limit

from ..lambda_pure.ir import (
    App,
    Call,
    Case,
    Ctor,
    Dec,
    FnBody,
    Function,
    Inc,
    JDecl,
    Jmp,
    Let,
    Lit,
    PAp,
    Program,
    Proj,
    Ret,
    Unreachable,
)


class ReferenceError_(Exception):
    """Raised on a semantic error during reference evaluation."""


class RefCtor(Record):
    """A constructor value."""

    _fields = ("tag", "fields")

    def __init__(self, tag: int, fields: Tuple):
        self.tag = tag
        self.fields = fields


class RefClosure(Record):
    """A partial application value."""

    _fields = ("fn", "args")

    def __init__(self, fn: str, args: Tuple):
        self.fn = fn
        self.args = args


def normalize(value) -> object:
    """Convert a reference value into a canonical comparable Python object."""
    if isinstance(value, RefCtor):
        return (value.tag, tuple(normalize(f) for f in value.fields))
    if isinstance(value, RefClosure):
        return f"<closure {value.fn}/{len(value.args)}>"
    if isinstance(value, list):
        return [normalize(v) for v in value]
    return value


def _truncated_div(a: int, b: int) -> int:
    """``a / b`` rounded towards zero, exact at any magnitude."""
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


#: Pure implementations of the runtime builtins.
def _bool(flag: bool) -> RefCtor:
    return RefCtor(1 if flag else 0, ())


_PURE_BUILTINS = {
    "lean_nat_add": lambda a, b: max(a + b, 0),
    "lean_nat_sub": lambda a, b: max(a - b, 0),
    "lean_nat_mul": lambda a, b: a * b,
    "lean_nat_div": lambda a, b: a // b if b else 0,
    "lean_nat_mod": lambda a, b: a % b if b else a,
    "lean_int_add": lambda a, b: a + b,
    "lean_int_sub": lambda a, b: a - b,
    "lean_int_mul": lambda a, b: a * b,
    "lean_int_div": lambda a, b: _truncated_div(a, b) if b else 0,
    "lean_int_mod": lambda a, b: (a - _truncated_div(a, b) * b) if b else a,
    "lean_int_neg": lambda a: -a,
    "lean_nat_to_int": lambda a: a,
    "lean_int_to_nat": lambda a: max(a, 0),
}

_PURE_COMPARISONS = {
    "lean_nat_dec_eq": lambda a, b: a == b,
    "lean_nat_dec_ne": lambda a, b: a != b,
    "lean_nat_dec_lt": lambda a, b: a < b,
    "lean_nat_dec_le": lambda a, b: a <= b,
    "lean_nat_dec_gt": lambda a, b: a > b,
    "lean_nat_dec_ge": lambda a, b: a >= b,
    "lean_int_dec_eq": lambda a, b: a == b,
    "lean_int_dec_ne": lambda a, b: a != b,
    "lean_int_dec_lt": lambda a, b: a < b,
    "lean_int_dec_le": lambda a, b: a <= b,
    "lean_int_dec_gt": lambda a, b: a > b,
    "lean_int_dec_ge": lambda a, b: a >= b,
}


class ReferenceInterpreter:
    """Evaluates a λpure program with pure Python values."""

    def __init__(
        self,
        program: Program,
        *,
        budget: Optional[ExecutionBudget] = None,
    ):
        self.program = program
        self.budget = budget

    # -- function calls ----------------------------------------------------------
    def run_main(self, args: Optional[List] = None):
        if self.budget is not None:
            self.budget.start()
        with recursion_limit(DEFAULT_RECURSION_LIMIT):
            return self.call(self.program.main, list(args or []))

    def call(self, fn_name: str, args: List):
        if fn_name in _PURE_BUILTINS or fn_name in _PURE_COMPARISONS:
            return self._call_builtin(fn_name, args)
        if fn_name.startswith("lean_array_"):
            return self._call_array(fn_name, args)
        fn = self.program.functions.get(fn_name)
        if fn is None:
            raise ReferenceError_(f"unknown function {fn_name}")
        if len(args) != fn.arity:
            raise ReferenceError_(
                f"calling {fn_name} with {len(args)} args, expected {fn.arity}"
            )
        if self.budget is not None:
            self.budget.charge()
        env = dict(zip(fn.params, args))
        return self._eval_body(fn.body, env, {})

    def apply(self, closure: RefClosure, args: List):
        fn = self.program.functions.get(closure.fn)
        arity = fn.arity if fn is not None else len(args) + len(closure.args)
        combined = list(closure.args) + args
        if len(combined) < arity:
            return RefClosure(closure.fn, tuple(combined))
        result = self.call(closure.fn, combined[:arity])
        extra = combined[arity:]
        if extra:
            if not isinstance(result, RefClosure):
                raise ReferenceError_("over-application of a non-closure result")
            return self.apply(result, extra)
        return result

    # -- builtins --------------------------------------------------------------------
    def _call_builtin(self, name: str, args: List):
        ints = [a for a in args]
        if name in _PURE_BUILTINS:
            return _PURE_BUILTINS[name](*ints)
        return _bool(_PURE_COMPARISONS[name](*ints))

    def _call_array(self, name: str, args: List):
        if name == "lean_array_mk":
            return []
        if name == "lean_array_mk_sized":
            size, fill = args
            return [fill] * size
        if name == "lean_array_push":
            array, value = args
            return list(array) + [value]
        if name == "lean_array_get":
            array, index = args
            return array[index]
        if name == "lean_array_set":
            array, index, value = args
            copy = list(array)
            copy[index] = value
            return copy
        if name == "lean_array_size":
            (array,) = args
            return len(array)
        if name == "lean_array_swap":
            array, i, j = args
            copy = list(array)
            copy[i], copy[j] = copy[j], copy[i]
            return copy
        raise ReferenceError_(f"unknown array builtin {name}")

    # -- expression evaluation ------------------------------------------------------------
    def _eval_expr(self, expr, env: Dict[str, object]):
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Ctor):
            return RefCtor(expr.tag, tuple(env[a] for a in expr.args))
        if isinstance(expr, Proj):
            value = env[expr.var]
            if not isinstance(value, RefCtor):
                raise ReferenceError_(f"projection from non-constructor {value!r}")
            return value.fields[expr.index]
        if isinstance(expr, Call):
            return self.call(expr.fn, [env[a] for a in expr.args])
        if isinstance(expr, PAp):
            return RefClosure(expr.fn, tuple(env[a] for a in expr.args))
        if isinstance(expr, App):
            closure = env[expr.closure]
            if not isinstance(closure, RefClosure):
                raise ReferenceError_(f"applying a non-closure {closure!r}")
            return self.apply(closure, [env[a] for a in expr.args])
        raise ReferenceError_(f"unknown expression {expr!r}")

    # -- body evaluation ----------------------------------------------------------------------
    def _eval_body(self, body: FnBody, env: Dict[str, object], joins: Dict[str, Tuple]):
        while True:
            if isinstance(body, Let):
                env = dict(env)
                env[body.var] = self._eval_expr(body.expr, env)
                body = body.body
                continue
            if isinstance(body, (Inc, Dec)):
                body = body.body
                continue
            if isinstance(body, Ret):
                return env[body.var]
            if isinstance(body, Case):
                scrutinee = env[body.var]
                tag = (
                    scrutinee.tag
                    if isinstance(scrutinee, RefCtor)
                    else int(scrutinee)
                )
                chosen = None
                for alt in body.alts:
                    if alt.tag == tag:
                        chosen = alt.body
                        break
                if chosen is None:
                    chosen = body.default
                if chosen is None:
                    raise ReferenceError_(
                        f"no case alternative for tag {tag} in case {body.var}"
                    )
                body = chosen
                continue
            if isinstance(body, JDecl):
                joins = dict(joins)
                # Capture the environment and join scope at the declaration:
                # the join body may only reference variables in scope here.
                joins[body.label] = (body.params, body.jbody, env, joins)
                body = body.rest
                continue
            if isinstance(body, Jmp):
                if self.budget is not None:
                    self.budget.charge()
                if body.label not in joins:
                    raise ReferenceError_(f"jump to unknown join point {body.label}")
                params, jbody, jenv, jjoins = joins[body.label]
                if len(params) != len(body.args):
                    raise ReferenceError_(
                        f"jump to {body.label} with {len(body.args)} args, "
                        f"expected {len(params)}"
                    )
                arg_values = [env[a] for a in body.args]
                env = dict(jenv)
                for param, value in zip(params, arg_values):
                    env[param] = value
                joins = jjoins
                body = jbody
                continue
            if isinstance(body, Unreachable):
                raise ReferenceError_("reached an unreachable program point")
            raise ReferenceError_(f"unknown body node {body!r}")
