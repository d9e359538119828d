"""Lowering mini-LEAN surface programs to λpure.

This stage performs what LEAN4's compiler front-half does before λrc:

* A-normal form conversion (every operand becomes a ``let``-bound variable),
* compilation of (nested, multi-scrutinee) pattern matches into trees of
  single-tag ``case`` constructs, introducing *join points* for shared
  fall-through arms (exactly the deduplication of Figure 5),
* desugaring of ``if`` / boolean operators into matches on ``Bool``,
* lambda lifting: anonymous functions become top-level λpure functions, and
  their capture sites become partial applications (``pap``),
* resolution of saturated vs partial vs over-saturated applications into
  ``call`` / ``pap`` / ``app``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..lean import ast
from ..lean.prelude import (
    BOOL_FALSE_TAG,
    BOOL_TRUE_TAG,
    BUILTIN_RUNTIME_CALLS,
    OPERATOR_RUNTIME_CALLS,
)
from ..lean.typecheck import GlobalEnv, check_program
from . import ir


class LoweringError(Exception):
    """Raised when a construct cannot be lowered (e.g. unsaturated builtin)."""


#: A lowering destination: either return from the function or jump to a join
#: point with the produced value.
Dest = Tuple[str, Optional[str]]
RETURN_DEST: Dest = ("ret", None)


def jump_dest(label: str) -> Dest:
    return ("jmp", label)


class _Hole(ir.FnBody):
    """Where the rest of a ``let`` spine goes: what a spine's continuation
    returns in place of the lowered remainder, until the spine loop fills
    it in."""


class _Spine:
    """State of one ``let`` spine being lowered in a loop.

    ``captures`` counts the bindings whose value has reached the spine's
    continuation.  ``pending`` holds the value join points whose ``rest``
    (the ``if``/``match`` branches) is lowered only after the rest of the
    spine (see :meth:`FunctionLowering._lower_control_value`): one list per
    binding, each in the order the recursive lowering would reach them.
    """

    __slots__ = ("captures", "pending")

    def __init__(self):
        self.captures = 0
        self.pending: List[list] = []


class ProgramLowering:
    """Shared state while lowering a whole program."""

    def __init__(self, surface: ast.Program, env: GlobalEnv):
        self.surface = surface
        self.env = env
        self.program = ir.Program()
        self._fresh = 0
        for sig in env.constructors.values():
            self.program.constructors[sig.qualified] = ir.ConstructorInfo(
                sig.type_name, sig.ctor_name, sig.tag, sig.arity
            )

    def fresh(self, prefix: str = "x") -> str:
        self._fresh += 1
        return f"{prefix}_{self._fresh}"

    def function_arity(self, name: str) -> Optional[int]:
        decl = self.surface.definition(name)
        if decl is not None:
            return len(decl.params)
        fn = self.program.functions.get(name)
        if fn is not None:
            return fn.arity
        return None

    def lower(self) -> ir.Program:
        for decl in self.surface.defs:
            FunctionLowering(self, decl.name).lower_def(decl)
        if "main" in self.program.functions:
            self.program.main = "main"
        return self.program


class FunctionLowering:
    """Lowers one surface definition (or one lifted lambda) to a λpure
    :class:`~repro.lambda_pure.ir.Function`."""

    def __init__(self, ctx: ProgramLowering, name: str):
        self.ctx = ctx
        self.env = ctx.env
        self.name = name
        self._lambda_counter = 0
        #: The innermost ``let`` spine whose bindings are being lowered.
        self._spine: Optional[_Spine] = None

    # -- entry points -----------------------------------------------------------
    def lower_def(self, decl: ast.DefDecl) -> ir.Function:
        vars_: Dict[str, str] = {}
        params = []
        for pname, _ in decl.params:
            pvar = self.ctx.fresh(pname)
            vars_[pname] = pvar
            params.append(pvar)
        body = self.lower_dest(decl.body, vars_, RETURN_DEST)
        fn = ir.Function(decl.name, params, body)
        self.ctx.program.add_function(fn)
        return fn

    def lower_lambda(
        self,
        lam: ast.Lambda,
        captured: List[Tuple[str, str]],
    ) -> ir.Function:
        """Lower a lambda into a fresh top-level function.

        ``captured`` is the list of (surface name, fresh parameter name) of
        captured variables, which become the leading parameters.
        """
        self._lambda_counter += 1
        lifted_name = f"{self.name}._lam{self._lambda_counter}_{self.ctx.fresh('f')}"
        vars_: Dict[str, str] = {}
        params: List[str] = []
        for surface_name, param_name in captured:
            vars_[surface_name] = param_name
            params.append(param_name)
        for pname, _ in lam.params:
            pvar = self.ctx.fresh(pname)
            vars_[pname] = pvar
            params.append(pvar)
        inner = FunctionLowering(self.ctx, lifted_name)
        body = inner.lower_dest(lam.body, vars_, RETURN_DEST)
        fn = ir.Function(lifted_name, params, body)
        self.ctx.program.add_function(fn)
        return fn

    # -- destinations -------------------------------------------------------------
    def finish(self, dest: Dest, var: str) -> ir.FnBody:
        kind, label = dest
        if kind == "ret":
            return ir.Ret(var)
        return ir.Jmp(label, [var])

    def lower_dest(self, expr: ast.Expr, vars_: Dict[str, str], dest: Dest) -> ir.FnBody:
        """Lower ``expr`` so that its value flows to ``dest``."""
        if isinstance(expr, ast.Let):
            return self._lower_spine(
                expr, vars_, lambda body, scope: self.lower_dest(body, scope, dest)
            )
        if isinstance(expr, ast.If):
            return self._lower_if(expr, vars_, dest)
        if isinstance(expr, ast.Match):
            return self._lower_match(expr, vars_, dest)
        return self.lower_value(expr, vars_, lambda v: self.finish(dest, v))

    # -- value lowering --------------------------------------------------------------
    def lower_value(
        self,
        expr: ast.Expr,
        vars_: Dict[str, str],
        k: Callable[[str], ir.FnBody],
    ) -> ir.FnBody:
        """Lower ``expr`` to a variable and continue with ``k``."""
        if isinstance(expr, (ast.NatLit, ast.IntLit)):
            v = self.ctx.fresh("n")
            return ir.Let(v, ir.Lit(expr.value), k(v))
        if isinstance(expr, ast.BoolLit):
            v = self.ctx.fresh("b")
            tag = BOOL_TRUE_TAG if expr.value else BOOL_FALSE_TAG
            name = "Bool.true" if expr.value else "Bool.false"
            return ir.Let(
                v, ir.Ctor(tag, [], "Bool", name), k(v)
            )
        if isinstance(expr, ast.Var):
            return self._lower_name(expr.name, [], vars_, k)
        if isinstance(expr, ast.App):
            head, args = self._collect_app(expr)
            if isinstance(head, ast.Var):
                return self._lower_name(head.name, args, vars_, k)
            # Higher-order head (lambda or computed closure).
            return self.lower_value(
                head,
                vars_,
                lambda closure: self._lower_args(
                    args,
                    vars_,
                    lambda argvars: self._bind(
                        ir.App(closure, argvars), "r", k
                    ),
                ),
            )
        if isinstance(expr, ast.BinOp):
            return self._lower_binop(expr, vars_, k)
        if isinstance(expr, ast.UnaryOp):
            return self.lower_value(
                expr.operand,
                vars_,
                lambda v: self._bind(ir.Call("lean_int_neg", [v]), "r", k),
            )
        if isinstance(expr, ast.Let):
            return self._lower_spine(
                expr, vars_, lambda body, scope: self.lower_value(body, scope, k)
            )
        if isinstance(expr, (ast.If, ast.Match)):
            return self._lower_control_value(expr, vars_, k)
        if isinstance(expr, ast.Lambda):
            return self._lower_lambda_value(expr, vars_, k)
        raise LoweringError(f"cannot lower expression {expr!r}")

    def _lower_spine(
        self,
        expr: ast.Let,
        vars_: Dict[str, str],
        lower_tail: Callable[[ast.Expr, Dict[str, str]], ir.FnBody],
    ) -> ir.FnBody:
        """Lower a ``let`` spine in one loop with one scope map.

        Each binding's value is lowered with a continuation that records the
        bound variable and returns a :class:`_Hole`; the next binding's code
        is then plugged into that hole.  The first non-``let`` body is
        lowered by ``lower_tail``.  Fresh names come out in the order of a
        recursive continuation-passing lowering: the branches of a value
        ``if``/``match``, which that lowering reaches only after its
        continuation returns, are queued on ``pending`` and lowered once the
        whole spine (and so the whole continuation) is in place.
        """
        outer = self._spine
        spine = self._spine = _Spine()
        scope = dict(vars_)
        bound: List[str] = []

        def capture(var: str) -> ir.FnBody:
            spine.captures += 1
            bound.append(var)
            return _HOLE

        root: Optional[ir.FnBody] = None
        parent: Optional[ir.FnBody] = None
        while isinstance(expr, ast.Let):
            group: list = []
            spine.pending.append(group)
            part = self.lower_value(expr.value, scope, capture)
            if part is not _HOLE:
                root = _attach(root, parent, part)
                parent = _hole_parent(part)
            scope[expr.name] = bound.pop()
            expr = expr.body
        self._spine = outer
        captures = outer.captures if outer is not None else 0
        root = _attach(root, parent, lower_tail(expr, scope))
        if outer is not None and outer.captures != captures:
            # The tail reached the enclosing spine's continuation: this
            # spine's queued branches follow the enclosing remainder.
            for group in reversed(spine.pending):
                outer.pending[-1].extend(group)
        else:
            for group in reversed(spine.pending):
                for jdecl, branches, branch_scope in group:
                    jdecl.rest = self.lower_dest(
                        branches, branch_scope, jump_dest(jdecl.label)
                    )
        return root

    def _bind(
        self, rhs: ir.Expr, prefix: str, k: Callable[[str], ir.FnBody]
    ) -> ir.FnBody:
        v = self.ctx.fresh(prefix)
        return ir.Let(v, rhs, k(v))

    # -- names and applications ----------------------------------------------------------
    def _collect_app(self, expr: ast.Expr) -> Tuple[ast.Expr, List[ast.Expr]]:
        args: List[ast.Expr] = []
        head = expr
        while isinstance(head, ast.App):
            args = list(head.args) + args
            head = head.fn
        return head, args

    def _lower_args(
        self,
        args: Sequence[ast.Expr],
        vars_: Dict[str, str],
        k: Callable[[List[str]], ir.FnBody],
    ) -> ir.FnBody:
        lowered: List[str] = []

        def go(index: int) -> ir.FnBody:
            if index == len(args):
                return k(lowered)
            return self.lower_value(
                args[index],
                vars_,
                lambda v: (lowered.append(v), go(index + 1))[1],
            )

        return go(0)

    def _lower_name(
        self,
        name: str,
        args: Sequence[ast.Expr],
        vars_: Dict[str, str],
        k: Callable[[str], ir.FnBody],
    ) -> ir.FnBody:
        # Local variable: either the value itself or a closure application.
        if name in vars_:
            local = vars_[name]
            if not args:
                return k(local)
            return self._lower_args(
                args,
                vars_,
                lambda argvars: self._bind(ir.App(local, argvars), "r", k),
            )
        # Constructor.
        if name in self.env.constructors:
            sig = self.env.constructor(name)
            if len(args) != sig.arity:
                raise LoweringError(
                    f"constructor {name} must be fully applied "
                    f"({len(args)}/{sig.arity} arguments)"
                )
            return self._lower_args(
                args,
                vars_,
                lambda argvars: self._bind(
                    ir.Ctor(sig.tag, argvars, sig.type_name, sig.qualified),
                    "c",
                    k,
                ),
            )
        # Builtin runtime function.
        if name in BUILTIN_RUNTIME_CALLS:
            runtime_name, arity = BUILTIN_RUNTIME_CALLS[name]
            if len(args) != arity:
                raise LoweringError(
                    f"builtin {name} must be fully applied "
                    f"({len(args)}/{arity} arguments)"
                )
            return self._lower_args(
                args,
                vars_,
                lambda argvars: self._bind(
                    ir.Call(runtime_name, argvars), "r", k
                ),
            )
        # User-defined function.
        arity = self.ctx.function_arity(name)
        if arity is None:
            decl = self.ctx.surface.definition(name)
            if decl is None:
                raise LoweringError(f"unknown identifier {name}")
            arity = len(decl.params)
        return self._lower_args(
            args,
            vars_,
            lambda argvars: self._finish_call(name, arity, argvars, k),
        )

    def _finish_call(
        self,
        name: str,
        arity: int,
        argvars: List[str],
        k: Callable[[str], ir.FnBody],
    ) -> ir.FnBody:
        if len(argvars) == arity:
            return self._bind(ir.Call(name, argvars), "r", k)
        if len(argvars) < arity:
            return self._bind(ir.PAp(name, argvars), "clo", k)
        # Over-application: saturate the direct call, then apply the returned
        # closure to the remaining arguments.
        direct, extra = argvars[:arity], argvars[arity:]
        return self._bind(
            ir.Call(name, direct),
            "r",
            lambda r: self._bind(ir.App(r, extra), "r", k),
        )

    # -- operators ----------------------------------------------------------------------
    def _lower_binop(
        self,
        expr: ast.BinOp,
        vars_: Dict[str, str],
        k: Callable[[str], ir.FnBody],
    ) -> ir.FnBody:
        if expr.op == "&&":
            desugared = ast.If(expr.lhs, expr.rhs, ast.BoolLit(False))
            return self._lower_control_value(desugared, vars_, k)
        if expr.op == "||":
            desugared = ast.If(expr.lhs, ast.BoolLit(True), expr.rhs)
            return self._lower_control_value(desugared, vars_, k)
        operand_type = expr.lhs.inferred_type
        type_name = "Int" if isinstance(operand_type, ast.IntType) else "Nat"
        runtime = OPERATOR_RUNTIME_CALLS.get((expr.op, type_name))
        if runtime is None:
            raise LoweringError(f"cannot lower operator {expr.op} at type {type_name}")
        return self.lower_value(
            expr.lhs,
            vars_,
            lambda lhs: self.lower_value(
                expr.rhs,
                vars_,
                lambda rhs: self._bind(ir.Call(runtime, [lhs, rhs]), "r", k),
            ),
        )

    # -- lambdas -------------------------------------------------------------------------
    def _lower_lambda_value(
        self,
        lam: ast.Lambda,
        vars_: Dict[str, str],
        k: Callable[[str], ir.FnBody],
    ) -> ir.FnBody:
        captured_names = sorted(self._free_surface_vars(lam) & set(vars_.keys()))
        captured = [
            (name, self.ctx.fresh(name)) for name in captured_names
        ]
        lifted = self.lower_lambda(lam, captured)
        captured_vars = [vars_[name] for name in captured_names]
        return self._bind(ir.PAp(lifted.name, captured_vars), "clo", k)

    def _free_surface_vars(self, expr: ast.Expr) -> set:
        """Free surface-level variables of an expression."""
        if isinstance(expr, ast.Var):
            return {expr.name}
        if isinstance(expr, (ast.NatLit, ast.IntLit, ast.BoolLit)):
            return set()
        if isinstance(expr, ast.App):
            result = self._free_surface_vars(expr.fn)
            for a in expr.args:
                result |= self._free_surface_vars(a)
            return result
        if isinstance(expr, ast.BinOp):
            return self._free_surface_vars(expr.lhs) | self._free_surface_vars(expr.rhs)
        if isinstance(expr, ast.UnaryOp):
            return self._free_surface_vars(expr.operand)
        if isinstance(expr, ast.Let):
            return self._free_surface_vars(expr.value) | (
                self._free_surface_vars(expr.body) - {expr.name}
            )
        if isinstance(expr, ast.If):
            return (
                self._free_surface_vars(expr.cond)
                | self._free_surface_vars(expr.then_branch)
                | self._free_surface_vars(expr.else_branch)
            )
        if isinstance(expr, ast.Lambda):
            bound = {name for name, _ in expr.params}
            return self._free_surface_vars(expr.body) - bound
        if isinstance(expr, ast.Match):
            result = set()
            for s in expr.scrutinees:
                result |= self._free_surface_vars(s)
            for arm in expr.arms:
                bound = set()
                for p in arm.patterns:
                    bound |= self._pattern_vars(p)
                result |= self._free_surface_vars(arm.body) - bound
            return result
        raise LoweringError(f"cannot compute free variables of {expr!r}")

    def _pattern_vars(self, pattern: ast.Pattern) -> set:
        if isinstance(pattern, ast.PVar):
            return {pattern.name}
        if isinstance(pattern, ast.PCtor):
            result = set()
            for sub in pattern.subpatterns:
                result |= self._pattern_vars(sub)
            return result
        return set()

    # -- control flow in value position -------------------------------------------------------
    def _lower_control_value(
        self,
        expr: Union[ast.If, ast.Match],
        vars_: Dict[str, str],
        k: Callable[[str], ir.FnBody],
    ) -> ir.FnBody:
        """Lower an ``if``/``match`` whose value feeds a continuation by
        introducing a join point for the continuation."""
        label = self.ctx.fresh("jp")
        result = self.ctx.fresh("res")
        spine = self._spine
        captures = spine.captures if spine is not None else 0
        jbody = k(result)
        if spine is not None and spine.captures != captures:
            # ``k`` stopped at a hole of the spine being lowered: the rest
            # of the spine comes first, then these branches.
            jdecl = ir.JDecl(label, [result], jbody, None)
            spine.pending[-1].append((jdecl, expr, dict(vars_)))
            return jdecl
        inner = self.lower_dest(expr, vars_, jump_dest(label))
        return ir.JDecl(label, [result], jbody, inner)

    def _lower_if(self, expr: ast.If, vars_: Dict[str, str], dest: Dest) -> ir.FnBody:
        return self.lower_value(
            expr.cond,
            vars_,
            lambda c: ir.Case(
                c,
                [
                    ir.CaseAlt(
                        BOOL_TRUE_TAG,
                        "Bool.true",
                        self.lower_dest(expr.then_branch, vars_, dest),
                    ),
                    ir.CaseAlt(
                        BOOL_FALSE_TAG,
                        "Bool.false",
                        self.lower_dest(expr.else_branch, vars_, dest),
                    ),
                ],
                None,
                "Bool",
            ),
        )

    # -- pattern matching ----------------------------------------------------------------------
    def _lower_match(self, expr: ast.Match, vars_: Dict[str, str], dest: Dest) -> ir.FnBody:
        scrutinee_types = [s.inferred_type for s in expr.scrutinees]

        def with_scrutinees(scrut_vars: List[str]) -> ir.FnBody:
            scruts = list(zip(scrut_vars, scrutinee_types))
            return self._compile_arms(scruts, list(expr.arms), vars_, dest)

        return self._lower_args(list(expr.scrutinees), vars_, with_scrutinees)

    def _compile_arms(
        self,
        scruts: List[Tuple[str, Optional[ast.LeanType]]],
        arms: List[ast.MatchArm],
        vars_: Dict[str, str],
        dest: Dest,
    ) -> ir.FnBody:
        if len(arms) == 1:
            return self._compile_arm(scruts, arms[0], vars_, dest, on_fail=None)
        fail_label = self.ctx.fresh("jp_arm")
        rest = self._compile_arms(scruts, arms[1:], vars_, dest)
        first = self._compile_arm(scruts, arms[0], vars_, dest, on_fail=fail_label)
        return ir.JDecl(fail_label, [], rest, first)

    def _compile_arm(
        self,
        scruts: List[Tuple[str, Optional[ast.LeanType]]],
        arm: ast.MatchArm,
        vars_: Dict[str, str],
        dest: Dest,
        on_fail: Optional[str],
    ) -> ir.FnBody:
        worklist: List[Tuple[str, Optional[ast.LeanType], ast.Pattern]] = [
            (svar, stype, pattern)
            for (svar, stype), pattern in zip(scruts, arm.patterns)
        ]
        return self._compile_worklist(worklist, dict(vars_), arm.body, dest, on_fail)

    def _fail_body(self, on_fail: Optional[str]) -> ir.FnBody:
        return ir.Jmp(on_fail, []) if on_fail is not None else ir.Unreachable()

    def _compile_worklist(
        self,
        worklist: List[Tuple[str, Optional[ast.LeanType], ast.Pattern]],
        vars_: Dict[str, str],
        body: ast.Expr,
        dest: Dest,
        on_fail: Optional[str],
    ) -> ir.FnBody:
        if not worklist:
            return self.lower_dest(body, vars_, dest)
        svar, stype, pattern = worklist[0]
        rest = worklist[1:]

        if isinstance(pattern, ast.PWild):
            return self._compile_worklist(rest, vars_, body, dest, on_fail)
        if isinstance(pattern, ast.PVar):
            vars_ = {**vars_, pattern.name: svar}
            return self._compile_worklist(rest, vars_, body, dest, on_fail)
        if isinstance(pattern, ast.PBool):
            ctor = "Bool.true" if pattern.value else "Bool.false"
            pattern = ast.PCtor(ctor, [])
            stype = ast.BoolType()
        if isinstance(pattern, ast.PCtor):
            sig = self.env.constructor(pattern.ctor)
            field_vars = [self.ctx.fresh("f") for _ in range(sig.arity)]
            inner_worklist = [
                (fv, ft, sp)
                for fv, ft, sp in zip(field_vars, sig.fields, pattern.subpatterns)
            ] + rest
            inner = self._compile_worklist(inner_worklist, vars_, body, dest, on_fail)
            # Bind the fields with projections, innermost first.
            for index in reversed(range(sig.arity)):
                inner = ir.Let(field_vars[index], ir.Proj(index, svar), inner)
            n_ctors = len(self.env.constructors_of(sig.type_name))
            default = self._fail_body(on_fail) if n_ctors > 1 else None
            return ir.Case(
                svar,
                [ir.CaseAlt(sig.tag, sig.qualified, inner)],
                default,
                sig.type_name,
            )
        if isinstance(pattern, ast.PLit):
            is_int = isinstance(stype, ast.IntType)
            dec_eq = "lean_int_dec_eq" if is_int else "lean_nat_dec_eq"
            lit_var = self.ctx.fresh("lit")
            eq_var = self.ctx.fresh("eq")
            inner = self._compile_worklist(rest, vars_, body, dest, on_fail)
            case = ir.Case(
                eq_var,
                [ir.CaseAlt(BOOL_TRUE_TAG, "Bool.true", inner)],
                self._fail_body(on_fail),
                "Bool",
            )
            return ir.Let(
                lit_var,
                ir.Lit(pattern.value),
                ir.Let(eq_var, ir.Call(dec_eq, [svar, lit_var]), case),
            )
        raise LoweringError(f"cannot compile pattern {pattern!r}")


_HOLE = _Hole()


def _attach(
    root: Optional[ir.FnBody], parent: Optional[ir.FnBody], part: ir.FnBody
) -> ir.FnBody:
    """Put ``part`` into the hole below ``parent``; return the spine's root."""
    if parent is None:
        return part
    if isinstance(parent, ir.Let):
        parent.body = part
    else:
        parent.jbody = part
    return root


def _hole_parent(part: ir.FnBody) -> ir.FnBody:
    """The node of ``part`` whose child is the hole.

    A value's continuation only ever sits in a ``let`` body or in the join
    body of a value join point, so the hole is found by following those
    two links through the code of one binding.
    """
    node = part
    while True:
        child = node.body if isinstance(node, ir.Let) else node.jbody
        if child is _HOLE:
            return node
        node = child


def lower_program(surface: ast.Program, env: Optional[GlobalEnv] = None) -> ir.Program:
    """Type-check (if needed) and lower a surface program to λpure."""
    if env is None:
        env = check_program(surface)
    return ProgramLowering(surface, env).lower()
