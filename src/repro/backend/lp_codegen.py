"""λrc → lp code generation (§III of the paper).

Each λrc function becomes a ``func.func`` over the boxed type ``!lp.t``;
λrc's constructs map directly onto the lp dialect:

==============  ==========================================
λrc             lp
==============  ==========================================
``lit`` (small) ``lp.int``
``lit`` (big)   ``lp.bigint``
``ctor``        ``lp.construct``
``proj``        ``lp.project``
``call``        ``func.call`` (user functions and runtime routines alike)
``pap``         ``lp.pap``
``app``         ``lp.papextend``
``case``        ``lp.getlabel`` + ``lp.switch``
``jdecl/jmp``   ``lp.joinpoint`` / ``lp.jump``
``inc/dec``     ``lp.inc`` / ``lp.dec``
``ret``         ``lp.return``
==============  ==========================================
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dialects import lp as lp_dialect
from ..dialects.builtin import ModuleOp
from ..dialects.func import CallOp, FuncOp
from ..ir.builder import Builder, InsertionPoint
from ..ir.core import Block, Value
from .lowering_context import LoweringContext
from ..lambda_pure.ir import (
    App,
    Call,
    Case,
    Ctor,
    Dec,
    Expr,
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
    Reset,
    Ret,
    Reuse,
    Unreachable,
)


class CodegenError(Exception):
    """Raised when a λrc construct cannot be emitted."""


class LpCodegen:
    """Generates an MLIR module in the lp dialect from a λrc program.

    Module-scale structures (interned boxed function types, the symbol
    table) live in the :class:`LoweringContext`, which is built once and
    reused across functions — and, when a compilation session provides one,
    across programs.
    """

    def __init__(self, program: Program, context: Optional[LoweringContext] = None):
        self.program = program
        self.context = context if context is not None else LoweringContext()

    # -- entry point -------------------------------------------------------------
    def generate(self) -> ModuleOp:
        module = ModuleOp("lean_module")
        self.context.begin_module()
        for fn in self.program.functions.values():
            func_op = self.generate_function(fn)
            self.context.register_symbol(func_op)
            module.append(func_op)
        return module

    def generate_function(self, fn: Function) -> FuncOp:
        fn_type = self.context.boxed_fn_type(fn.arity)
        func_op = FuncOp(fn.name, fn_type, arg_names=list(fn.params))
        entry = func_op.entry_block
        env: Dict[str, Value] = {
            param: arg for param, arg in zip(fn.params, entry.arguments)
        }
        self._gen_body(fn.body, entry, env)
        return func_op

    # -- expressions -------------------------------------------------------------------
    def _gen_expr(
        self, builder: Builder, expr: Expr, env: Dict[str, Value], tail: bool = False
    ) -> Value:
        if isinstance(expr, Lit):
            if expr.is_big:
                return builder.create(lp_dialect.BigIntOp, str(expr.value)).result()
            return builder.create(lp_dialect.IntOp, expr.value).result()
        if isinstance(expr, Ctor):
            fields = [env[a] for a in expr.args]
            return builder.create(lp_dialect.ConstructOp, expr.tag, fields).result()
        if isinstance(expr, Proj):
            return builder.create(lp_dialect.ProjectOp, env[expr.var], expr.index).result()
        if isinstance(expr, Reset):
            return builder.create(lp_dialect.ResetOp, env[expr.var]).result()
        if isinstance(expr, Reuse):
            fields = [env[a] for a in expr.args]
            return builder.create(
                lp_dialect.ReuseOp, env[expr.token], expr.tag, fields
            ).result()
        if isinstance(expr, Call):
            args = [env[a] for a in expr.args]
            # A call of a LEAN function whose result is returned is a
            # guaranteed tail call (§III-E); a runtime builtin has no frame
            # for the callee to reuse.
            return builder.create(
                CallOp, expr.fn, args, self.context.box_arg_types(1),
                musttail=tail and expr.fn in self.program.functions,
            ).result()
        if isinstance(expr, PAp):
            args = [env[a] for a in expr.args]
            return builder.create(lp_dialect.PapOp, expr.fn, args).result()
        if isinstance(expr, App):
            args = [env[a] for a in expr.args]
            return builder.create(
                lp_dialect.PapExtendOp, env[expr.closure], args
            ).result()
        raise CodegenError(f"cannot generate code for expression {expr!r}")

    # -- bodies -------------------------------------------------------------------------------
    def _gen_body(self, body: FnBody, block: Block, env: Dict[str, Value]) -> None:
        """Emit ``body`` into ``block``.  ``env`` belongs to this body alone
        (``case`` and join points hand each region a copy), so its ``let``
        spine extends it in place."""
        builder = Builder(InsertionPoint.at_end(block))
        while True:
            if isinstance(body, Let):
                tail = isinstance(body.body, Ret) and body.body.var == body.var
                value = self._gen_expr(builder, body.expr, env, tail)
                value.name_hint = body.var
                env[body.var] = value
                body = body.body
                continue
            if isinstance(body, Inc):
                builder.create(lp_dialect.IncOp, env[body.var], body.count)
                body = body.body
                continue
            if isinstance(body, Dec):
                builder.create(lp_dialect.DecOp, env[body.var], body.count)
                body = body.body
                continue
            if isinstance(body, Ret):
                builder.create(lp_dialect.ReturnOp, env[body.var])
                return
            if isinstance(body, Unreachable):
                builder.create(lp_dialect.UnreachableOp)
                return
            if isinstance(body, Case):
                self._gen_case(builder, body, env)
                return
            if isinstance(body, JDecl):
                self._gen_joinpoint(builder, body, env)
                return
            if isinstance(body, Jmp):
                args = [env[a] for a in body.args]
                builder.create(lp_dialect.JumpOp, body.label, args)
                return
            raise CodegenError(f"cannot generate code for body {body!r}")

    def _gen_case(self, builder: Builder, case: Case, env: Dict[str, Value]) -> None:
        label = builder.create(lp_dialect.GetLabelOp, env[case.var]).result()
        case_values = [alt.tag for alt in case.alts]
        with_default = case.default is not None
        switch = builder.create(
            lp_dialect.SwitchOp, label, case_values, with_default=with_default
        )
        for alt, region in zip(case.alts, switch.case_regions):
            self._gen_body(alt.body, region.blocks[0], dict(env))
        if with_default:
            self._gen_body(case.default, switch.default_block, dict(env))

    def _gen_joinpoint(self, builder: Builder, jdecl: JDecl, env: Dict[str, Value]) -> None:
        joinpoint = builder.create(
            lp_dialect.JoinPointOp,
            jdecl.label,
            self.context.box_arg_types(len(jdecl.params)),
        )
        body_block = joinpoint.body_block
        body_env = dict(env)
        for param, arg in zip(jdecl.params, body_block.arguments):
            arg.name_hint = param
            body_env[param] = arg
        self._gen_body(jdecl.jbody, body_block, body_env)
        self._gen_body(jdecl.rest, joinpoint.pre_block, dict(env))


def generate_lp_module(
    program: Program, context: Optional[LoweringContext] = None
) -> ModuleOp:
    """Generate the lp-dialect MLIR module for a λrc program."""
    return LpCodegen(program, context).generate()
