"""λrc interpreter — executes the *baseline* backend's output.

The current LEAN compiler lowers λrc to C with a thin, direct mapping
(constructors become runtime allocations, cases become ``switch`` statements,
join points become labels/gotos, ``inc``/``dec`` become runtime calls).  We
model the execution of that generated C by interpreting λrc itself against
the simulated runtime, charging the shared cost model for every dynamic
event.  The C source the baseline would emit is produced separately by
:mod:`repro.backend.c_backend` (as an artifact); its execution semantics are
exactly this interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..resilience.budgets import ExecutionBudget
from .limits import recursion_limit

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
    Reset,
    Ret,
    Reuse,
    Unreachable,
)
from ..runtime import (
    CtorObject,
    RuntimeContext,
    RuntimeError_,
    Value,
    call_builtin,
    extend_closure,
    is_builtin,
    make_closure,
    python_value,
    tag_of,
)
from .metrics import ExecutionMetrics, RunResult


class RcInterpreter:
    """Executes a λrc program (with inserted reference counts)."""

    def __init__(
        self,
        program: Program,
        *,
        context: Optional[RuntimeContext] = None,
        metrics: Optional[ExecutionMetrics] = None,
        recursion_limit: int = 200000,
        budget: Optional[ExecutionBudget] = None,
    ):
        self.program = program
        self.ctx = context if context is not None else RuntimeContext()
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.recursion_limit = recursion_limit
        self.budget = budget

    # -- public API ------------------------------------------------------------
    def run_main(self, args: Optional[List[Value]] = None, *, check_heap: bool = True) -> RunResult:
        if self.budget is not None:
            self.budget.start()
        with recursion_limit(self.recursion_limit):
            result = self.call(self.program.main, list(args or []))
        snapshot = python_value(result)
        # The driver owns the returned value; release it and check balance.
        self.ctx.release(result)
        if check_heap:
            self.ctx.heap.check_balanced()
        return RunResult(
            value=snapshot,
            metrics=self.metrics,
            heap_stats=self.ctx.heap.stats.as_dict(),
            output=list(self.ctx.output),
        )

    # -- calls -----------------------------------------------------------------------
    def call(self, fn_name: str, args: List[Value]) -> Value:
        if is_builtin(fn_name):
            self.metrics.charge("runtime_call")
            return call_builtin(self.ctx, fn_name, args)
        fn = self.program.functions.get(fn_name)
        if fn is None:
            raise RuntimeError_(f"unknown function {fn_name}")
        if len(args) != fn.arity:
            raise RuntimeError_(
                f"calling {fn_name} with {len(args)} arguments, expected {fn.arity}"
            )
        self.metrics.charge("call")
        if self.budget is not None:
            self.budget.charge()
        env: Dict[str, Value] = dict(zip(fn.params, args))
        return self._eval_body(fn.body, env, {})

    def _apply_closure(self, closure: Value, args: List[Value]) -> Value:
        self.metrics.charge("apply")
        outcome = extend_closure(self.ctx.heap, closure, args)
        if not outcome.is_call:
            return outcome.closure
        result = self.call(outcome.call_fn, outcome.call_args)
        if outcome.extra_args:
            return self._apply_closure(result, outcome.extra_args)
        return result

    # -- expressions --------------------------------------------------------------------
    def _eval_expr(self, expr, env: Dict[str, Value]) -> Value:
        if isinstance(expr, Lit):
            self.metrics.charge("move")
            return self.ctx.heap.alloc_int(expr.value)
        if isinstance(expr, Ctor):
            if expr.args:
                self.metrics.charge("alloc_ctor")
            else:
                self.metrics.charge("move")
            return self.ctx.heap.alloc_ctor(expr.tag, [env[a] for a in expr.args])
        if isinstance(expr, Proj):
            self.metrics.charge("proj")
            value = env[expr.var]
            if isinstance(value, CtorObject):
                field = value.fields[expr.index]
            else:
                raise RuntimeError_(f"projection from non-constructor {value!r}")
            self.ctx.heap.inc(field)
            self.metrics.charge("rc")
            return field
        if isinstance(expr, Reset):
            # One RC event: either releases the fields of a unique cell or
            # performs the decrement the replaced ``dec`` would have.
            self.metrics.charge("rc")
            return self.ctx.heap.reset(env[expr.var])
        if isinstance(expr, Reuse):
            token = env[expr.token]
            fields = [env[a] for a in expr.args]
            if isinstance(token, CtorObject):
                self.metrics.charge("reuse")
            else:
                self.metrics.charge("alloc_ctor" if fields else "move")
            return self.ctx.heap.reuse(token, expr.tag, fields)
        if isinstance(expr, Call):
            return self.call(expr.fn, [env[a] for a in expr.args])
        if isinstance(expr, PAp):
            self.metrics.charge("alloc_closure")
            arity = self._arity_of(expr.fn)
            return make_closure(self.ctx.heap, expr.fn, arity, [env[a] for a in expr.args])
        if isinstance(expr, App):
            return self._apply_closure(env[expr.closure], [env[a] for a in expr.args])
        raise RuntimeError_(f"unknown expression {expr!r}")

    def _arity_of(self, fn_name: str) -> int:
        fn = self.program.functions.get(fn_name)
        if fn is not None:
            return fn.arity
        raise RuntimeError_(f"pap of unknown function {fn_name}")

    # -- bodies ------------------------------------------------------------------------------
    def _eval_body(
        self,
        body: FnBody,
        env: Dict[str, Value],
        joins: Dict[str, Tuple],
    ) -> Value:
        while True:
            if isinstance(body, Let):
                env = dict(env)
                env[body.var] = self._eval_expr(body.expr, env)
                body = body.body
                continue
            if isinstance(body, Inc):
                self.metrics.charge("rc")
                self.ctx.heap.inc(env[body.var], body.count)
                body = body.body
                continue
            if isinstance(body, Dec):
                self.metrics.charge("rc")
                self.ctx.heap.dec(env[body.var], body.count)
                body = body.body
                continue
            if isinstance(body, Ret):
                self.metrics.charge("return")
                return env[body.var]
            if isinstance(body, Case):
                self.metrics.charge("getlabel")
                # A compiled switch performs a tag comparison (or jump-table
                # index check) before branching; charge it like the cmpi the
                # MLIR pipeline makes explicit.
                self.metrics.charge("arith")
                self.metrics.charge("branch")
                tag = tag_of(env[body.var])
                chosen = None
                for alt in body.alts:
                    if alt.tag == tag:
                        chosen = alt.body
                        break
                if chosen is None:
                    chosen = body.default
                if chosen is None:
                    raise RuntimeError_(
                        f"no alternative for tag {tag} in case {body.var}"
                    )
                # A branch is a control transfer: one budget step, as the
                # VM's ``case`` and the CFG engines' branches take.
                if self.budget is not None:
                    self.budget.charge()
                body = chosen
                continue
            if isinstance(body, JDecl):
                joins = dict(joins)
                joins[body.label] = (body.params, body.jbody, env, joins)
                body = body.rest
                continue
            if isinstance(body, Jmp):
                self.metrics.charge("jump")
                if self.budget is not None:
                    self.budget.charge()
                params, jbody, jenv, jjoins = joins[body.label]
                arg_values = [env[a] for a in body.args]
                env = dict(jenv)
                for param, value in zip(params, arg_values):
                    env[param] = value
                joins = jjoins
                body = jbody
                continue
            if isinstance(body, Unreachable):
                raise RuntimeError_("executed an unreachable program point")
            raise RuntimeError_(f"unknown body node {body!r}")


def run_rc_program(program: Program, *, check_heap: bool = True) -> RunResult:
    """Convenience wrapper: execute ``program.main`` and return the result."""
    return RcInterpreter(program).run_main(check_heap=check_heap)
