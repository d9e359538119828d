"""Interpreter for the final CFG-form MLIR module (the new backend's output).

After ``λrc → lp → rgn → cf`` lowering, every function consists of basic
blocks holding lp data operations (constructors, projections, closures,
reference counts), ``arith`` operations on machine integers, runtime calls
and ``cf``/``func`` terminators.  This interpreter executes that IR against
the simulated LEAN runtime, charging the shared cost model — it plays the
role LLVM-compiled native code plays in the paper's evaluation.

SSA values carry either *machine* integers (plain Python ints, produced by
``arith.constant``, ``lp.getlabel``, ``arith.cmpi`` ...) or *boxed* runtime
values (``!lp.t``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..resilience.budgets import ExecutionBudget
from .limits import recursion_limit

from ..dialects import arith, cf, lp
from ..dialects.builtin import ModuleOp
from ..dialects.func import CallOp, FuncOp, GetGlobalOp, ReturnOp, SetGlobalOp
from ..ir.core import Block, Operation, Value
from ..runtime import (
    RuntimeContext,
    RuntimeError_,
    CtorObject,
    call_builtin,
    extend_closure,
    is_builtin,
    make_closure,
    python_value,
    tag_of,
)
from .metrics import ExecutionMetrics, RunResult


class CfgInterpreterError(Exception):
    """Raised when the CFG module cannot be executed."""


class CfgInterpreter:
    """Executes a CFG-form module produced by the lp+rgn backend."""

    def __init__(
        self,
        module: ModuleOp,
        *,
        context: Optional[RuntimeContext] = None,
        metrics: Optional[ExecutionMetrics] = None,
        recursion_limit: int = 200000,
        budget: Optional[ExecutionBudget] = None,
    ):
        self.module = module
        self.ctx = context if context is not None else RuntimeContext()
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.globals: Dict[str, object] = {}
        self.functions: Dict[str, FuncOp] = {
            f.sym_name: f for f in module.functions()
        }
        #: Per-``cf.switch`` dispatch tables (value -> destination block),
        #: built on first execution of each switch.  The tree-walker is the
        #: bytecode VM's differential oracle, so its hot paths still matter.
        self._switch_tables: Dict[Operation, Dict[int, Block]] = {}
        self.recursion_limit = recursion_limit
        self.budget = budget

    # -- public API --------------------------------------------------------------
    def run_main(
        self,
        main: str = "main",
        args: Optional[List[object]] = None,
        *,
        check_heap: bool = True,
    ) -> RunResult:
        if self.budget is not None:
            self.budget.start()
        with recursion_limit(self.recursion_limit):
            result = self.call_function(main, list(args or []))
        snapshot = python_value(result) if result is not None else None
        if result is not None:
            self.ctx.release(result)
        if check_heap:
            self.ctx.heap.check_balanced()
        return RunResult(
            value=snapshot,
            metrics=self.metrics,
            heap_stats=self.ctx.heap.stats.as_dict(),
            output=list(self.ctx.output),
        )

    # -- calls ------------------------------------------------------------------------
    def call_function(self, name: str, args: List[object]) -> object:
        if name in self.functions and not self.functions[name].is_declaration:
            self.metrics.charge("call")
            return self._execute_function(self.functions[name], args)
        if is_builtin(name):
            self.metrics.charge("runtime_call")
            return call_builtin(self.ctx, name, args)
        raise CfgInterpreterError(f"call of unknown function @{name}")

    def _function_arity(self, name: str) -> int:
        func = self.functions.get(name)
        if func is None:
            raise CfgInterpreterError(f"pap of unknown function @{name}")
        return len(func.function_type.inputs)

    def _apply_closure(self, closure: object, args: List[object]) -> object:
        self.metrics.charge("apply")
        outcome = extend_closure(self.ctx.heap, closure, args)
        if not outcome.is_call:
            return outcome.closure
        result = self.call_function(outcome.call_fn, outcome.call_args)
        if outcome.extra_args:
            return self._apply_closure(result, outcome.extra_args)
        return result

    # -- function execution ----------------------------------------------------------------
    def _execute_function(self, func: FuncOp, args: List[object]) -> object:
        entry = func.entry_block
        if entry is None:
            raise CfgInterpreterError(f"function @{func.sym_name} has no body")
        if len(args) != len(entry.arguments):
            raise CfgInterpreterError(
                f"@{func.sym_name} called with {len(args)} arguments, "
                f"expected {len(entry.arguments)}"
            )
        env: Dict[Value, object] = dict(zip(entry.arguments, args))
        block: Block = entry
        budget = self.budget
        while True:
            if budget is not None:
                budget.charge()
            outcome = self._execute_block(block, env)
            kind = outcome[0]
            if kind == "return":
                return outcome[1]
            block, forwarded = outcome[1], outcome[2]
            env_update = dict(zip(block.arguments, forwarded))
            env.update(env_update)

    def _execute_block(self, block: Block, env: Dict[Value, object]):
        for op in block:
            result = self._execute_op(op, env)
            if result is not None:
                return result
        raise CfgInterpreterError("block fell through without a terminator")

    # -- operation execution --------------------------------------------------------------------
    def _execute_op(self, op: Operation, env: Dict[Value, object]):
        # Terminators -------------------------------------------------------
        if isinstance(op, ReturnOp):
            self.metrics.charge("return")
            value = env[op.operands[0]] if op.operands else None
            return ("return", value)
        if isinstance(op, cf.BranchOp):
            self.metrics.charge("jump")
            return ("branch", op.dest, [env[v] for v in op.dest_operands])
        if isinstance(op, cf.CondBranchOp):
            self.metrics.charge("branch")
            condition = env[op.condition]
            if condition:
                return ("branch", op.true_dest, [env[v] for v in op.true_operands])
            return ("branch", op.false_dest, [env[v] for v in op.false_operands])
        if isinstance(op, cf.SwitchOp):
            self.metrics.charge("branch")
            table = self._switch_tables.get(op)
            if table is None:
                # setdefault keeps the FIRST entry per value, preserving the
                # linear scan's semantics even on (unverified) duplicates.
                table = {}
                for value, dest in zip(op.case_values, op.case_dests):
                    table.setdefault(value, dest)
                self._switch_tables[op] = table
            dest = table.get(env[op.flag])
            if dest is None:
                dest = op.default_dest
            return ("branch", dest, [])
        if isinstance(op, cf.UnreachableOp):
            raise CfgInterpreterError("executed cf.unreachable")

        # lp data operations ------------------------------------------------
        if isinstance(op, lp.IntOp):
            self.metrics.charge("move")
            env[op.result()] = self.ctx.heap.alloc_int(op.value)
            return None
        if isinstance(op, lp.BigIntOp):
            self.metrics.charge("runtime_call")
            env[op.result()] = self.ctx.heap.alloc_int(op.value)
            return None
        if isinstance(op, lp.ConstructOp):
            self.metrics.charge("alloc_ctor" if op.operands else "move")
            env[op.result()] = self.ctx.heap.alloc_ctor(
                op.tag, [env[f] for f in op.operands]
            )
            return None
        if isinstance(op, lp.GetLabelOp):
            self.metrics.charge("getlabel")
            env[op.result()] = tag_of(env[op.operands[0]])
            return None
        if isinstance(op, lp.ProjectOp):
            self.metrics.charge("proj")
            value = env[op.operands[0]]
            if not isinstance(value, CtorObject):
                raise CfgInterpreterError(f"lp.project of non-constructor {value!r}")
            field = value.fields[op.index]
            self.ctx.heap.inc(field)
            self.metrics.charge("rc")
            env[op.result()] = field
            return None
        if isinstance(op, lp.PapOp):
            self.metrics.charge("alloc_closure")
            env[op.result()] = make_closure(
                self.ctx.heap,
                op.callee,
                self._function_arity(op.callee),
                [env[a] for a in op.operands],
            )
            return None
        if isinstance(op, lp.PapExtendOp):
            env[op.result()] = self._apply_closure(
                env[op.operands[0]], [env[a] for a in op.operands[1:]]
            )
            return None
        if isinstance(op, lp.IncOp):
            self.metrics.charge("rc")
            self.ctx.heap.inc(env[op.operands[0]], op.count)
            return None
        if isinstance(op, lp.DecOp):
            self.metrics.charge("rc")
            self.ctx.heap.dec(env[op.operands[0]], op.count)
            return None
        if isinstance(op, lp.ResetOp):
            self.metrics.charge("rc")
            env[op.result()] = self.ctx.heap.reset(env[op.operands[0]])
            return None
        if isinstance(op, lp.ReuseOp):
            token = env[op.operands[0]]
            fields = [env[f] for f in op.operands[1:]]
            if isinstance(token, CtorObject):
                self.metrics.charge("reuse")
            else:
                self.metrics.charge("alloc_ctor" if fields else "move")
            env[op.result()] = self.ctx.heap.reuse(token, op.tag, fields)
            return None

        # Calls and globals ---------------------------------------------------
        if isinstance(op, CallOp):
            args = [env[a] for a in op.operands]
            value = self.call_function(op.callee, args)
            if op.results:
                env[op.result()] = value
            return None
        if isinstance(op, GetGlobalOp):
            self.metrics.charge("global")
            env[op.result()] = self.globals.get(op.global_name)
            return None
        if isinstance(op, SetGlobalOp):
            self.metrics.charge("global")
            self.globals[op.global_name] = env[op.operands[0]]
            return None

        # arith ----------------------------------------------------------------
        if isinstance(op, arith.ConstantOp):
            self.metrics.charge("const")
            env[op.result()] = op.value
            return None
        if isinstance(op, arith.CmpIOp):
            self.metrics.charge("arith")
            env[op.result()] = arith.evaluate_cmpi(
                op.predicate, env[op.operands[0]], env[op.operands[1]]
            )
            return None
        if isinstance(op, arith.SelectOp):
            self.metrics.charge("arith")
            condition = env[op.operands[0]]
            env[op.result()] = env[op.operands[1]] if condition else env[op.operands[2]]
            return None
        if op.name in (
            arith.AddIOp.OP_NAME,
            arith.SubIOp.OP_NAME,
            arith.MulIOp.OP_NAME,
            arith.DivSIOp.OP_NAME,
            arith.RemSIOp.OP_NAME,
            arith.AndIOp.OP_NAME,
            arith.OrIOp.OP_NAME,
            arith.XorIOp.OP_NAME,
        ):
            self.metrics.charge("arith")
            env[op.result()] = arith.evaluate_binary(
                op.name, env[op.operands[0]], env[op.operands[1]]
            )
            return None
        if isinstance(op, (arith.TruncIOp, arith.ExtUIOp)):
            self.metrics.charge("arith")
            env[op.result()] = env[op.operands[0]]
            return None

        raise CfgInterpreterError(f"cannot interpret operation {op.name}")
