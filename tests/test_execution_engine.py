"""Tests for the register-based bytecode execution engine.

Covers the bytecode compilers (one unit test per operation kind, for both
the CFG-form MLIR input and the λrc input), the VM's differential
equivalence against the tree-walking oracles (results, execution metrics
and heap statistics must be *identical* — the figure suite is diffed), the
session-level bytecode cache and the engine-selection plumbing.
"""

import functools
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.pipeline import (
    BaselineCompiler,
    CompilationSession,
    MlirCompiler,
    PipelineOptions,
    run_baseline,
    run_mlir,
    run_reference,
)
from repro.dialects import arith, cf, lp
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import CallOp, FuncOp, ReturnOp
from repro.eval.benchmarks import benchmark_sources
from repro.eval.harness import measurement_options
from repro.eval.testsuite import regression_programs
from repro.fuzz import run_matrix
from repro.fuzz.corpus import load_corpus
from repro.interp.bytecode import (
    OP_BADCALL,
    OP_BIGINT,
    OP_CALL,
    OP_CASE,
    OP_CMP,
    OP_CONDBR,
    OP_CONST,
    OP_CONSTRUCT,
    OP_DEC,
    OP_GETLABEL,
    OP_INC,
    OP_INT,
    OP_JMP,
    OP_PAP,
    OP_PAPEXTEND,
    OP_PROJ,
    OP_RESET,
    OP_RET,
    OP_REUSE,
    OP_RTCALL,
    OP_SWITCH,
    OP_UNREACHABLE,
    OP_CONST_CMP,
    OP_CONST_CMP_CONDBR,
    OP_DEC_DEC,
    OP_DEC_INC,
    OP_GETLABEL_CMP_CONDBR,
    OP_INC_RTCALL,
    OP_INT_INC,
    OP_PROJ3,
    OP_PROJ4,
    OP_PROJ_CALL,
    OP_PROJ_PROJ,
    OP_RTCALL_CMP_BR,
    OP_TAILCALL,
    FUSED_OPCODE_BASES,
    FUSION_RULES,
    OPCODE_NAMES,
    SCALAR_RTCALLS,
    CHAIN_LIMIT,
    BytecodeError,
    BytecodeFunction,
    BytecodeProgram,
    EXECUTION_ENGINES,
    VirtualMachine,
    base_frequencies,
    compile_cfg_module,
    compile_rc_program,
    fuse_code,
    fuse_program,
)
from repro.interp.bytecode import _TARGET_FIELDS, _jump_targets, _remap_targets
from repro.interp.bytecode import _CMP_FNS
from repro.interp.cfg_interp import CfgInterpreter, CfgInterpreterError
from repro.interp.rc_interp import RcInterpreter
from repro.ir import Builder, FunctionType, InsertionPoint
from repro.ir.core import Block
from repro.ir.types import box, i1, i64
from repro.lambda_pure import ir as rc_ir
from repro.rc_opt import RC_MODES
from repro.resilience.budgets import ExecutionBudget
from repro.resilience.faults import FaultPlan, fault_hit, fault_plan
from repro.runtime import (
    BUILTINS,
    BigIntObject,
    RuntimeContext,
    RuntimeError_,
    python_value,
)
from repro.telemetry import telemetry_session

REGRESSION = regression_programs()
REGRESSION_BY_NAME = {p.name: p for p in REGRESSION}

#: A 1000-deep continuation chain: each application of ``k`` calls the
#: closure it captured.
DEEP_CONTINUATION = (
    "def cps (n : Nat) (k : Nat -> Nat) : Nat :=\n"
    "  if n == 0 then k 0 else cps (n - 1) (fun (r : Nat) => k (r + 1))\n"
    "def main : Nat := cps 1000 (fun (r : Nat) => r)"
)


def assert_identical_runs(tree, vm):
    """The engine contract: same value, metrics, heap stats and output."""
    assert vm.value == tree.value
    assert vm.metrics.counts == tree.metrics.counts
    assert vm.heap_stats == tree.heap_stats
    assert vm.output == tree.output


def run_unfused(run, source):
    """``run`` (:func:`run_mlir` or :func:`run_baseline`) of ``source`` on
    the VM over unfused bytecode — the oracle fused runs must match."""
    if run is run_mlir:
        module = MlirCompiler().compile(source).cfg_module
        program = compile_cfg_module(module, fuse=False)
    else:
        rc = BaselineCompiler().compile(source).rc_program
        program = compile_rc_program(rc, fuse=False)
    return VirtualMachine(program).run_main()


# ---------------------------------------------------------------------------
# Bytecode compilation units: the CFG flavour
# ---------------------------------------------------------------------------


def cfg_function(inputs=(), results=(box,), name="f"):
    module = ModuleOp()
    func = FuncOp(name, FunctionType(list(inputs), list(results)))
    module.append(func)
    return module, func, Builder(InsertionPoint.at_end(func.entry_block))


def opcodes(bytecode: BytecodeProgram, name: str = "f"):
    return [ins[0] for ins in bytecode.functions[name].code]


class TestCfgCompilation:
    def test_int_and_return(self):
        module, func, builder = cfg_function()
        value = builder.create(lp.IntOp, 7)
        builder.create(ReturnOp, [value.result()])
        compiled = compile_cfg_module(module, fuse=False)
        assert compiled.functions["f"].code == [(OP_INT, 0, 7), (OP_RET, 0)]

    def test_bigint(self):
        module, func, builder = cfg_function()
        value = builder.create(lp.BigIntOp, str(10**30))
        builder.create(ReturnOp, [value.result()])
        compiled = compile_cfg_module(module, fuse=False)
        assert compiled.functions["f"].code[0] == (OP_BIGINT, 0, 10**30)

    def test_construct_getlabel_project(self):
        module, func, builder = cfg_function()
        field = builder.create(lp.IntOp, 3)
        ctor = builder.create(lp.ConstructOp, 1, [field.result()])
        empty = builder.create(lp.ConstructOp, 2, [])
        label = builder.create(lp.GetLabelOp, ctor.result())
        proj = builder.create(lp.ProjectOp, ctor.result(), 0)
        builder.create(ReturnOp, [proj.result()])
        code = compile_cfg_module(module, fuse=False).functions["f"].code
        assert code[1] == (OP_CONSTRUCT, 1, 1, (0,), "alloc_ctor")
        assert code[2] == (OP_CONSTRUCT, 2, 2, (), "move")
        assert code[3] == (OP_GETLABEL, 3, 1)
        assert code[4] == (OP_PROJ, 4, 1, 0)

    def test_rc_and_reuse_ops(self):
        module, func, builder = cfg_function(inputs=(box,))
        argument = func.entry_block.arguments[0]
        builder.create(lp.IncOp, argument, 2)
        builder.create(lp.DecOp, argument, 1)
        token = builder.create(lp.ResetOp, argument)
        reused = builder.create(lp.ReuseOp, token.result(), 4, [argument])
        builder.create(ReturnOp, [reused.result()])
        code = compile_cfg_module(module, fuse=False).functions["f"].code
        assert code[0] == (OP_INC, 0, 2)
        assert code[1] == (OP_DEC, 0, 1)
        assert code[2] == (OP_RESET, 1, 0)
        assert code[3] == (OP_REUSE, 2, 1, 4, (0,))

    def test_closures(self):
        module, func, builder = cfg_function(inputs=(box,), name="g")
        helper = FuncOp("callee", FunctionType([box, box], [box]))
        inner = Builder(InsertionPoint.at_end(helper.entry_block))
        inner.create(ReturnOp, [helper.entry_block.arguments[0]])
        module.append(helper)
        argument = func.entry_block.arguments[0]
        pap = builder.create(lp.PapOp, "callee", [argument])
        missing = builder.create(lp.PapOp, "nowhere", [])
        extended = builder.create(lp.PapExtendOp, pap.result(), [argument])
        builder.create(ReturnOp, [extended.result()])
        code = compile_cfg_module(module, fuse=False).functions["g"].code
        assert code[0] == (OP_PAP, 1, "callee", 2, (0,))
        assert code[1] == (OP_PAP, 2, "nowhere", None, ())
        assert code[2] == (OP_PAPEXTEND, 3, 1, (0,))

    def test_call_resolution(self):
        module, func, builder = cfg_function(inputs=(box,))
        callee = FuncOp("known", FunctionType([box], [box]))
        inner = Builder(InsertionPoint.at_end(callee.entry_block))
        inner.create(ReturnOp, [callee.entry_block.arguments[0]])
        module.append(callee)
        declaration = FuncOp(
            "lean_nat_add", FunctionType([box, box], [box]),
            create_entry_block=False,
        )
        module.append(declaration)
        argument = func.entry_block.arguments[0]
        direct = builder.create(CallOp, "known", [argument], [box])
        runtime = builder.create(
            CallOp, "lean_nat_add", [argument, argument], [box]
        )
        builder.create(CallOp, "missing_fn", [], [])
        builder.create(ReturnOp, [runtime.result()])
        compiled = compile_cfg_module(module, fuse=False)
        code = compiled.functions["f"].code
        assert code[0] == (OP_CALL, 1, compiled.functions["known"], (0,))
        assert code[1] == (OP_RTCALL, 2, "lean_nat_add", (0, 0))
        assert code[2] == (OP_BADCALL, "missing_fn")
        assert "lean_nat_add" not in compiled.functions  # declarations skipped

    def test_arith(self):
        module, func, builder = cfg_function(results=(i1,))
        one = builder.create(arith.ConstantOp, 1)
        two = builder.create(arith.ConstantOp, 2)
        compared = builder.create(arith.CmpIOp, "eq", one.result(), two.result())
        builder.create(ReturnOp, [compared.result()])
        code = compile_cfg_module(module, fuse=False).functions["f"].code
        assert code[0] == (OP_CONST, 0, 1)
        assert code[1] == (OP_CONST, 1, 2)
        assert code[2][0] == OP_CMP and code[2][1:2] + code[2][3:] == (2, 0, 1)
        assert code[2][2](1, 2) == 0 and code[2][2](2, 2) == 1

    def test_branches_and_switch(self):
        module, func, builder = cfg_function(inputs=(i1,), results=(i64,))
        condition = func.entry_block.arguments[0]
        then_block = Block([i64])
        exit_block = Block([i64])
        other_block = Block()
        for block in (then_block, exit_block, other_block):
            func.body.add_block(block)
        one = builder.create(arith.ConstantOp, 1)
        builder.create(
            cf.CondBranchOp, condition, then_block, exit_block,
            [one.result()], [one.result()],
        )
        then_builder = Builder(InsertionPoint.at_end(then_block))
        then_builder.create(
            cf.SwitchOp, then_block.arguments[0], other_block,
            [3, 5], [exit_block, exit_block],
        )
        exit_builder = Builder(InsertionPoint.at_end(exit_block))
        exit_builder.create(ReturnOp, [exit_block.arguments[0]])
        other_builder = Builder(InsertionPoint.at_end(other_block))
        other_builder.create(cf.UnreachableOp)
        code = compile_cfg_module(module, fuse=False).functions["f"].code
        condbr = code[1]
        assert condbr[0] == OP_CONDBR and condbr[1] == 0
        switch_pc, ret_pc = condbr[2], condbr[5]
        assert code[switch_pc][0] == OP_SWITCH
        assert code[switch_pc][2] == {3: ret_pc, 5: ret_pc}
        unreachable_pc = code[switch_pc][3]
        assert code[unreachable_pc][0] == OP_UNREACHABLE
        assert code[ret_pc][0] == OP_RET

    def test_unconditional_branch_forwards_arguments(self):
        module, func, builder = cfg_function(results=(i64,))
        target = Block([i64])
        func.body.add_block(target)
        one = builder.create(arith.ConstantOp, 41)
        builder.create(cf.BranchOp, target, [one.result()])
        target_builder = Builder(InsertionPoint.at_end(target))
        target_builder.create(ReturnOp, [target.arguments[0]])
        code = compile_cfg_module(module, fuse=False).functions["f"].code
        constant_reg = code[0][1]
        assert code[1][0] == OP_JMP
        assert code[1][2] == (constant_reg,)  # forwards the constant ...
        assert len(code[1][3]) == 1           # ... into the block argument


# ---------------------------------------------------------------------------
# Bytecode compilation units: the λrc flavour
# ---------------------------------------------------------------------------


def rc_program(body, params=(), name="main", extra=()):
    program = rc_ir.Program()
    program.add_function(rc_ir.Function(name, list(params), body))
    for fn in extra:
        program.add_function(fn)
    return program


class TestRcCompilation:
    def test_let_literal_ret(self):
        body = rc_ir.Let("x", rc_ir.Lit(5), rc_ir.Ret("x"))
        compiled = compile_rc_program(rc_program(body), fuse=False)
        assert compiled.flavor == "rc"
        assert compiled.functions["main"].code == [(OP_INT, 0, 5), (OP_RET, 0)]

    def test_every_expression_kind(self):
        body = rc_ir.Let(
            "x", rc_ir.Lit(1),
            rc_ir.Let(
                "c", rc_ir.Ctor(2, ["x"]),
                rc_ir.Let(
                    "p", rc_ir.Proj(0, "c"),
                    rc_ir.Let(
                        "t", rc_ir.Reset("c"),
                        rc_ir.Let(
                            "r", rc_ir.Reuse("t", 3, ["p"]),
                            rc_ir.Let(
                                "s", rc_ir.Call("lean_nat_add", ["x", "x"]),
                                rc_ir.Let(
                                    "f", rc_ir.PAp("helper", ["s"]),
                                    rc_ir.Let(
                                        "a", rc_ir.App("f", ["r"]),
                                        rc_ir.Ret("a"),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        )
        helper = rc_ir.Function("helper", ["u", "v"], rc_ir.Ret("u"))
        compiled = compile_rc_program(rc_program(body, extra=[helper]), fuse=False)
        kinds = [ins[0] for ins in compiled.functions["main"].code]
        assert kinds == [
            OP_INT, OP_CONSTRUCT, OP_PROJ, OP_RESET, OP_REUSE,
            OP_RTCALL, OP_PAP, OP_PAPEXTEND, OP_RET,
        ]
        pap = compiled.functions["main"].code[6]
        assert pap[2] == "helper" and pap[3] == 2

    def test_inc_dec_and_case(self):
        body = rc_ir.Inc(
            "n",
            rc_ir.Dec(
                "n",
                rc_ir.Case(
                    "n",
                    alts=[rc_ir.CaseAlt(0, "zero", rc_ir.Ret("n"))],
                    default=rc_ir.Unreachable(),
                ),
                count=1,
            ),
            count=2,
        )
        compiled = compile_rc_program(rc_program(body, params=("n",)), fuse=False)
        code = compiled.functions["main"].code
        assert code[0] == (OP_INC, 0, 2)
        assert code[1] == (OP_DEC, 0, 1)
        assert code[2][0] == OP_CASE and code[2][1] == 0
        assert code[code[2][2][0]][0] == OP_RET
        assert code[code[2][3]][0] == OP_UNREACHABLE

    def test_join_point_becomes_jump(self):
        body = rc_ir.JDecl(
            "j", ["a"], rc_ir.Ret("a"),
            rc_ir.Let("x", rc_ir.Lit(9), rc_ir.Jmp("j", ["x"])),
        )
        compiled = compile_rc_program(rc_program(body), fuse=False)
        code = compiled.functions["main"].code
        jump = next(ins for ins in code if ins[0] == OP_JMP)
        assert code[jump[1]][0] == OP_RET
        assert jump[2] != jump[3]  # argument register copied into the param slot

    def test_shadowing_after_join_declaration(self):
        # let x := 1; jdecl j() := ret x; let x := 2; jmp j()
        # The tree-walker restores the captured environment on the jump; the
        # compiler must alpha-rename the second x onto a fresh register so
        # the join body still reads 1.
        body = rc_ir.Let(
            "x", rc_ir.Lit(1),
            rc_ir.JDecl(
                "j", [], rc_ir.Ret("x"),
                rc_ir.Let("x", rc_ir.Lit(2), rc_ir.Jmp("j", [])),
            ),
        )
        program = rc_program(body)
        tree = RcInterpreter(program).run_main()
        vm = VirtualMachine(compile_rc_program(program)).run_main()
        assert tree.value == vm.value == 1

    def test_self_recursive_join_loop(self):
        # jdecl loop(i, acc) := case i of 0 => ret acc | _ => jmp loop(i-1,…)
        body = rc_ir.JDecl(
            "loop", ["i", "acc"],
            rc_ir.Case(
                "i",
                alts=[rc_ir.CaseAlt(0, "zero", rc_ir.Ret("acc"))],
                default=rc_ir.Let(
                    "one", rc_ir.Lit(1),
                    rc_ir.Let(
                        "i2", rc_ir.Call("lean_nat_sub", ["i", "one"]),
                        rc_ir.Let(
                            "acc2", rc_ir.Call("lean_nat_add", ["acc", "i"]),
                            rc_ir.Jmp("loop", ["i2", "acc2"]),
                        ),
                    ),
                ),
            ),
            rc_ir.Let(
                "n", rc_ir.Lit(10),
                rc_ir.Let("z", rc_ir.Lit(0), rc_ir.Jmp("loop", ["n", "z"])),
            ),
        )
        program = rc_program(body)
        tree = RcInterpreter(program).run_main()
        vm = VirtualMachine(compile_rc_program(program)).run_main()
        assert_identical_runs(tree, vm)
        assert vm.value == 55


# ---------------------------------------------------------------------------
# VM error behaviour
# ---------------------------------------------------------------------------


class TestVmErrors:
    def test_unknown_call_raises_flavor_error(self):
        body = rc_ir.Let("x", rc_ir.Call("nowhere", []), rc_ir.Ret("x"))
        with pytest.raises(RuntimeError_, match="unknown function"):
            VirtualMachine(compile_rc_program(rc_program(body))).run_main()

    def test_pap_of_unknown_function_raises(self):
        body = rc_ir.Let("x", rc_ir.PAp("nowhere", []), rc_ir.Ret("x"))
        with pytest.raises(RuntimeError_, match="pap of unknown function"):
            VirtualMachine(compile_rc_program(rc_program(body))).run_main()

    def test_unreachable_raises(self):
        module, func, builder = cfg_function(name="main")
        builder.create(cf.UnreachableOp)
        with pytest.raises(CfgInterpreterError, match="cf.unreachable"):
            VirtualMachine(compile_cfg_module(module)).run_main()

    @pytest.mark.parametrize("line", [
        '%1 = "arith.addi"(%0, %0) : (i64, i64) -> i64',
        '%1 = "arith.trunci"(%0) : (i64) -> i64',
        '%1 = "arith.select"(%c, %0, %0) : (i1, i64, i64) -> i64',
    ], ids=["addi", "trunci", "select"])
    def test_op_no_compile_emits_fails_in_both_executors(self, line):
        # Arithmetic ops are not in the arith dialect, so they parse as
        # generic ops; arith.select is lowered by rgn→cf and has no
        # execution path.  Either executor refuses, naming the op.
        from repro.ir.parser import parse_module

        name = line.split('"')[1]
        module = parse_module(
            '"builtin.module"() ({\n^bb0:\n  "func.func"() ({\n  ^bb1:\n'
            '    %0 = "arith.constant"() {value = 1 : i64} : () -> i64\n'
            '    %c = "arith.cmpi"(%0, %0) {predicate = "eq"} : (i64, i64) -> i1\n'
            f"    {line}\n"
            '    "func.return"(%1) : (i64) -> ()\n'
            '  }) {function_type = () -> i64, sym_name = "main"} : () -> ()\n'
            "}) : () -> ()\n"
        )
        with pytest.raises(BytecodeError, match=f"cannot compile operation {name}"):
            compile_cfg_module(module)
        with pytest.raises(
            CfgInterpreterError, match=f"cannot interpret operation {name}"
        ):
            CfgInterpreter(module).run_main()

    def test_cmpi_predicate_is_eq_only(self):
        one = arith.ConstantOp(1)
        with pytest.raises(ValueError, match="unknown cmpi predicate 'slt'"):
            arith.CmpIOp("slt", one.result(), one.result())
        with pytest.raises(ValueError, match="unknown cmpi predicate 'ult'"):
            arith.evaluate_cmpi("ult", -1, 2)

    def test_parsed_unknown_cmpi_predicate_fails_in_both_executors(self):
        # The parser skips CmpIOp's constructor check and only the verifier
        # rejects the predicate, so an unverified module reaches both
        # executors: compiling it fails as evaluating it does.
        from repro.ir.parser import parse_module

        module = parse_module(
            '"builtin.module"() ({\n^bb0:\n  "func.func"() ({\n  ^bb1:\n'
            '    %0 = "arith.constant"() {value = 1 : i64} : () -> i64\n'
            '    %c = "arith.cmpi"(%0, %0) {predicate = "slt"} : (i64, i64) -> i1\n'
            '    "func.return"(%c) : (i1) -> ()\n'
            '  }) {function_type = () -> i1, sym_name = "main"} : () -> ()\n'
            "}) : () -> ()\n"
        )
        for run in (
            lambda: compile_cfg_module(module),
            lambda: CfgInterpreter(module).run_main(),
        ):
            with pytest.raises(ValueError, match="unknown cmpi predicate 'slt'"):
                run()

    def test_case_without_alternative_raises(self):
        body = rc_ir.Case("n", alts=[rc_ir.CaseAlt(7, "seven", rc_ir.Ret("n"))])
        program = rc_program(body, params=("n",))
        vm = VirtualMachine(compile_rc_program(program))
        with pytest.raises(RuntimeError_, match="no alternative"):
            vm.run_main([3])

    def test_arity_mismatch_raises(self):
        body = rc_ir.Ret("a")
        vm = VirtualMachine(compile_rc_program(rc_program(body, params=("a",))))
        with pytest.raises(RuntimeError_, match="expected 1"):
            vm.run_main([])

    def test_cfg_projection_error_text_matches_tree(self):
        module, func, builder = cfg_function(name="main")
        scalar = builder.create(lp.IntOp, 9)
        proj = builder.create(lp.ProjectOp, scalar.result(), 0)
        builder.create(ReturnOp, [proj.result()])
        failures = [
            _failed_run(engine)
            for engine in (
                VirtualMachine(compile_cfg_module(module)),
                VirtualMachine(compile_cfg_module(module, fuse=False)),
                CfgInterpreter(module),
            )
        ]
        assert failures[0] == failures[1] == failures[2]
        assert failures[0][0] == (
            "CfgInterpreterError", "projection from non-constructor 9"
        )


# ---------------------------------------------------------------------------
# Differential: the VM against the tree-walking oracles
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _compiled_cfg(name: str, variant: str):
    options = (
        PipelineOptions()
        if variant == "default"
        else PipelineOptions.variant(variant)
    )
    return MlirCompiler(options).compile(REGRESSION_BY_NAME[name].source).cfg_module


@functools.lru_cache(maxsize=None)
def _compiled_rc(name: str, rc_mode: str):
    compiler = BaselineCompiler(PipelineOptions(rc_mode=rc_mode))
    return compiler.compile(REGRESSION_BY_NAME[name].source).rc_program


@pytest.mark.parametrize(
    "program", REGRESSION, ids=[p.name for p in REGRESSION]
)
def test_every_testsuite_program_cfg_vm_matches_tree(program):
    module = _compiled_cfg(program.name, "default")
    tree = CfgInterpreter(module).run_main()
    vm = VirtualMachine(compile_cfg_module(module)).run_main()
    assert_identical_runs(tree, vm)


@pytest.mark.parametrize(
    "program", REGRESSION, ids=[p.name for p in REGRESSION]
)
def test_every_testsuite_program_rc_vm_matches_tree(program):
    rc = _compiled_rc(program.name, "naive")
    tree = RcInterpreter(rc).run_main()
    vm = VirtualMachine(compile_rc_program(rc)).run_main()
    assert_identical_runs(tree, vm)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(REGRESSION_BY_NAME)),
    variant=st.sampled_from(["default", "rgn", "none", "rc-opt+reuse"]),
)
def test_hypothesis_cfg_differential(name, variant):
    module = _compiled_cfg(name, variant)
    tree = CfgInterpreter(module).run_main()
    vm = VirtualMachine(compile_cfg_module(module)).run_main()
    assert_identical_runs(tree, vm)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(REGRESSION_BY_NAME)),
    rc_mode=st.sampled_from(["naive", "opt", "opt+reuse"]),
)
def test_hypothesis_rc_differential(name, rc_mode):
    rc = _compiled_rc(name, rc_mode)
    tree = RcInterpreter(rc).run_main()
    vm = VirtualMachine(compile_rc_program(rc)).run_main()
    assert_identical_runs(tree, vm)


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------

TINY = "def main : Nat := 20 + 22"


class TestEngineSelection:
    def test_run_mlir_engines_agree(self):
        vm = run_mlir(TINY, PipelineOptions(execution_engine="vm"))
        tree = run_mlir(TINY, PipelineOptions(execution_engine="tree"))
        assert_identical_runs(tree, vm)

    def test_run_baseline_engines_agree(self):
        vm = run_baseline(TINY, PipelineOptions(execution_engine="vm"))
        tree = run_baseline(TINY, PipelineOptions(execution_engine="tree"))
        assert_identical_runs(tree, vm)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            MlirCompiler(PipelineOptions(execution_engine="jit"))
        with pytest.raises(ValueError, match="unknown execution engine"):
            BaselineCompiler(PipelineOptions(execution_engine="jit"))

    def test_compilers_share_one_execute(self):
        assert "execute" not in vars(BaselineCompiler)
        assert "execute" not in vars(MlirCompiler)
        assert BaselineCompiler.execute is MlirCompiler.execute

    @pytest.mark.parametrize("keyword", (
        "run_lambda_simplifier", "enable_simp_case", "rc_mode",
        "execution_engine", "superinstructions", "dispatch",
        "budget_seconds", "budget_steps",
    ))
    def test_baseline_takes_no_mirrored_option_keywords(self, keyword):
        # Every baseline knob lives on PipelineOptions.
        with pytest.raises(TypeError):
            BaselineCompiler(**{keyword: None})
        with pytest.raises(TypeError):
            run_baseline(TINY, **{keyword: None})

    def test_switch_dispatch_rejected(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.eval.harness import measurement_options

        # The VM has one loop; the keyword survives only as "threaded".
        assert measurement_options("default", dispatch="threaded")
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            measurement_options("default", dispatch="switch")
        program = compile_cfg_module(MlirCompiler().compile(TINY).cfg_module)
        assert VirtualMachine(program, dispatch="threaded").run_main().value == 42
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            VirtualMachine(program, dispatch="switch")
        path = tmp_path / "p.lean"
        path.write_text(TINY)
        with pytest.raises(SystemExit) as exit_info:
            main([str(path), "--dispatch", "switch"])
        assert exit_info.value.code == 2
        assert "--dispatch" in capsys.readouterr().err

    def test_session_caches_bytecode_per_module(self):
        session = CompilationSession()
        compiler = MlirCompiler(PipelineOptions(), session=session)
        module = compiler.compile(TINY).cfg_module
        first = session.bytecode_for(module)
        second = session.bytecode_for(module)
        assert first is second
        assert session.stats["bytecode_hits"] == 1
        assert session.stats["bytecode_misses"] == 1
        other = compiler.compile("def main : Nat := 2").cfg_module
        assert session.bytecode_for(other) is not first
        assert session.stats["bytecode_misses"] == 2

    def test_cli_execution_engine_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(TINY)
        assert main([str(path), "--execution-engine", "vm"]) == 0
        vm_out = capsys.readouterr().out
        assert main([str(path), "--execution-engine", "tree"]) == 0
        tree_out = capsys.readouterr().out
        assert vm_out == tree_out
        assert "result: 42" in vm_out

    def test_harness_engines_produce_identical_figures(self):
        from repro.eval.figures import figure9_report
        from repro.eval.harness import EvaluationHarness

        sizes = {"filter": {"length": 8}, "digits": {"reps": 2, "span": 5}}
        vm_report = figure9_report(EvaluationHarness(sizes))
        tree_report = figure9_report(
            EvaluationHarness(sizes, execution_engine="tree")
        )
        assert vm_report == tree_report


class TestResolvedArithmeticDrift:
    """The VM's resolved callables must track the shared arith helpers."""

    GRID = [-7, -2, -1, 0, 1, 2, 3, 7, 10]

    def test_cmp_fns_match_evaluate_cmpi(self):
        from repro.interp.bytecode import _CMP_FNS

        assert set(_CMP_FNS) == set(arith.CMP_PREDICATES)
        for predicate, fn in _CMP_FNS.items():
            for a in self.GRID:
                for b in self.GRID:
                    assert fn(a, b) == arith.evaluate_cmpi(predicate, a, b)


#: ``Int`` operand pairs past a float's 53-bit mantissa (2**62 + 1) and
#: its range (10**400), of every sign, and by zero.
_INT_DIVISIONS = [
    (2**62 + 1, 1), (2**62 + 1, -1), (-(2**62 + 1), 3), (2**62 + 1, 2**61),
    (10**400, 7), (-(10**400), 7), (10**400, -(10**399) - 1),
    (-7, 2), (7, -2), (-7, -2), (-6, 3), (-5, 0),
]


def _assert_truncating(a, b, quotient, remainder):
    """``Int`` division rounds towards zero; the remainder takes the sign
    of the dividend.  By zero: quotient 0, remainder ``a``."""
    if b == 0:
        assert (quotient, remainder) == (0, a)
        return
    assert a == quotient * b + remainder
    assert abs(remainder) < abs(b)
    assert remainder == 0 or (remainder < 0) == (a < 0)


class TestExactIntDivision:
    """``Int`` division and remainder are computed in integer arithmetic:
    a float quotient rounds past 2**53 and overflows past 10**308."""

    @pytest.mark.parametrize("a,b", _INT_DIVISIONS)
    def test_runtime_operators(self, a, b):
        from repro.runtime.builtins import int_div, int_mod

        _assert_truncating(a, b, int_div(a, b), int_mod(a, b))
        assert SCALAR_RTCALLS["lean_int_div"][1] is int_div
        assert SCALAR_RTCALLS["lean_int_mod"][1] is int_mod

    def test_float_rounding_case(self):
        from repro.runtime.builtins import int_div, int_mod

        assert int_div(2**62 + 1, 1) == 2**62 + 1
        assert int_mod(2**62 + 1, 2) == 1

    @pytest.mark.parametrize("a,b", _INT_DIVISIONS)
    def test_every_engine(self, a, b):
        values = []
        for operator_ in ("/", "%"):
            source = (
                f"def apply (a : Int) (b : Int) : Int := a {operator_} b\n"
                f"def main : Int := apply ({a}) ({b})\n"
            )
            runs = [run_reference(source)] + [
                run(source, PipelineOptions(execution_engine=engine)).value
                for run in (run_mlir, run_baseline)
                for engine in EXECUTION_ENGINES
            ]
            assert len(set(runs)) == 1, (operator_, runs)
            values.append(runs[0])
        _assert_truncating(a, b, *values)


class TestSwitchDispatchTable:
    def test_tree_walker_builds_dispatch_tables(self):
        source = REGRESSION_BY_NAME["match_multi_scrutinee"].source
        module = MlirCompiler().compile(source).cfg_module
        interpreter = CfgInterpreter(module)
        result = interpreter.run_main()
        assert result.value == 150
        for op, table in interpreter._switch_tables.items():
            assert table == dict(zip(op.case_values, op.case_dests))


# ---------------------------------------------------------------------------
# VM 2.0: superinstruction fusion, the explicit call stack
# ---------------------------------------------------------------------------


def _vm_program(code, num_regs, *, num_params=0, extras=()):
    """Hand-assemble a one-function cfg-flavour program for fusion units."""
    program = BytecodeProgram("cfg")
    fn = BytecodeFunction("main", num_params)
    fn.num_regs = num_regs
    fn.code = list(code)
    program.functions["main"] = fn
    for extra in extras:
        program.functions[extra.name] = extra
    return program


def _identity_callee():
    callee = BytecodeFunction("callee", 1)
    callee.num_regs = 1
    callee.code = [(OP_RET, 0)]
    return callee


_EQ = _CMP_FNS["eq"]


def _superinstruction_cases():
    """(fused opcode, program factory, [(args, expected outcome)]) per
    fusion rule.

    Every factory builds a program whose peephole-eligible pair (or
    chain) covers one entry of ``FUSION_RULES``; the test below runs each
    fused and unfused and compares both against the expected outcome.
    Outcomes are ``(status, value or error message, metrics.counts)``
    literals recorded from the VM's former tuple-decoding loop, an
    independent implementation of every opcode.
    """
    cases = []
    cases.append((OP_CONST_CMP, lambda: _vm_program([
        (OP_CONST, 1, 5),
        (OP_CMP, 2, _EQ, 0, 1),
        (OP_RET, 2),
    ], 3, num_params=1), [
        ((5,), ("ok", 1, {"arith": 1, "call": 1, "return": 1, "const": 1})),
        ((4,), ("ok", 0, {"arith": 1, "call": 1, "return": 1, "const": 1})),
    ]))
    cases.append((OP_PROJ_CALL, lambda: _vm_program([
        (OP_INT, 0, 3),
        (OP_CONSTRUCT, 1, 1, (0,), "alloc_ctor"),
        (OP_PROJ, 2, 1, 0),
        (OP_CALL, 3, None, (2,)),  # callee patched below
        (OP_RET, 3),
    ], 4), [
        ((), ("ok", 3, {
            "call": 2, "return": 2, "alloc_ctor": 1, "proj": 1, "rc": 1,
            "move": 1,
        })),
    ]))
    cases.append((OP_CONST_CMP_CONDBR, lambda: _vm_program([
        (OP_CONST, 1, 5),
        (OP_CMP, 2, _EQ, 0, 1),
        (OP_CONDBR, 2, 3, (), (), 5, (), ()),
        (OP_CONST, 3, 1), (OP_RET, 3),
        (OP_CONST, 3, 0), (OP_RET, 3),
    ], 4, num_params=1), [
        ((5,), ("ok", 1, {
            "arith": 1, "branch": 1, "call": 1, "return": 1, "const": 2,
        })),
        ((6,), ("ok", 0, {
            "arith": 1, "branch": 1, "call": 1, "return": 1, "const": 2,
        })),
    ]))
    cases.append((OP_GETLABEL_CMP_CONDBR, lambda: _vm_program([
        (OP_CONSTRUCT, 0, 2, (), "move"),
        (OP_GETLABEL, 1, 0),
        (OP_CONST, 2, 2),
        (OP_CMP, 3, _EQ, 1, 2),
        (OP_CONDBR, 3, 5, (), (), 7, (), ()),
        (OP_CONST, 4, 111), (OP_RET, 4),
        (OP_CONST, 4, 222), (OP_RET, 4),
    ], 5), [
        ((), ("ok", 111, {
            "arith": 1, "branch": 1, "call": 1, "return": 1, "getlabel": 1,
            "move": 1, "const": 2,
        })),
    ]))
    cases.append((OP_PROJ_PROJ, lambda: _vm_program([
        (OP_INT, 0, 1), (OP_INT, 1, 2),
        (OP_CONSTRUCT, 2, 1, (0, 1), "alloc_ctor"),
        (OP_PROJ, 3, 2, 0),
        (OP_PROJ, 4, 2, 1),
        (OP_RET, 4),
    ], 5), [
        ((), ("ok", 2, {
            "call": 1, "return": 1, "alloc_ctor": 1, "proj": 2, "rc": 2,
            "move": 2,
        })),
    ]))
    cases.append((OP_PROJ3, lambda: _vm_program([
        (OP_INT, 0, 1), (OP_INT, 1, 2), (OP_INT, 2, 3),
        (OP_CONSTRUCT, 3, 1, (0, 1, 2), "alloc_ctor"),
        (OP_PROJ, 4, 3, 0),
        (OP_PROJ, 5, 3, 1),
        (OP_PROJ, 6, 3, 2),
        (OP_RET, 6),
    ], 7), [
        ((), ("ok", 3, {
            "call": 1, "return": 1, "alloc_ctor": 1, "proj": 3, "rc": 3,
            "move": 3,
        })),
    ]))
    cases.append((OP_PROJ4, lambda: _vm_program([
        (OP_INT, 0, 1), (OP_INT, 1, 2), (OP_INT, 2, 3), (OP_INT, 3, 4),
        (OP_CONSTRUCT, 4, 1, (0, 1, 2, 3), "alloc_ctor"),
        (OP_PROJ, 5, 4, 0),
        (OP_PROJ, 6, 4, 1),
        (OP_PROJ, 7, 4, 2),
        (OP_PROJ, 8, 4, 3),
        (OP_RET, 8),
    ], 9), [
        ((), ("ok", 4, {
            "call": 1, "return": 1, "alloc_ctor": 1, "proj": 4, "rc": 4,
            "move": 4,
        })),
    ]))
    cases.append((OP_INT_INC, lambda: _vm_program([
        (OP_INT, 0, 7),
        (OP_INC, 0, 1),
        (OP_RET, 0),
    ], 1), [
        ((), ("ok", 7, {"call": 1, "return": 1, "rc": 1, "move": 1})),
    ]))
    cases.append((OP_DEC_DEC, lambda: _vm_program([
        (OP_INT, 0, 5), (OP_INT, 1, 6),
        (OP_DEC, 0, 1),
        (OP_DEC, 1, 1),
        (OP_CONST, 2, 1), (OP_RET, 2),
    ], 3), [
        ((), ("ok", 1, {
            "call": 1, "return": 1, "rc": 2, "move": 2, "const": 1,
        })),
    ]))
    cases.append((OP_DEC_INC, lambda: _vm_program([
        (OP_INT, 0, 5), (OP_INT, 1, 6),
        (OP_DEC, 0, 1),
        (OP_INC, 1, 1),
        (OP_RET, 1),
    ], 2), [
        ((), ("ok", 6, {"call": 1, "return": 1, "rc": 2, "move": 2})),
    ]))
    cases.append((OP_INC_RTCALL, lambda: _vm_program([
        (OP_INT, 0, 5),
        (OP_CONST, 1, 0),
        (OP_INC, 0, 1),
        (OP_RTCALL, 2, "lean_int_add", (0, 0)),
        (OP_RET, 2),
    ], 3), [
        ((), ("ok", 10, {
            "call": 1, "return": 1, "runtime_call": 1, "rc": 1, "move": 1,
            "const": 1,
        })),
    ]))
    cases.append((OP_TAILCALL, lambda: _vm_program([
        (OP_INT, 0, 3),
        (OP_CALL, 1, None, (0,)),  # callee patched below
        (OP_RET, 1),
    ], 2), [
        ((), ("ok", 3, {"call": 2, "return": 2, "move": 1})),
    ]))
    # Both branches sum the four registers the pair writes: the Bool, its
    # label, the constant and the comparison.
    cases.append((OP_RTCALL_CMP_BR, lambda: _vm_program([
        (OP_RTCALL, 2, "lean_nat_dec_lt", (0, 1)),
        (OP_GETLABEL, 3, 2),
        (OP_CONST, 4, 1),
        (OP_CMP, 5, _EQ, 3, 4),
        (OP_CONDBR, 5, 5, (), (), 5, (), ()),
        (OP_RTCALL, 6, "lean_nat_add", (2, 3)),
        (OP_RTCALL, 6, "lean_nat_add", (6, 4)),
        (OP_RTCALL, 6, "lean_nat_add", (6, 5)),
        (OP_RET, 6),
    ], 7, num_params=2), [
        ((1, 2), ("ok", 4, {
            "runtime_call": 4, "getlabel": 1, "const": 1, "arith": 1,
            "branch": 1, "call": 1, "return": 1,
        })),
        ((2, 1), ("ok", 1, {
            "runtime_call": 4, "getlabel": 1, "const": 1, "arith": 1,
            "branch": 1, "call": 1, "return": 1,
        })),
    ]))
    return cases


def _patch_callees(program):
    """Bind OP_CALL placeholders to a real callee object."""
    callee = _identity_callee()
    program.functions[callee.name] = callee
    fn = program.functions["main"]
    fn.code = [
        (ins[0], ins[1], callee, ins[3]) if ins[0] == OP_CALL and ins[2] is None
        else ins
        for ins in fn.code
    ]
    return program


def _run_outcome(factory, args, fused):
    """Run one program and return ``(status, value or message, counts)``."""
    program = _patch_callees(factory())
    if fused:
        fuse_program(program)
    vm = VirtualMachine(program)
    try:
        outcome = vm.run_main(list(args), check_heap=False)
        return ("ok", outcome.value, vm.metrics.counts)
    except Exception as error:
        return ("error", str(error), vm.metrics.counts)


def _assert_outcome(factory, args, expected):
    """Fused and unfused runs both land on the recorded outcome."""
    for fused in (False, True):
        outcome = _run_outcome(factory, args, fused)
        assert outcome == expected, (fused, outcome, expected)


def _unfused_pair_cases():
    """(pair name, program factory, [(args, expected outcome)]) for the
    adjacent pairs no ``FUSION_RULES`` entry covers.  The peephole leaves
    them as two instructions; the outcomes are the same recorded literals
    as in :func:`_superinstruction_cases`.
    """
    cases = []
    cases.append(("cmp+cond_br", lambda: _vm_program([
        (OP_CMP, 2, _EQ, 0, 1),
        (OP_CONDBR, 2, 2, (), (), 4, (), ()),
        (OP_CONST, 3, 42), (OP_RET, 3),
        (OP_CONST, 3, 7), (OP_RET, 3),
    ], 4, num_params=2), [
        ((1, 1), ("ok", 42, {
            "arith": 1, "branch": 1, "call": 1, "return": 1, "const": 1,
        })),
        ((2, 1), ("ok", 7, {
            "arith": 1, "branch": 1, "call": 1, "return": 1, "const": 1,
        })),
    ]))
    cases.append(("getlabel+switch", lambda: _vm_program([
        (OP_CONSTRUCT, 0, 1, (), "move"),
        (OP_GETLABEL, 1, 0),
        (OP_SWITCH, 1, {1: 3}, 5),
        (OP_CONST, 2, 10), (OP_RET, 2),
        (OP_CONST, 2, 20), (OP_RET, 2),
    ], 3), [
        ((), ("ok", 10, {
            "branch": 1, "call": 1, "return": 1, "getlabel": 1, "move": 1,
            "const": 1,
        })),
    ]))
    return cases


#: The six lp+rgn variants; with the baseline's three rc modes, the
#: compiles every fusion rule must fire in.
LP_VARIANTS = ("default", "simplifier", "rgn", "none", "rc-opt", "rc-opt+reuse")

#: Reduced from a generated program.  Under the rc-opt modes the borrowed
#: field ``r`` is projected and passed straight to ``walk``, with no RC
#: operation between, so ``proj``+``call`` fuses.  No suite program has
#: this shape.
PROJ_CALL_PROGRAM = """\
inductive T where
| leaf
| node (skip : Nat) (rest : T)

def walk (t : T) (n : Nat) : Nat :=
  match t with
  | T.leaf => n
  | T.node s r => (let w := walk r n; 6)

def main : Nat := walk (T.node 1 T.leaf) 2
"""


class TestSuperinstructions:
    """One compilation + execution unit per entry of FUSION_RULES."""

    CASES = _superinstruction_cases()
    UNFUSED_PAIRS = _unfused_pair_cases()

    def test_every_fusion_rule_has_a_case(self):
        assert {opcode for opcode, _, _ in self.CASES} == {
            rule.opcode for rule in FUSION_RULES
        }

    @pytest.mark.parametrize(
        "opcode,factory,runs", CASES,
        ids=[OPCODE_NAMES[opcode] for opcode, _, _ in CASES],
    )
    def test_pair_fuses_and_charges_identically(self, opcode, factory, runs):
        program = _patch_callees(factory())
        before = [ins[0] for ins in program.functions["main"].code]
        assert opcode not in before
        fuse_program(program)
        after = [ins[0] for ins in program.functions["main"].code]
        assert opcode in after, OPCODE_NAMES[opcode]
        assert program.fused and program.fused_sites > 0
        for args, expected in runs:
            _assert_outcome(factory, args, expected)

    @pytest.mark.parametrize(
        "factory,runs", [(factory, runs) for _, factory, runs in UNFUSED_PAIRS],
        ids=[name for name, _, _ in UNFUSED_PAIRS],
    )
    def test_pair_without_a_rule_runs_unfused(self, factory, runs):
        program = _patch_callees(factory())
        before = list(program.functions["main"].code)
        fuse_program(program)
        assert program.functions["main"].code == before
        assert program.fused_sites == 0
        for args, expected in runs:
            _assert_outcome(factory, args, expected)

    def test_fused_opcode_bases_decompose_chains(self):
        assert FUSED_OPCODE_BASES["getlabel_cmp_br"] == (
            "getlabel", "const", "cmp", "cond_br"
        )
        assert FUSED_OPCODE_BASES["const_cmp_br"] == ("const", "cmp", "cond_br")
        assert FUSED_OPCODE_BASES["proj3"] == ("proj",) * 3
        assert FUSED_OPCODE_BASES["proj4"] == ("proj",) * 4
        assert FUSED_OPCODE_BASES["dec_inc"] == ("dec", "inc")
        assert FUSED_OPCODE_BASES["tailcall"] == ("call", "ret")
        assert FUSED_OPCODE_BASES["rtcall_cmp_br"] == (
            "rtcall", "getlabel", "const", "cmp", "cond_br"
        )
        for bases in FUSED_OPCODE_BASES.values():
            base_names = set(OPCODE_NAMES.values()) - set(FUSED_OPCODE_BASES)
            assert set(bases) <= base_names

    def test_jump_target_blocks_fusion(self):
        code = [
            (OP_INT, 0, 1),
            (OP_CONSTRUCT, 1, 1, (0, 0), "alloc_ctor"),
            (OP_PROJ, 2, 1, 0),
            (OP_PROJ, 3, 1, 1),
            (OP_RET, 3),
            (OP_JMP, 3, (), ()),  # unreachable, but makes pc 3 a target
        ]
        fused, sites = fuse_code(code)
        assert sites == 0
        assert fused == code
        # Without the jump the same pair fuses.
        fused, sites = fuse_code(code[:5])
        assert sites == 1
        assert [ins[0] for ins in fused] == [
            OP_INT, OP_CONSTRUCT, OP_PROJ_PROJ, OP_RET,
        ]

    def test_one_target_table_finds_and_remaps_every_branch(self):
        samples = [
            (OP_JMP, 1, (), ()),
            (OP_CONDBR, 0, 2, (), (), 3, (), ()),
            (OP_SWITCH, 0, {0: 4, 1: 5}, 6),
            (OP_CASE, 0, {0: 7}, None),
            (OP_CONST_CMP_CONDBR, 1, 5, 2, _EQ, 0, 1, 8, (), (), 9, (), ()),
            (OP_GETLABEL_CMP_CONDBR, 0, 3, 1, 5, 2, _EQ, 0, 1,
             10, (), (), 11, (), ()),
            (OP_RTCALL_CMP_BR, 2, "lean_nat_dec_lt", (0, 1), 3, 2, 4, 1, 5,
             _EQ, 3, 4, 12, (), (), 13, (), ()),
        ]
        assert {ins[0] for ins in samples} == set(_TARGET_FIELDS)
        assert _jump_targets(samples) == set(range(1, 14))
        mapping = {pc: pc + 100 for pc in range(14)}
        remapped = [_remap_targets(ins, mapping) for ins in samples]
        assert _jump_targets(remapped) == {pc + 100 for pc in range(1, 14)}
        for before, after in zip(samples, remapped):
            fields = _TARGET_FIELDS[before[0]]
            assert [x for i, x in enumerate(before) if i not in fields] == [
                x for i, x in enumerate(after) if i not in fields
            ]
        proj = (OP_PROJ, 2, 1, 0)
        assert _jump_targets([proj]) == set()
        assert _remap_targets(proj, mapping) is proj

    #: Base opcodes no compiled program emits: no program has a case of
    #: three or more alternatives (``switch``; the match compiler emits
    #: two-way cases only) and none calls an undefined function
    #: (``badcall``).
    NEVER_EMITTED = ("badcall", "switch")

    def test_every_fusion_rule_fires_on_compiled_programs(self, monkeypatch):
        """A rule that no compiled program exercises is dead weight: the
        unfused pair already runs it with the same charges.  The same
        sweep is the census of what compiles emit: every base opcode
        outside :attr:`NEVER_EMITTED` in some unfused compile, and every
        registered arith op in some captured ``rgn`` module."""
        applied = {rule.opcode: 0 for rule in FUSION_RULES}
        for rule in FUSION_RULES:
            def counted(a, b, build=rule.build, opcode=rule.opcode):
                applied[opcode] += 1
                return build(a, b)
            monkeypatch.setattr(rule, "build", counted)
        sources = [program.source for program in REGRESSION]
        sources += benchmark_sources().values()
        sources += [source for _, source in load_corpus()]
        sources.append(PROJ_CALL_PROGRAM)
        session = CompilationSession()
        mlir = []
        for variant in LP_VARIANTS:
            options = measurement_options(variant)
            options.capture_ir = ("rgn",)
            mlir.append(MlirCompiler(options, session=session))
        baseline = [
            BaselineCompiler(PipelineOptions(rc_mode=mode), session=session)
            for mode in RC_MODES
        ]
        emitted, arith_ops = set(), set()

        def census(program):
            for fn in program.functions.values():
                emitted.update(OPCODE_NAMES[ins[0]] for ins in fn.code)
            fuse_program(program)

        for source in sources:
            for compiler in mlir:
                artifacts = compiler.compile(source)
                arith_ops.update(
                    re.findall(r'"(arith\.\w+)"', artifacts.captured_ir["rgn"])
                )
                census(compile_cfg_module(artifacts.cfg_module, fuse=False))
            for compiler in baseline:
                rc_program_ = compiler.compile(source).rc_program
                census(compile_rc_program(rc_program_, fuse=False))
        never = [OPCODE_NAMES[op] for op, count in applied.items() if not count]
        assert never == []
        base = set(OPCODE_NAMES.values()) - set(FUSED_OPCODE_BASES)
        assert sorted(base - emitted) == list(self.NEVER_EMITTED)
        assert arith_ops == {
            op.OP_NAME for op in arith.arith_dialect.operations
        }

    def test_fusion_rules_are_declarative_and_unique(self):
        pairs = [(rule.first, rule.second) for rule in FUSION_RULES]
        assert len(pairs) == len(set(pairs))
        for rule in FUSION_RULES:
            assert rule.opcode in OPCODE_NAMES


class TestSuperinstructionErrorPaths:
    """Fused error paths must charge exactly the unfused cost events.

    Unboxed scalars (small Nats, field-less constructors) let some of
    these programs run to completion; the recorded charges still pin them.
    """

    def test_proj_proj_fails_at_first_projection(self):
        _assert_outcome(lambda: _vm_program([
            (OP_CONST, 0, 9),
            (OP_PROJ, 1, 0, 0),
            (OP_PROJ, 2, 0, 0),
            (OP_RET, 2),
        ], 3), (), ("error", "projection from non-constructor 9", {
            "call": 1, "proj": 1, "const": 1,
        }))

    def test_proj3_fails_at_second_projection(self):
        _assert_outcome(lambda: _vm_program([
            (OP_INT, 0, 1),
            (OP_CONSTRUCT, 1, 1, (0,), "alloc_ctor"),
            (OP_PROJ, 2, 1, 0),
            (OP_PROJ, 3, 0, 0),  # reg 0 is a boxed int, not a constructor
            (OP_PROJ, 4, 1, 0),
            (OP_RET, 4),
        ], 5), (), ("error", "projection from non-constructor 1", {
            "call": 1, "alloc_ctor": 1, "proj": 2, "rc": 1, "move": 1,
        }))

    def test_proj4_fails_at_last_projection(self):
        _assert_outcome(lambda: _vm_program([
            (OP_INT, 0, 1),
            (OP_CONSTRUCT, 1, 1, (0,), "alloc_ctor"),
            (OP_PROJ, 2, 1, 0),
            (OP_PROJ, 3, 1, 0),
            (OP_PROJ, 4, 1, 0),
            (OP_PROJ, 5, 0, 0),  # fails after three successful projections
            (OP_RET, 5),
        ], 6), (), ("error", "projection from non-constructor 1", {
            "call": 1, "alloc_ctor": 1, "proj": 4, "rc": 3, "move": 1,
        }))

    def test_getlabel_cmp_br_fails_reading_the_tag(self):
        _assert_outcome(lambda: _vm_program([
            (OP_CONST, 0, 9),  # machine int: tag_of raises
            (OP_GETLABEL, 1, 0),
            (OP_CONST, 2, 2),
            (OP_CMP, 3, _EQ, 1, 2),
            (OP_CONDBR, 3, 5, (), (), 7, (), ()),
            (OP_CONST, 4, 1), (OP_RET, 4),
            (OP_CONST, 4, 0), (OP_RET, 4),
        ], 5), (), ("ok", 0, {
            "arith": 1, "branch": 1, "call": 1, "return": 1, "getlabel": 1,
            "const": 3,
        }))

    def test_dec_dec_fails_at_first_dec(self):
        _assert_outcome(lambda: _vm_program([
            (OP_INT, 0, 5), (OP_INT, 1, 6),
            (OP_DEC, 0, 1), (OP_DEC, 1, 1),
            (OP_DEC, 0, 1), (OP_DEC, 1, 1),  # reg 0 already freed
            (OP_RET, -1),
        ], 2), (), ("ok", None, {"call": 1, "return": 1, "rc": 4, "move": 2}))

    def test_dec_inc_fails_at_the_dec(self):
        _assert_outcome(lambda: _vm_program([
            (OP_INT, 0, 5), (OP_INT, 1, 6),
            (OP_DEC, 0, 1), (OP_INC, 1, 1),
            (OP_DEC, 0, 1), (OP_INC, 1, 1),  # reg 0 already freed
            (OP_RET, -1),
        ], 2), (), ("ok", None, {"call": 1, "return": 1, "rc": 4, "move": 2}))

    def test_rtcall_cmp_br_fails_in_the_generic_builtin(self):
        factory = lambda: _vm_program([
            (OP_INT, 0, 1),
            (OP_CONSTRUCT, 1, 1, (0,), "alloc_ctor"),
            (OP_RTCALL, 2, "lean_nat_dec_lt", (1, 0)),  # a cell is no Nat
            (OP_GETLABEL, 3, 2),
            (OP_CONST, 4, 1),
            (OP_CMP, 5, _EQ, 3, 4),
            (OP_CONDBR, 5, 7, (), (), 9, (), ()),
            (OP_CONST, 6, 1), (OP_RET, 6),
            (OP_CONST, 6, 0), (OP_RET, 6),
        ], 7)
        assert OP_RTCALL_CMP_BR in [
            ins[0] for ins in fuse_program(factory()).functions["main"].code
        ]
        _assert_outcome(factory, (), ("error", (
            "expected an integer value, got Ctor(tag=1, fields=1, rc=1)"
        ), {"call": 1, "move": 1, "alloc_ctor": 1, "runtime_call": 1}))

    def test_inc_rtcall_fails_at_the_inc(self):
        _assert_outcome(lambda: _vm_program([
            (OP_INT, 0, 5),
            (OP_DEC, 0, 1),
            (OP_CONST, 1, 0),
            (OP_INC, 0, 1),  # reg 0 freed: inc raises before the builtin
            (OP_RTCALL, 2, "lean_int_add", (0, 0)),
            (OP_RET, 2),
        ], 3), (), ("ok", 10, {
            "call": 1, "return": 1, "runtime_call": 1, "rc": 2, "move": 1,
            "const": 1,
        }))


def _rc_spine(*steps):
    """A λrc body: ``("let", var, expr)``, ``("inc" | "dec", var[,
    count])`` steps, then a final ``("ret", var)``."""
    body = rc_ir.Ret(steps[-1][1])
    for step in reversed(steps[:-1]):
        if step[0] == "let":
            body = rc_ir.Let(step[1], step[2], body)
        else:
            node = rc_ir.Inc if step[0] == "inc" else rc_ir.Dec
            body = node(step[1], body, *step[2:])
    return body


#: ``c`` is a live cell holding the unboxed 1 in ``x``.
_LIVE_CELL = (("let", "x", rc_ir.Lit(1)), ("let", "c", rc_ir.Ctor(1, ["x"])))
#: ``k`` is a live cell holding ``x``; ``c`` is live but its field, ``a``,
#: was freed behind its back, so projecting it increments a freed cell.
_FREED_FIELD = (
    ("let", "x", rc_ir.Lit(1)),
    ("let", "a", rc_ir.Ctor(1, ["x"])),
    ("let", "c", rc_ir.Ctor(2, ["a"])),
    ("let", "k", rc_ir.Ctor(3, ["x"])),
    ("dec", "a"),
)
_UNIT = rc_ir.Ctor(0, [])
_DOUBLE_FREE = "dec of a freed object (double free)"
_UNDERFLOW = (
    "reference count underflow on Ctor(tag=1, fields=1, rc=1) (rc=1, dec 2)"
)
_INC_FREED = "inc of a freed object"

#: (id, the closure under test, λrc body, error message).  Unboxed
#: constructors (``_UNIT``) keep neighbours from fusing.
_INLINE_RC_ERRORS = [
    ("dec-double-free", OP_DEC, _rc_spine(
        *_LIVE_CELL, ("dec", "c"), ("let", "u", _UNIT), ("dec", "c"),
        ("ret", "u"),
    ), _DOUBLE_FREE),
    ("dec-underflow", OP_DEC, _rc_spine(
        *_LIVE_CELL, ("dec", "c", 2), ("ret", "x"),
    ), _UNDERFLOW),
    ("inc-freed", OP_INC, _rc_spine(
        *_LIVE_CELL, ("dec", "c"), ("let", "u", _UNIT), ("inc", "c"),
        ("ret", "u"),
    ), _INC_FREED),
    ("int_inc-freed", OP_INT_INC, _rc_spine(
        *_LIVE_CELL, ("dec", "c"), ("let", "u", rc_ir.Lit(2)), ("inc", "c"),
        ("ret", "u"),
    ), _INC_FREED),
    ("dec_dec-second-double-free", OP_DEC_DEC, _rc_spine(
        *_LIVE_CELL, ("dec", "c"), ("dec", "c"), ("ret", "x"),
    ), _DOUBLE_FREE),
    ("dec_dec-first-underflow", OP_DEC_DEC, _rc_spine(
        *_LIVE_CELL, ("dec", "c", 2), ("dec", "c"), ("ret", "x"),
    ), _UNDERFLOW),
    ("dec_inc-inc-freed", OP_DEC_INC, _rc_spine(
        *_LIVE_CELL, ("dec", "c"), ("inc", "c"), ("ret", "x"),
    ), _INC_FREED),
    ("dec_inc-dec-double-free", OP_DEC_INC, _rc_spine(
        *_LIVE_CELL, ("dec", "c"), ("let", "u", _UNIT), ("dec", "c"),
        ("inc", "x"), ("ret", "u"),
    ), _DOUBLE_FREE),
    ("inc_rtcall-freed", OP_INC_RTCALL, _rc_spine(
        *_LIVE_CELL, ("dec", "c"), ("let", "u", _UNIT), ("inc", "c"),
        ("let", "r", rc_ir.Call("lean_nat_add", ["x", "x"])), ("ret", "r"),
    ), _INC_FREED),
    ("proj-freed-field", OP_PROJ, _rc_spine(
        *_FREED_FIELD, ("let", "f", rc_ir.Proj(0, "c")), ("ret", "f"),
    ), _INC_FREED),
    ("proj_proj-second", OP_PROJ_PROJ, _rc_spine(
        *_FREED_FIELD, ("let", "f", rc_ir.Proj(0, "k")),
        ("let", "g", rc_ir.Proj(0, "c")), ("ret", "g"),
    ), _INC_FREED),
    ("proj3-third", OP_PROJ3, _rc_spine(
        *_FREED_FIELD, ("let", "f", rc_ir.Proj(0, "k")),
        ("let", "g", rc_ir.Proj(0, "k")), ("let", "h", rc_ir.Proj(0, "c")),
        ("ret", "h"),
    ), _INC_FREED),
    ("proj4-second", OP_PROJ4, _rc_spine(
        *_FREED_FIELD, ("let", "f", rc_ir.Proj(0, "k")),
        ("let", "g", rc_ir.Proj(0, "c")), ("let", "h", rc_ir.Proj(0, "k")),
        ("let", "j", rc_ir.Proj(0, "k")), ("ret", "j"),
    ), _INC_FREED),
    ("proj_call-freed-field", OP_PROJ_CALL, _rc_spine(
        *_FREED_FIELD, ("let", "f", rc_ir.Proj(0, "c")),
        ("let", "r", rc_ir.Call("identity", ["f"])), ("ret", "r"),
    ), _INC_FREED),
]


class TestInlineRcErrorPaths:
    """The closures that take or drop a reference handle a live
    constructor cell inline; a freed cell, an ``rc`` that would reach 0 or
    underflow, and a freed field go through ``Heap.inc``/``Heap.dec``.
    Their failures carry the fused, unfused and tree runs to the same
    error, charges and heap statistics."""

    @pytest.mark.parametrize(
        "opcode,body,message",
        [case[1:] for case in _INLINE_RC_ERRORS],
        ids=[case[0] for case in _INLINE_RC_ERRORS],
    )
    def test_failure_matches_unfused_and_tree(self, opcode, body, message):
        program = rc_program(body, extra=(
            rc_ir.Function("identity", ["p"], rc_ir.Ret("p")),
        ))
        fused = compile_rc_program(program)
        unfused = compile_rc_program(program, fuse=False)
        assert opcode in opcodes(fused, "main")
        assert set(opcodes(unfused, "main")) <= set(OPCODE_NAMES) - {
            rule.opcode for rule in FUSION_RULES
        }
        outcomes = [
            _failed_run(VirtualMachine(fused)),
            _failed_run(VirtualMachine(unfused)),
            _failed_run(RcInterpreter(program)),
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0] == ("RuntimeError_", message)


class TestExplicitCallStack:
    def test_100k_deep_recursion_under_default_recursion_limit(self):
        import sys

        source = (
            "def countdown (n : Nat) : Nat :=\n"
            "  if n == 0 then 0\n"
            "  else\n"
            "    let r := countdown (n - 1);\n"
            "    r + 1\n"
            "\n"
            "def main : Nat := countdown 100000"
        )
        before = sys.getrecursionlimit()
        result = run_mlir(source, PipelineOptions())
        assert result.value == 100000
        assert sys.getrecursionlimit() == before

    def test_fusion_on_and_off_agree_on_regression_programs(self):
        for name in ("match_multi_scrutinee", "list_fold_sum"):
            program = REGRESSION_BY_NAME.get(name)
            if program is None:
                continue
            assert_identical_runs(
                run_mlir(program.source), run_unfused(run_mlir, program.source)
            )

    def test_deep_continuation_under_default_recursion_limit(self):
        # Each application of k calls the closure it captured: 1000 nested
        # closure calls, which once recursed in Python on the VM.
        import sys

        before = sys.getrecursionlimit()
        expected = run_reference(DEEP_CONTINUATION)
        assert expected == 1000
        assert run_mlir(DEEP_CONTINUATION).value == expected
        assert run_baseline(DEEP_CONTINUATION).value == expected
        assert sys.getrecursionlimit() == before

    def test_deep_continuation_replays_through_full_matrix(self):
        run_matrix(DEEP_CONTINUATION)

    def test_over_application_resumes_through_a_continuation(self):
        # apply2 applies a one-argument closure to two arguments: the call
        # returns into a frame that applies its result to the second one.
        source = (
            "def adder (x : Nat) : Nat -> Nat := fun (y : Nat) => x + y\n"
            "def apply2 (f : Nat -> Nat -> Nat) : Nat := f 40 2\n"
            "def main : Nat := apply2 adder + apply2 adder"
        )
        for run in (run_mlir, run_baseline):
            tree = run(source, PipelineOptions(execution_engine="tree"))
            assert tree.value == 84
            assert tree.metrics.counts["apply"] >= 4
            assert_identical_runs(tree, run(source))
            assert_identical_runs(tree, run_unfused(run, source))


def _digits_callee(arity):
    """A callee returning ``sum(param_i * 10**i)``, so a frame with
    misplaced arguments shows in the value."""
    callee = BytecodeFunction("callee", arity)
    code, acc = [(OP_CONST, arity, 0)], arity
    for index in range(arity):
        code += [
            (OP_CONST, arity + 1, 10 ** index),
            (OP_RTCALL, arity + 2, "lean_nat_mul", (index, arity + 1)),
            (OP_RTCALL, acc, "lean_nat_add", (acc, arity + 2)),
        ]
    callee.code = code + [(OP_RET, acc)]
    callee.num_regs = arity + 3
    return callee


def _call_program(arity, *, tail, proj=False):
    """``main`` passes the constants 1..arity to a :func:`_digits_callee`;
    ``proj`` reads the first through a projection (a ``proj_call`` site)."""
    callee = _digits_callee(arity)
    code = [(OP_CONST, index, index + 1) for index in range(arity)]
    if proj:
        code += [
            (OP_INT, arity, 1),
            (OP_CONSTRUCT, arity + 1, 0, (arity,), "alloc_ctor"),
            (OP_PROJ, 0, arity + 1, 0),
        ]
    code.append((OP_CALL, arity + 2, callee, tuple(range(arity))))
    if not tail:
        code.append((OP_CONST, arity + 3, 0))
    code.append((OP_RET, arity + 2))
    return _vm_program(code, arity + 4, extras=(callee,))


def _fused_opcodes(program):
    return {OPCODE_NAMES[ins[0]] for ins in program.functions["main"].code}


class TestCallSiteFrames:
    """A call site builds its callee's frame: every argument count, in
    the specialised closures (up to three) and the generic one."""

    @pytest.mark.parametrize("arity", range(6))
    @pytest.mark.parametrize("tail", (False, True), ids=("call", "tailcall"))
    def test_arguments_land_in_parameter_order(self, arity, tail):
        expected = sum((i + 1) * 10 ** i for i in range(arity))
        runs = []
        for fused in (False, True):
            program = _call_program(arity, tail=tail)
            if fused:
                fuse_program(program)
                assert ("tailcall" in _fused_opcodes(program)) == tail
            vm = VirtualMachine(program)
            runs.append((vm.run_main().value, vm.metrics.counts))
        assert runs[0] == runs[1]
        assert runs[0][0] == expected

    @pytest.mark.parametrize("arity", (1, 2, 4))
    def test_proj_call_builds_the_frame(self, arity):
        runs = []
        for fused in (False, True):
            program = _call_program(arity, tail=False, proj=True)
            if fused:
                fuse_program(program)
                assert "proj_call" in _fused_opcodes(program)
            vm = VirtualMachine(program)
            runs.append((vm.run_main(check_heap=False).value, vm.metrics.counts))
        assert runs[0] == runs[1]
        # The projected boxed 1 replaces the first constant, also a 1.
        assert runs[0][0] == sum((i + 1) * 10 ** i for i in range(arity))


#: Depth of the tail-call chain the fault tests run inside.
_CHAIN = 6000

#: A tail-recursive loop ``_CHAIN`` calls deep whose innermost callee
#: fails: ``boom`` reads an empty array.
_TAIL_CHAIN = (
    "def boom (n : Nat) : Nat := Array.get Array.empty n\n"
    "def loop (n : Nat) (acc : Nat) : Nat :=\n"
    "  if n == 0 then boom acc else loop (n - 1) (acc + 1)\n"
    f"def main : Nat := loop {_CHAIN} 0"
)


class _FaultingCfgInterpreter(CfgInterpreter):
    """The CFG tree-walker with the VM's ``vm.dispatch`` site at function
    entry: after the ``call`` charge, before the callee runs."""

    def _execute_function(self, func, args):
        fault_hit("vm.dispatch")
        return super()._execute_function(func, args)


class _FaultingRcInterpreter(RcInterpreter):
    """The λrc tree-walker with the ``vm.dispatch`` site at function entry
    (after its budget step: the fault runs here without a budget)."""

    def _eval_body(self, body, env, joins):
        fault_hit("vm.dispatch")
        return super()._eval_body(body, env, joins)


@functools.lru_cache(maxsize=None)
def _tail_chain_programs():
    cfg_module = MlirCompiler(PipelineOptions()).compile(_TAIL_CHAIN).cfg_module
    rc_program = BaselineCompiler(PipelineOptions()).compile(_TAIL_CHAIN).rc_program
    return cfg_module, rc_program


def _tail_chain_engines(flavor, budget_steps, faulting):
    """The fused VM, the unfused VM and the tree-walker of ``flavor``,
    each with its own budget of ``budget_steps`` (None: unbounded)."""
    cfg_module, rc_program = _tail_chain_programs()
    budget = lambda: (
        ExecutionBudget(max_steps=budget_steps) if budget_steps else None
    )
    if flavor == "cfg":
        compile_ = lambda fuse: compile_cfg_module(cfg_module, fuse=fuse)
        tree_class = _FaultingCfgInterpreter if faulting else CfgInterpreter
        tree = tree_class(cfg_module, budget=budget())
    else:
        compile_ = lambda fuse: compile_rc_program(rc_program, fuse=fuse)
        tree_class = _FaultingRcInterpreter if faulting else RcInterpreter
        tree = tree_class(rc_program, budget=budget())
    fused = compile_(True)
    assert any(
        ins[0] == OP_TAILCALL
        for fn in fused.functions.values() for ins in fn.code
    )
    return {
        "fused": VirtualMachine(fused, budget=budget()),
        "unfused": VirtualMachine(compile_(False), budget=budget()),
        "tree": tree,
    }


def _failed_run(engine, plan=None):
    """Run ``engine`` to its expected failure: (error, counts, heap stats)."""
    with fault_plan(plan):
        with pytest.raises(Exception) as caught:
            engine.run_main(check_heap=False)
    error = caught.value
    return (
        (type(error).__name__, str(error)),
        engine.metrics.counts,
        engine.ctx.heap.stats.as_dict(),
    )


class TestTailCalls:
    """A ``tailcall`` replaces its caller's frame, and charges exactly what
    ``call`` + ``ret`` charge — also when a run fails inside a chain."""

    @pytest.mark.parametrize("flavor", ("cfg", "rc"))
    @pytest.mark.parametrize("failure", ("budget", "fault", "runtime_error"))
    def test_failure_inside_a_chain_charges_the_unfused_events(
        self, flavor, failure
    ):
        # Each iteration takes two steps (call, branch): the 11000th step
        # and the 5500th call both land past 5000 tail calls.
        budget_steps = 11000 if failure == "budget" else None
        faulting = failure == "fault"
        outcomes = {}
        for name, engine in _tail_chain_engines(
            flavor, budget_steps, faulting
        ).items():
            plan = FaultPlan({"vm.dispatch": 5500}) if faulting else None
            outcomes[name] = _failed_run(engine, plan)
        assert outcomes["fused"] == outcomes["unfused"] == outcomes["tree"]
        error, counts, _ = outcomes["fused"]
        expected_error = {
            "budget": "ExecutionBudgetExceeded",
            "fault": "InjectedFault",
            "runtime_error": "RuntimeError_",
        }[failure]
        assert error[0] == expected_error
        assert counts["call"] > 5000
        # No frame of the chain returned.
        assert counts.get("return", 0) == 0

    def test_tail_loop_runs_in_constant_frame_memory(self):
        import tracemalloc

        source = (
            "def count (n : Nat) (acc : Nat) : Nat :=\n"
            "  if n == 0 then acc else count (n - 1) (acc + 1)\n"
            "def main : Nat := count 100000 0"
        )
        module = MlirCompiler(PipelineOptions()).compile(source).cfg_module
        program = compile_cfg_module(module)
        vm = VirtualMachine(program)
        tracemalloc.start()
        try:
            value = vm.run_main().value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 100000
        assert peak < 1 << 20, f"peak {peak} bytes"
        fused = run_mlir(source, PipelineOptions())
        assert_identical_runs(fused, run_unfused(run_mlir, source))

    def test_arity_mismatched_tailcall_raises_after_its_fault_site(self):
        callee = BytecodeFunction("callee", 2)
        callee.num_regs = 2
        callee.code = [(OP_RET, 0)]
        factory = lambda: _vm_program([
            (OP_INT, 0, 3),
            (OP_CALL, 1, callee, (0,)),
            (OP_RET, 1),
        ], 2, extras=(callee,))
        program = fuse_program(factory())
        assert program.functions["main"].code[1][0] == OP_TAILCALL
        _assert_outcome(factory, (), (
            "error", "calling callee with 1 arguments, expected 2",
            {"call": 2, "move": 1},
        ))
        for fused in (False, True):
            program = factory()
            if fused:
                fuse_program(program)
            vm = VirtualMachine(program)
            outcome = _failed_run(vm, FaultPlan({"vm.dispatch": 2}))
            assert outcome[0][0] == "InjectedFault"
            assert outcome[1] == {"call": 2, "move": 1}

    @pytest.mark.parametrize("flavor", ("cfg", "rc"))
    def test_a_tail_chain_returns_once(self, flavor):
        # The whole chain's returns are charged, one per call, as unfused.
        source = _TAIL_CHAIN.replace("then boom acc", "then acc")
        run = run_mlir if flavor == "cfg" else run_baseline
        fused = run(source, PipelineOptions())
        unfused = run_unfused(run, source)
        tree = run(source, PipelineOptions(execution_engine="tree"))
        assert fused.value == _CHAIN
        assert_identical_runs(tree, fused)
        assert_identical_runs(tree, unfused)

    @pytest.mark.parametrize("flavor", ("cfg", "rc"))
    @pytest.mark.parametrize("with_session", (False, True))
    def test_compilers_always_run_tail_calls(self, flavor, with_session):
        # The call; ret -> tailcall fusion keeps a tail loop in constant
        # space, so no compiler configuration executes unfused bytecode.
        source = _TAIL_CHAIN.replace("then boom acc", "then acc")
        compiler = (MlirCompiler if flavor == "cfg" else BaselineCompiler)(
            session=CompilationSession() if with_session else None
        )
        with telemetry_session() as telemetry:
            assert compiler.run(source).value == _CHAIN
        assert telemetry.metrics.snapshot()["vm.instr.freq.tailcall"] == (
            _CHAIN + 1
        )


def _musttail_programs():
    from repro.eval.benchmarks import benchmark_sources

    programs = [(p.name, p.source) for p in REGRESSION]
    return programs + sorted(benchmark_sources().items())


class TestMusttail:
    """lp codegen marks ``let r := f …; ret r`` calls ``musttail``, the
    verifier holds the mark to tail position, and the VM makes every
    marked call to a bytecode function a ``tailcall`` site."""

    def test_every_musttail_call_becomes_a_tailcall_site(self):
        marked_total = 0
        for name, source in _musttail_programs():
            module = MlirCompiler(PipelineOptions()).compile(source).cfg_module
            program = compile_cfg_module(module)
            for func in module.functions():
                if func.is_declaration:
                    continue
                marked = sorted(
                    op.callee for op in func.walk()
                    if isinstance(op, CallOp) and op.is_musttail
                    and op.callee in program.functions
                )
                tail_sites = sorted(
                    ins[1].name for ins in program.functions[func.sym_name].code
                    if ins[0] == OP_TAILCALL
                )
                assert marked == tail_sites, (name, func.sym_name)
                marked_total += len(marked)
        assert marked_total > 0

    def test_misplaced_musttail_fails_verification(self):
        from repro.ir.parser import parse_module
        from repro.ir.verifier import VerificationError, verify

        template = (
            '"builtin.module"() ({\n'
            '  "func.func"() ({\n'
            '  ^bb0(%x: !lp.t):\n'
            '    %r = "func.call"(%x) {callee = @g, musttail = unit} '
            ': (!lp.t) -> !lp.t\n'
            '    BETWEEN'
            '    "func.return"(RETURNED) : (!lp.t) -> ()\n'
            '  }) {function_type = (!lp.t) -> !lp.t, sym_name = "f"} '
            ': () -> ()\n'
            '  "func.func"() ({\n'
            '  ^bb0(%y: !lp.t):\n'
            '    "func.return"(%y) : (!lp.t) -> ()\n'
            '  }) {function_type = (!lp.t) -> !lp.t, sym_name = "g"} '
            ': () -> ()\n'
            '}) : () -> ()\n'
        )
        good = template.replace("BETWEEN", "").replace("RETURNED", "%r")
        verify(parse_module(good))
        for between, returned in (
            ('"lp.inc"(%x) {count = 1 : i64} : (!lp.t) -> ()\n', "%r"),
            ("", "%x"),
        ):
            bad = template.replace("BETWEEN", between).replace(
                "RETURNED", returned
            )
            with pytest.raises(VerificationError, match="musttail"):
                verify(parse_module(bad))


class TestVm2SessionCache:
    def test_session_cache_keys_on_module_identity(self):
        session = CompilationSession()
        compiler = MlirCompiler(PipelineOptions(), session=session)
        module = compiler.compile(TINY).cfg_module
        misses0 = session.stats["bytecode_misses"]
        hits0 = session.stats["bytecode_hits"]
        base = session.bytecode_for(module)
        assert session.bytecode_for(module) is base  # hit
        # Every execution of the module runs the cached program (a hit
        # each); the threaded closures live on each VM.
        first, second = compiler.execute(module), compiler.execute(module)
        assert first.value == second.value
        assert first.metrics.counts == second.metrics.counts
        assert base.fused
        other = compiler.compile(TINY).cfg_module
        assert session.bytecode_for(other) is not base  # miss: new module
        assert session.stats["bytecode_misses"] == misses0 + 2
        assert session.stats["bytecode_hits"] == hits0 + 3


class TestVm2Cli:
    RECURSIVE = (
        "def f (n : Nat) : Nat := if n == 0 then 5 else f (n - 1)\n"
        "def main : Nat := f 10"
    )

    def test_exec_stats_reports_fused_names(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(self.RECURSIVE)
        assert main([str(path), "--exec-stats"]) == 0
        out = capsys.readouterr().out
        assert any(name in out for name in FUSED_OPCODE_BASES)

    def test_exec_stats_unfused_decomposes_to_base_opcodes(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(self.RECURSIVE)
        assert main([str(path), "--exec-stats", "--unfused"]) == 0
        out = capsys.readouterr().out
        assert not any(name in out for name in FUSED_OPCODE_BASES)

    def test_unfused_requires_exec_stats(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(self.RECURSIVE)
        assert main([str(path), "--unfused"]) == 2

    def test_fusion_cannot_be_switched_off(self, tmp_path, capsys):
        # Fusion carries the guaranteed tail calls, so there is no flag to
        # turn it off (spelled in two parts: a grep finds no user of it).
        from repro.__main__ import main

        path = tmp_path / "p.lean"
        path.write_text(self.RECURSIVE)
        with pytest.raises(SystemExit) as exit_info:
            main([str(path), "--no-" + "fusion"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Unboxed values: the threaded VM's scalar-specialised closures
# ---------------------------------------------------------------------------

#: Operand values at the edges of the unboxed range (±2**62).
_EDGES = (2**62 - 1, 2**62, 2**62 + 1, -(2**62) + 1, -(2**62), -(2**62) - 1)

#: ``(force_boxed, value)``: small values, negatives (the Nat builtins must
#: clamp exactly as the generic ones do), the unboxed range's edges, values
#: far past them, and ``BigIntObject`` operands holding small values.
_OPERANDS = st.tuples(
    st.booleans(),
    st.one_of(
        st.integers(-5, 5),
        st.sampled_from(_EDGES),
        st.integers(-(2**64), 2**64),
    ),
)


def _materialise(heap, operand):
    """The runtime value of ``operand``: ``alloc_int``'s choice, or a
    ``BigIntObject`` whatever the size when it asks to be boxed."""
    force_boxed, value = operand
    if force_boxed:
        return heap.register(BigIntObject(value))
    return heap.alloc_int(value)


def _rtcall_program(name):
    return _vm_program(
        [(OP_RTCALL, 2, name, (0, 1)), (OP_RET, 2)], 3, num_params=2
    )


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(SCALAR_RTCALLS)),
    lhs=_OPERANDS,
    rhs=_OPERANDS,
)
def test_hypothesis_scalar_rtcall_matches_generic_builtin(name, lhs, rhs):
    ctx = RuntimeContext()
    result = BUILTINS[name](
        ctx, [_materialise(ctx.heap, lhs), _materialise(ctx.heap, rhs)]
    )
    expected = python_value(result)
    ctx.release(result)
    ctx.heap.check_balanced()

    vm_ctx = RuntimeContext()
    args = [_materialise(vm_ctx.heap, lhs), _materialise(vm_ctx.heap, rhs)]
    run = VirtualMachine(_rtcall_program(name), context=vm_ctx).run_main(args)
    assert run.value == expected
    assert type(run.value) is int
    assert run.heap_stats == ctx.heap.stats.as_dict()


def _inc_rtcall_program(name):
    """``inc`` of the first operand, the builtin, then a ``dec`` that
    drops the reference the builtin did not consume."""
    return _vm_program([
        (OP_INC, 0, 1),
        (OP_RTCALL, 2, name, (0, 1)),
        (OP_DEC, 0, 1),
        (OP_RET, 2),
    ], 3, num_params=2)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(SCALAR_RTCALLS)),
    lhs=_OPERANDS,
    rhs=_OPERANDS,
)
def test_hypothesis_inc_rtcall_matches_generic_builtin(name, lhs, rhs):
    ctx = RuntimeContext()
    args = [_materialise(ctx.heap, lhs), _materialise(ctx.heap, rhs)]
    ctx.heap.inc(args[0], 1)
    result = BUILTINS[name](ctx, list(args))
    ctx.heap.dec(args[0], 1)
    expected = python_value(result)
    ctx.release(result)
    ctx.heap.check_balanced()

    program = fuse_program(_inc_rtcall_program(name))
    code = program.functions["main"].code
    assert [ins[0] for ins in code] == [OP_INC_RTCALL, OP_DEC, OP_RET]
    vm_ctx = RuntimeContext()
    args = [_materialise(vm_ctx.heap, lhs), _materialise(vm_ctx.heap, rhs)]
    run = VirtualMachine(program, context=vm_ctx).run_main(args)
    assert run.value == expected
    assert type(run.value) is int
    assert run.heap_stats == ctx.heap.stats.as_dict()
    assert run.metrics.counts == {
        "call": 1, "return": 1, "rc": 2, "runtime_call": 1,
    }


def _rtcall_cmp_br_program(name):
    """``name`` of the two parameters, dispatched on: 1 when true, 0 when
    false."""
    return _vm_program([
        (OP_RTCALL, 2, name, (0, 1)),
        (OP_GETLABEL, 3, 2),
        (OP_CONST, 4, 1),
        (OP_CMP, 5, _EQ, 3, 4),
        (OP_CONDBR, 5, 5, (), (), 7, (), ()),
        (OP_CONST, 6, 1), (OP_RET, 6),
        (OP_CONST, 6, 0), (OP_RET, 6),
    ], 7, num_params=2)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(
        name for name, (shape, _) in SCALAR_RTCALLS.items() if shape == "cmp"
    )),
    lhs=_OPERANDS,
    rhs=_OPERANDS,
)
def test_hypothesis_rtcall_cmp_br_matches_unfused(name, lhs, rhs):
    runs = []
    for fused in (False, True):
        program = _rtcall_cmp_br_program(name)
        if fused:
            fuse_program(program)
            assert program.functions["main"].code[0][0] == OP_RTCALL_CMP_BR
        ctx = RuntimeContext()
        args = [_materialise(ctx.heap, lhs), _materialise(ctx.heap, rhs)]
        run = VirtualMachine(program, context=ctx).run_main(args)
        runs.append((run.value, run.metrics.counts, run.heap_stats))
    assert runs[0] == runs[1]
    expected = BUILTINS[name](RuntimeContext(), [lhs[1], rhs[1]])
    assert runs[0][0] == expected


class TestScalarSpecialisation:
    def test_table_covers_arithmetic_and_every_comparison(self):
        comparisons = {
            name for name in BUILTINS
            if name.startswith(("lean_nat_dec_", "lean_int_dec_"))
        }
        arithmetic = {
            f"lean_{domain}_{op}"
            for domain in ("nat", "int")
            for op in ("add", "sub", "mul", "div", "mod")
        }
        assert len(comparisons) == 12
        assert set(SCALAR_RTCALLS) == comparisons | arithmetic

    def test_int_operands_skip_the_generic_builtin(self, monkeypatch):
        def generic(ctx, args):
            raise AssertionError("generic builtin called on int operands")

        for name in SCALAR_RTCALLS:
            monkeypatch.setitem(BUILTINS, name, generic)
        for name in sorted(SCALAR_RTCALLS):
            run = VirtualMachine(_rtcall_program(name)).run_main([6, 3])
            assert type(run.value) is int

    @pytest.mark.parametrize("opcode", [OP_INT, OP_BIGINT])
    @pytest.mark.parametrize(
        "value",
        [0, 7, -7, 2**62 - 1, -(2**62) + 1, 2**62, -(2**62), 10**30],
    )
    def test_int_constant_matches_alloc_int(self, opcode, value):
        ctx = RuntimeContext()
        ctx.release(ctx.heap.alloc_int(value))
        program = _vm_program([(opcode, 0, value), (OP_RET, 0)], 1)
        run = VirtualMachine(program).run_main()
        assert run.value == value and type(run.value) is int
        assert run.heap_stats == ctx.heap.stats.as_dict()


# ---------------------------------------------------------------------------
# Block chains: a closure that falls through runs the next one itself
# ---------------------------------------------------------------------------


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestBlockChains:
    def test_long_block_runs_in_bounded_python_depth(self):
        # 10,000 straight-line instructions; the chain is cut every
        # CHAIN_LIMIT closures, so 100 frames of headroom are enough.
        code = [(OP_CONST, 0, 0), (OP_CONST, 1, 1)]
        code += [(OP_RTCALL, 0, "lean_nat_add", (0, 1))] * 10_000
        code.append((OP_RET, 0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            vm = VirtualMachine(_vm_program(code, 2))
            run = vm.run_main()
        finally:
            sys.setrecursionlimit(limit)
        assert run.value == 10_000
        assert run.metrics.counts == {
            "const": 2, "runtime_call": 10_000, "call": 1, "return": 1,
        }

    def test_call_mid_chain_resumes_after_the_call(self):
        callee = _identity_callee()
        factory = lambda: _vm_program([
            (OP_CONST, 0, 2),
            (OP_CALL, 1, callee, (0,)),
            (OP_RTCALL, 2, "lean_nat_add", (1, 0)),
            (OP_CALL, 3, callee, (2,)),
            (OP_CONST, 4, 10),
            (OP_RTCALL, 5, "lean_nat_mul", (3, 4)),
            (OP_RET, 5),
        ], 6, extras=(callee,))
        _assert_outcome(factory, (), ("ok", 40, {
            "const": 2, "call": 3, "runtime_call": 2, "return": 3,
        }))

    def test_saturating_papextend_mid_chain_resumes_after_it(self):
        callee = _identity_callee()
        factory = lambda: _vm_program([
            (OP_CONST, 0, 7),
            (OP_PAP, 1, "callee", 1, ()),
            (OP_PAPEXTEND, 2, 1, (0,)),
            (OP_RTCALL, 3, "lean_nat_add", (2, 0)),
            (OP_RET, 3),
        ], 4, extras=(callee,))
        _assert_outcome(factory, (), ("ok", 14, {
            "const": 1, "alloc_closure": 1, "apply": 1, "call": 2,
            "runtime_call": 1, "return": 2,
        }))

    def _assert_charged_through(self, code, num_regs, raising_pc, message):
        """A run that raises at ``raising_pc`` counts every instruction up
        to and including it, and none after it."""
        vm = VirtualMachine(_vm_program(code, num_regs))
        with pytest.raises((CfgInterpreterError, RuntimeError_),
                           match=re.escape(message)):
            vm.run_main(check_heap=False)
        expected = [0] * len(OPCODE_NAMES)
        for ins in code[:raising_pc + 1]:
            expected[ins[0]] += 1
        assert vm.opcode_counts == expected
        return vm.metrics.counts

    def test_dec_of_a_freed_cell_mid_chain(self):
        counts = self._assert_charged_through([
            (OP_INT, 0, 1),
            (OP_CONSTRUCT, 1, 1, (0,), "alloc_ctor"),
            (OP_DEC, 1, 1),  # frees the cell
            (OP_CONST, 2, 5),
            (OP_DEC, 1, 1),  # raises
            (OP_CONST, 3, 6),
            (OP_RET, 3),
        ], 4, 4, "dec of a freed object (double free)")
        assert counts == {
            "call": 1, "move": 1, "alloc_ctor": 1, "rc": 2, "const": 1,
        }

    def test_proj_of_a_non_constructor_mid_chain(self):
        counts = self._assert_charged_through([
            (OP_CONST, 0, 9),
            (OP_INT, 1, 2),
            (OP_PROJ, 2, 0, 0),  # raises before its rc charge
            (OP_CONST, 3, 1),
            (OP_RET, 3),
        ], 4, 2, "projection from non-constructor 9")
        assert counts == {"call": 1, "const": 1, "move": 1, "proj": 1}


# ---------------------------------------------------------------------------
# Derived site counts: the loop counts chain entries, a raise its closure
# ---------------------------------------------------------------------------

#: The error of ``lean_nat_add`` applied to the cell ``c`` of
#: :func:`_adder_run`.
_NOT_AN_INT = "expected an integer value, got Ctor(tag=1, fields=1, rc=1)"


def _adder_run(length, raise_at, *, inc_at=None, call_at=None):
    """A λrc ``main`` whose body is one straight-line run of ``length``
    ``lean_nat_add`` lets; the one at ``raise_at`` adds the cell ``c`` and
    raises.  ``inc_at`` puts an ``inc`` ahead of that let (the pair fuses
    into ``inc_rtcall``); ``call_at`` a call of ``identity`` (a chain end:
    the next let is the pc the caller resumes at)."""
    steps = [
        ("let", "x", rc_ir.Lit(1)),
        ("let", "c", rc_ir.Ctor(1, ["x"])),
        ("let", "y0", rc_ir.Lit(0)),
    ]
    for i in range(length):
        if i == inc_at:
            steps.append(("inc", "x"))
        if i == call_at:
            steps.append(("let", "r", rc_ir.Call("identity", ["x"])))
        operand = "c" if i == raise_at else f"y{i}"
        steps.append(
            ("let", f"y{i + 1}", rc_ir.Call("lean_nat_add", [operand, "x"]))
        )
    steps.append(("ret", f"y{length}"))
    return rc_program(_rc_spine(*steps), extra=(
        rc_ir.Function("identity", ["p"], rc_ir.Ret("p")),
    ))


def _assert_raising_runs_agree(program):
    """The fused VM, the unfused VM and the tree-walker fail alike; the
    fused frequencies decompose to the unfused ones, which count every
    instruction up to the raising ``lean_nat_add`` of ``c``."""
    fused = VirtualMachine(compile_rc_program(program))
    unfused_program = compile_rc_program(program, fuse=False)
    unfused = VirtualMachine(unfused_program)
    outcomes = [
        _failed_run(fused), _failed_run(unfused),
        _failed_run(RcInterpreter(program)),
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] == ("RuntimeError_", _NOT_AN_INT)
    assert base_frequencies(fused.instruction_frequencies()) == \
        unfused.instruction_frequencies()
    code = unfused_program.functions["main"].code
    raising = next(pc for pc, ins in enumerate(code)
                   if ins[0] == OP_RTCALL and ins[3][0] == 1)
    expected = [0] * len(OPCODE_NAMES)
    for ins in code[:raising + 1]:
        expected[ins[0]] += 1
        if ins[0] == OP_CALL:
            expected[OP_RET] += 1  # the callee's
    assert unfused.opcode_counts == expected


class TestDerivedSiteCounts:
    """The threaded loop counts the chains it enters; every other
    execution of a site is derived from its predecessor's, less that
    closure's raises.  A builtin that raises anywhere in a straight-line
    run longer than :data:`CHAIN_LIMIT` leaves the counts of a closure
    that counts itself."""

    _LENGTH = CHAIN_LIMIT + 8

    @pytest.mark.parametrize("raise_at", range(_LENGTH))
    def test_raise_anywhere_around_a_goto_cut(self, raise_at):
        # The run is cut once: the let CHAIN_LIMIT - 1 from its end opens
        # the chain after the cut (one later in the fused layout, where
        # the inc_rtcall pair is one instruction).
        _assert_raising_runs_agree(
            _adder_run(self._LENGTH, raise_at, inc_at=3)
        )

    @pytest.mark.parametrize("raise_at", (3, 4, 5, 30, 34))
    def test_raise_at_and_after_the_resume_pc_of_a_call(self, raise_at):
        # The call sits ahead of let 4: let 4 is the resume pc.
        _assert_raising_runs_agree(
            _adder_run(self._LENGTH, raise_at, inc_at=6, call_at=4)
        )

    @pytest.mark.parametrize("raise_at", (0, 1, 2))
    def test_raise_in_and_after_an_inc_rtcall(self, raise_at):
        # inc_rtcall runs its own site's rtcall closure: one site, two
        # Python frames.
        _assert_raising_runs_agree(
            _adder_run(self._LENGTH, raise_at, inc_at=1)
        )

    @pytest.mark.parametrize("fuse", (False, True))
    def test_raise_at_a_jump_target_that_is_also_fallen_into(self, fuse):
        # pc 3 is fallen into from pc 2 on the first pass and entered by
        # the jmp on the second, when pc 4's operand is the cell and it
        # raises.  A run of consts pads the block past CHAIN_LIMIT.
        # Fused, pcs 3 and 4 are one inc_rtcall.
        pad = [(OP_CONST, 5, 7)] * CHAIN_LIMIT
        code = [
            (OP_INT, 0, 1),
            (OP_CONSTRUCT, 1, 1, (0,), "alloc_ctor"),
            (OP_INT, 2, 0),
            (OP_INC, 0, 1),
            (OP_RTCALL, 3, "lean_nat_add", (2, 0)),
            *pad,
            (OP_JMP, 3, (1,), (2,)),
        ]
        program = _vm_program(code, 6)
        if fuse:
            fuse_program(program)
            assert opcodes(program, "main")[3] == OP_INC_RTCALL
        vm = VirtualMachine(program)
        error, counts, heap = _failed_run(vm)
        assert error == ("RuntimeError_", _NOT_AN_INT)
        assert counts == {
            "call": 1, "move": 2, "alloc_ctor": 1, "rc": 2,
            "runtime_call": 2, "const": CHAIN_LIMIT, "jump": 1,
        }
        assert base_frequencies(vm.instruction_frequencies()) == {
            "int": 2, "construct": 1, "inc": 2, "rtcall": 2,
            "const": CHAIN_LIMIT, "jmp": 1,
        }
        assert heap["allocations"] == 1


#: ``peak_live`` of each benchmark at its default size, per variant:
#: (peak_live, allocations).  Every run ends with ``allocations ==
#: frees`` and ``live_count == 0``.
_HEAP_PEAKS = {
    "default": {
        "binarytrees": (63, 123), "binarytrees-int": (63, 123),
        "const_fold": (27, 324), "deriv": (128, 1068), "digits": (1, 185),
        "filter": (91, 127), "qsort": (2, 15), "rbmap_checkpoint": (30, 243),
        "unionfind": (1, 1),
    },
    "rc-opt+reuse": {
        "binarytrees": (63, 123), "binarytrees-int": (63, 123),
        "const_fold": (27, 228), "deriv": (128, 956), "digits": (1, 10),
        "filter": (91, 127), "qsort": (2, 15), "rbmap_checkpoint": (30, 191),
        "unionfind": (1, 1),
    },
}


class TestHeapCounters:
    """The heap counts its live objects as ``allocations - frees``."""

    @pytest.mark.parametrize("engine", EXECUTION_ENGINES)
    @pytest.mark.parametrize("variant", sorted(_HEAP_PEAKS))
    def test_benchmark_peaks(self, variant, engine):
        for name, source in benchmark_sources().items():
            options = (PipelineOptions() if variant == "default"
                       else PipelineOptions.variant(variant))
            module = MlirCompiler(options).compile(source).cfg_module
            runner = (VirtualMachine(compile_cfg_module(module))
                      if engine == "vm" else CfgInterpreter(module))
            stats = runner.run_main().heap_stats
            assert (stats["peak_live"], stats["allocations"]) == \
                _HEAP_PEAKS[variant][name], name
            assert stats["frees"] == stats["allocations"]
            assert runner.ctx.heap.live_count == 0

    @pytest.mark.parametrize("engine", ("vm", "tree"))
    def test_leak_message_counts_allocations_and_frees(self, engine):
        program = rc_program(_rc_spine(
            ("let", "x", rc_ir.Lit(1)),
            ("let", "a", rc_ir.Ctor(1, ["x"])),
            ("let", "b", rc_ir.Ctor(2, ["x"])),
            ("dec", "a"),
            ("ret", "x"),
        ))
        runner = (VirtualMachine(compile_rc_program(program))
                  if engine == "vm" else RcInterpreter(program))
        with pytest.raises(RuntimeError_) as caught:
            runner.run_main()
        assert str(caught.value) == (
            "heap leak: 1 objects still live (2 allocations, 1 frees)"
        )
        assert runner.ctx.heap.live_count == 1


# ---------------------------------------------------------------------------
# Deep results: converting and printing a long list does not recurse
# ---------------------------------------------------------------------------

_CELLS = 5000

DEEP_RESULT = (
    "inductive List where\n"
    "| nil\n"
    "| cons (head : Nat) (tail : List)\n"
    "\n"
    "def build (n : Nat) (acc : List) : List :=\n"
    "  if n == 0 then acc else build (n - 1) (List.cons n acc)\n"
    f"def main : List := build {_CELLS} List.nil\n"
)


class TestDeepResults:
    @pytest.mark.parametrize("engine", EXECUTION_ENGINES)
    @pytest.mark.parametrize("run", (run_mlir, run_baseline),
                             ids=("mlir", "baseline"))
    def test_long_list_value_comes_back(self, run, engine):
        value = run(DEEP_RESULT, PipelineOptions(execution_engine=engine)).value
        # Walked, not compared with ==: tuple equality recurses too.
        for head in range(1, _CELLS + 1):
            tag, (field, value) = value
            assert (tag, field) == (1, head)
        assert value == 0

    @pytest.mark.parametrize("engine", EXECUTION_ENGINES)
    def test_cli_prints_a_long_list(self, engine, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "deep.lean"
        path.write_text(DEEP_RESULT, encoding="utf-8")
        assert main([str(path), "--execution-engine", engine]) == 0
        expected = "".join(f"(1, ({head}, " for head in range(1, _CELLS + 1))
        expected += "0" + "))" * _CELLS
        assert capsys.readouterr().out == f"result: {expected}\n"

    @pytest.mark.parametrize("value", [
        None, 5, -3, "text", "it's", (), (1,), ((),), (0, ()), [],
        [1, "x", (3, [4, (5,)])], (1, (2, (3, (4, 0)))), [(1,)],
        "<closure f>", 10**30,
    ])
    def test_result_text_is_str_of_the_value(self, value):
        from repro.__main__ import _format_result

        assert _format_result(value) == str(value)
