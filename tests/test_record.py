"""Behaviour of the plain data classes built on :mod:`repro.record`."""

import copy
import pickle

import pytest

from repro.backend.pipeline import PipelineOptions
from repro.eval import testsuite
from repro.eval.benchmarks import Benchmark
from repro.fuzz.differential import MatrixConfig
from repro.interp.metrics import DEFAULT_COSTS, ExecutionMetrics
from repro.lambda_pure.ir import (
    Case,
    CaseAlt,
    Ctor,
    Function,
    Let,
    Program,
    Ret,
    Unreachable,
)
from repro.lean import ast
from repro.rewrite.registry import PassOption, RegisteredPass


def _let(tag=1):
    return Let("x", Ctor(tag, ["a"]), Ret("x"))


#: Makers of one instance of each frozen class (a fresh one per call).
FROZEN = {
    "FunType": lambda: ast.FunType(ast.NatType(), ast.DataType("List")),
    "ArrayType": lambda: ast.ArrayType(ast.IntType()),
    "NatType": ast.NatType,
    "PassOption": lambda: PassOption("engine", choices=("worklist", "rescan")),
    "RegisteredPass": lambda: RegisteredPass("dce", object, (), "drop dead ops"),
    "MatrixConfig": lambda: MatrixConfig("rc-opt", "worklist", "vm"),
    "TestProgram": lambda: testsuite.TestProgram("id", "basic", "main"),
    "Benchmark": lambda: Benchmark("b", "def main : Nat := 1", "one", 1),
}

#: Makers of one instance of each mutable class.
MUTABLE = {
    "lambda_pure.Let": _let,
    "lambda_pure.Program": Program,
    "lean.Var": lambda: ast.Var("x"),
    "lean.Program": ast.Program,
    "PipelineOptions": PipelineOptions,
    "ExecutionMetrics": ExecutionMetrics,
}


class TestEquality:
    def test_equal_fields_compare_equal(self):
        assert _let() == _let()
        assert not (_let() != _let())
        assert ast.App(ast.Var("f"), [ast.NatLit(1)]) == ast.App(
            ast.Var("f"), [ast.NatLit(1)]
        )
        assert Unreachable() == Unreachable()
        assert PipelineOptions() == PipelineOptions()

    def test_different_fields_compare_unequal(self):
        assert _let(1) != _let(2)
        assert ast.NatLit(1) != ast.NatLit(2)
        assert ast.NatType() != ast.IntType()
        assert PipelineOptions() != PipelineOptions(rc_mode="opt")

    def test_different_classes_with_equal_fields_are_unequal(self):
        assert ast.NatLit(1) != ast.IntLit(1)
        assert ast.PLit(1) != ast.NatLit(1)

    def test_lean_equality_includes_inferred_type(self):
        typed, untyped = ast.Var("x"), ast.Var("x")
        typed.inferred_type = ast.NatType()
        assert typed != untyped
        untyped.inferred_type = ast.NatType()
        assert typed == untyped

    def test_default_containers_are_fresh(self):
        first, second = Case("x"), Case("x")
        first.alts.append(CaseAlt(0, "nil", Unreachable()))
        assert second.alts == []
        assert ExecutionMetrics().costs == DEFAULT_COSTS
        assert ExecutionMetrics().costs is not DEFAULT_COSTS


class TestHashing:
    @pytest.mark.parametrize("name", sorted(MUTABLE))
    def test_mutable_records_are_unhashable(self, name):
        with pytest.raises(TypeError):
            hash(MUTABLE[name]())

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_records_hash_structurally(self, name):
        make = FROZEN[name]
        assert make() == make()
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_records_reject_assignment(self, name):
        record = FROZEN[name]()
        with pytest.raises(AttributeError):
            record.extra = 1
        for field in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)

    def test_field_less_types_hash_apart(self):
        types = {ast.NatType(), ast.IntType(), ast.BoolType(), ast.UnitType()}
        assert len(types) == 4


class TestRepr:
    """``repr`` lists the same fields, in the same order, as before."""

    @pytest.mark.parametrize(
        "value, text",
        [
            (
                _let(),
                "Let(var='x', expr=Ctor(tag=1, args=['a'], type_name='', "
                "ctor_name=''), body=Ret(var='x'))",
            ),
            (
                Case("x", [CaseAlt(0, "nil", Unreachable())], None, "List"),
                "Case(var='x', alts=[CaseAlt(tag=0, ctor_name='nil', "
                "body=Unreachable())], default=None, type_name='List')",
            ),
            (
                Function("f", ["x"], Ret("x")),
                "Function(name='f', params=['x'], body=Ret(var='x'), "
                "borrowed=0, borrowed_params=())",
            ),
            (
                ast.FunType(ast.DataType("L"), ast.ArrayType(ast.DataType("L"))),
                "FunType(param=DataType(name='L'), "
                "result=ArrayType(element=DataType(name='L')))",
            ),
            (
                ast.Let("y", ast.NatLit(1), ast.Var("y")),
                "Let(name='y', value=NatLit(value=1), body=Var(name='y'), "
                "annotation=None)",
            ),
            (
                PassOption("engine", choices=("a", "b")),
                "PassOption(name='engine', help='', repeatable=False, "
                "choices=('a', 'b'), default='')",
            ),
            (
                MatrixConfig("rc-opt", "worklist", "vm"),
                "MatrixConfig(rc_variant='rc-opt', rewrite_engine='worklist', "
                "execution_engine='vm')",
            ),
            (
                ExecutionMetrics(counts={"call": 1}, costs={"call": 4}),
                "ExecutionMetrics(counts={'call': 1}, costs={'call': 4})",
            ),
        ],
    )
    def test_repr(self, value, text):
        assert repr(value) == text

    def test_repr_hides_inferred_type(self):
        var = ast.Var("x")
        var.inferred_type = ast.NatType()
        assert repr(var) == "Var(name='x')"

    def test_pipeline_options_repr_lists_every_knob(self):
        text = repr(PipelineOptions(rc_mode="opt"))
        assert text.startswith(
            "PipelineOptions(run_lambda_simplifier=True, enable_simp_case=True, "
        )
        assert "rc_mode='opt'" in text
        assert text.endswith(
            "crash_bundle_dir=None, execution_budget_seconds=None, "
            "execution_budget_steps=None)"
        )
        assert text.count("=") == 14


class TestPipelineOptions:
    def test_keyword_overrides_and_defaults(self):
        options = PipelineOptions(rc_mode="opt+reuse", verify_each=False)
        assert options.rc_mode == "opt+reuse"
        assert options.verify_each is False
        assert options.run_lambda_simplifier is True
        assert PipelineOptions().rc_mode == "naive"

    def test_overrides_stay_per_instance(self):
        options = PipelineOptions()
        options.rc_mode = "opt"
        assert PipelineOptions().rc_mode == "naive"

    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="bogus"):
            PipelineOptions(bogus=1)

    def test_verbose_knob_is_gone(self):
        # Pass timing is the ``pass:<name>`` span; --verbose prints spans.
        # The removed name is spelled in two parts, so a grep for it finds
        # no user left in the tree.
        removed = "verbose" + "_passes"
        with pytest.raises(TypeError, match=removed):
            PipelineOptions(**{removed: True})
        assert len(PipelineOptions._fields) == 14

    @pytest.mark.parametrize("removed", (
        # Ablation is a pass spec (``canonicalize{ablate=...}`` or a left
        # out element), fusion always runs, and a pass failure always
        # prints its IR.  Spelled in parts, so a grep finds no user left.
        "enable_" + "cse",
        "enable_" + "region_gvn",
        "enable_" + "case_elimination",
        "enable_" + "common_branch_elimination",
        "enable_" + "constant_fold",
        "enable_" + "dead_region_elimination",
        "super" + "instructions",
        "print_ir_" + "on_failure",
    ))
    def test_spec_and_fixed_knobs_are_gone(self, removed):
        with pytest.raises(TypeError, match=removed):
            PipelineOptions(**{removed: False})

    def test_variant_constructors(self):
        assert PipelineOptions.variant("none") == PipelineOptions(
            run_lambda_simplifier=False, run_rgn_optimizations=False
        )
        assert PipelineOptions.variant("rc-opt").rc_mode == "opt"


class TestCopying:
    """The harness pickles measurements across processes and perfbench
    deep-copies λpure programs; both must see through the records."""

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_records_pickle_and_copy(self, name):
        record = FROZEN[name]()
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record

    def test_mutable_records_pickle_and_copy(self):
        program = Program(functions={"f": Function("f", ["x"], Ret("x"))})
        assert pickle.loads(pickle.dumps(program)) == program
        clone = copy.deepcopy(program)
        assert clone == program
        assert clone.functions["f"] is not program.functions["f"]
        options = PipelineOptions(rc_mode="opt")
        assert pickle.loads(pickle.dumps(options)) == options
