"""Tests for the IR mutation counter and the verify-once pass manager.

The contract (see :mod:`repro.ir.core` and
:class:`~repro.rewrite.pass_manager.PassManager`):

* every structural mutation primitive moves :func:`mutation_count`,
* so no registered pass can change the printed IR without moving it,
* passes reach the IR only through those primitives (a static scan),
* and ``verify_each`` verifies after the first pass of a run, then after
  a later pass only if the count moved: each IR state is verified once,
  and a pass that reports nothing cannot hide a broken IR.
"""

import ast
from pathlib import Path

import pytest

from repro.backend.pipeline import MlirCompiler, PipelineOptions
from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.eval.testsuite import regression_programs
from repro.fuzz.corpus import load_corpus
from repro.ir import (
    Block,
    Builder,
    FunctionType,
    InsertionPoint,
    IntegerAttr,
    Region,
    i1,
    i64,
)
from repro.ir.core import mutation_count
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import VerificationError
from repro.rewrite import PassManager, pass_manager
from repro.rewrite.pass_manager import FunctionPass, Pass
from repro.rewrite.registry import build_passes, registered_passes
from repro.transforms.canonicalize import ABLATABLE_FAMILIES
from repro.telemetry import telemetry_session

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def func_with_cmp():
    """``f(a) = (1 == a)``: a module, its function's block and the ops."""
    module = ModuleOp()
    func = FuncOp("f", FunctionType([i64], [i1]))
    module.append(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    one = builder.create(arith.ConstantOp, 1)
    cmp = builder.create(arith.CmpIOp, "eq", one.result(), func.arguments[0])
    builder.create(ReturnOp, [cmp.result()])
    return module, func.entry_block, one, cmp


# ---------------------------------------------------------------------------
# One test per bumping primitive
# ---------------------------------------------------------------------------


def _set_operand(block, one, cmp):
    cmp.set_operand(0, block.arguments[0])


def _replace_all_uses(block, one, cmp):
    one.replace_all_uses_with([block.arguments[0]])


def _set_operands(block, one, cmp):
    cmp.set_operands([block.arguments[0], block.arguments[0]])


def _set_attr(block, one, cmp):
    one.set_attr("value", IntegerAttr(2))


def _link(block, one, cmp):
    detached = arith.ConstantOp(5)
    return lambda: block.prepend(detached)


def _unlink(block, one, cmp):
    one.detach()


def _add_argument(block, one, cmp):
    block.add_argument(i64)


def _drop_all_ops(block, one, cmp):
    block.drop_all_ops()


def _erase_block(block, one, cmp):
    block.erase()


def _add_block(block, one, cmp):
    fresh = Block()
    return lambda: block.parent.add_block(fresh)


#: Each case mutates IR once.  A case that returns a callable did set-up
#: work first; the callable is the mutation under test.
PRIMITIVES = {
    "set_operand": _set_operand,
    "replace_all_uses_with": _replace_all_uses,
    "set_operands": _set_operands,
    "set_attr": _set_attr,
    "link": _link,
    "unlink": _unlink,
    "add_argument": _add_argument,
    "drop_all_ops": _drop_all_ops,
    "block_erase": _erase_block,
    "region_add_block": _add_block,
}


class TestPrimitivesBump:
    @pytest.mark.parametrize("case", sorted(PRIMITIVES))
    def test_primitive_moves_the_count(self, case):
        _, block, one, cmp = func_with_cmp()
        before = mutation_count()
        deferred = PRIMITIVES[case](block, one, cmp)
        if deferred is not None:
            before = mutation_count()
            deferred()
        assert mutation_count() > before

    def test_reading_ir_does_not_move_the_count(self):
        module, block, one, cmp = func_with_cmp()
        before = mutation_count()
        print_module(module)
        list(module.walk())
        one.is_before_in_block(cmp)
        assert mutation_count() == before

    def test_building_detached_ops_does_not_move_the_count(self):
        # A detached op is not IR yet; linking it is the mutation.
        before = mutation_count()
        Region()
        arith.ConstantOp(3)
        assert mutation_count() == before


# ---------------------------------------------------------------------------
# Passes use the primitives: a static scan
# ---------------------------------------------------------------------------

#: Fields of ``Operation``/``Region`` that only :mod:`repro.ir.core` may
#: write; a pass writing one directly would change IR behind the counter.
GUARDED_FIELDS = ("successors", "regions", "blocks")
MUTATING_METHODS = (
    "append", "clear", "extend", "insert", "pop", "remove", "setdefault",
    "update",
)


def _guarded(node) -> bool:
    """True for ``x.attributes[...]``, ``x.successors``, ``x.regions[...]``
    and the like."""
    if isinstance(node, ast.Subscript):
        inner = node.value
        return isinstance(inner, ast.Attribute) and (
            inner.attr == "attributes" or inner.attr in GUARDED_FIELDS
        )
    return isinstance(node, ast.Attribute) and node.attr in GUARDED_FIELDS


def _direct_writes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in ("attributes",) + GUARDED_FIELDS
        ):
            yield node
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if _guarded(sub):
                    yield node
                    break


class TestPassesUsePrimitives:
    def test_no_pass_writes_ir_fields_directly(self):
        offenders = []
        for package in ("transforms", "rc_opt", "rewrite"):
            for path in sorted((SRC / package).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                offenders.extend(
                    f"{path.relative_to(SRC)}:{node.lineno}"
                    for node in _direct_writes(tree)
                )
        assert offenders == []

    @pytest.mark.parametrize(
        "line",
        [
            'op.attributes["count"] = attr',
            "op.successors = [block]",
            "op.successors[0] = block",
            "op.regions.append(region)",
            "region.blocks = []",
            'del op.attributes["count"]',
            'op.attributes.pop("count")',
        ],
    )
    def test_scan_catches_direct_writes(self, line):
        assert list(_direct_writes(ast.parse(line)))

    def test_scan_allows_reads_and_primitives(self):
        code = (
            'op.set_attr("count", attr)\n'
            "value = op.attributes['count']\n"
            "blocks = list(region.blocks)\n"
        )
        assert not list(_direct_writes(ast.parse(code)))


# ---------------------------------------------------------------------------
# Soundness: no registered pass changes the printed IR behind the counter
# ---------------------------------------------------------------------------

PROGRAMS = [(p.name, p.source) for p in regression_programs()] + load_corpus()


@pytest.fixture(scope="module")
def captured_ir():
    """Entering-rgn-opt IR and pre-fusion lp IR of every program."""
    options = PipelineOptions(capture_ir=("lp", "rgn"))
    return {
        name: MlirCompiler(options).compile(source).captured_ir
        for name, source in PROGRAMS
    }


#: Each pattern family of the canonicalize drain run alone, as a spec.
FAMILY_SPECS = {
    family: "canonicalize{" + ",".join(
        f"ablate={other}" for other in ABLATABLE_FAMILIES if other != family
    ) + "}"
    for family in ABLATABLE_FAMILIES
}


@pytest.mark.parametrize(
    "name",
    sorted(registered_passes()) + list(FAMILY_SPECS.values()),
    ids=sorted(registered_passes()) + [f"only-{f}" for f in FAMILY_SPECS],
)
def test_pass_never_changes_ir_behind_the_counter(name, captured_ir):
    stage = "lp" if name == "lp-rc-fusion" else "rgn"
    changed = 0
    for program, texts in captured_ir.items():
        module = parse_module(texts[stage])
        before_text = print_module(module)
        before = mutation_count()
        for pass_ in build_passes(name):
            pass_.run(module)
        if print_module(module) != before_text:
            changed += 1
            assert mutation_count() != before, program
    # Lowering leaves nothing for these three families to rewrite on their
    # own, so the contract holds vacuously for them; every other pass is
    # exercised.
    assert changed > 0 or name in (
        FAMILY_SPECS["common-branch"], FAMILY_SPECS["constant-fold"],
        FAMILY_SPECS["dead-region"],
    )


# ---------------------------------------------------------------------------
# Verify-count contract of the pass manager
# ---------------------------------------------------------------------------


class NoOpPass(Pass):
    name = "no-op"

    def run(self, module):
        pass


class AddConstantPass(FunctionPass):
    name = "add-constant"

    def run_on_function(self, func):
        func.entry_block.prepend(arith.ConstantOp(9))


class BreakDominancePass(FunctionPass):
    """Moves the first op below its user; bumps no statistic."""

    name = "break-dominance"

    def run_on_function(self, func):
        first = func.entry_block.first_op
        first.move_after(first.result().users()[0])


@pytest.fixture
def verify_calls(monkeypatch):
    calls = []
    original = pass_manager.verify

    def spy(module):
        calls.append(module)
        return original(module)

    monkeypatch.setattr(pass_manager, "verify", spy)
    return calls


class TestVerifyOnce:
    def test_unchanged_states_are_verified_once(self, verify_calls):
        module, *_ = func_with_cmp()
        PassManager(
            [NoOpPass(), NoOpPass(), AddConstantPass(), NoOpPass()]
        ).run(module)
        # After the first pass (covering the input), then after the mutation.
        assert len(verify_calls) == 2

    def test_every_run_verifies_its_first_pass(self, verify_calls):
        module, *_ = func_with_cmp()
        manager = PassManager([NoOpPass()])
        manager.run(module)
        manager.run(module)
        assert len(verify_calls) == 2

    def test_verify_each_off_never_verifies(self, verify_calls):
        module, *_ = func_with_cmp()
        PassManager([AddConstantPass()], verify_each=False).run(module)
        assert verify_calls == []

    def test_silent_pass_breaking_dominance_is_caught(self):
        module, *_ = func_with_cmp()
        manager = PassManager([NoOpPass(), BreakDominancePass()])
        with pytest.raises(VerificationError, match="dominate"):
            manager.run(module)
        assert manager.statistics["break-dominance"].counters == {}

    def test_skipped_verification_opens_no_span(self):
        module, *_ = func_with_cmp()
        with telemetry_session() as telemetry:
            PassManager([NoOpPass(), NoOpPass(), AddConstantPass()]).run(module)
        names = [span.name for span in telemetry.tracer.all_spans()]
        assert names.count("verify:no-op") == 1
        assert names.count("verify:add-constant") == 1


class TestFunctionPassTargets:
    def test_visits_each_top_level_function_once(self):
        module, *_ = func_with_cmp()
        second = FuncOp("g", FunctionType([], []))
        module.append(second)
        Builder(InsertionPoint.at_end(second.entry_block)).create(ReturnOp, [])
        seen = []

        class Recording(FunctionPass):
            def run_on_function(self, func):
                seen.append(func.sym_name)

        Recording().run(module)
        assert seen == ["f", "g"]

    def test_runs_on_a_function_directly(self):
        _, block, *_ = func_with_cmp()
        seen = []

        class Recording(FunctionPass):
            def run_on_function(self, func):
                seen.append(func.sym_name)

        Recording().run(block.parent_op())
        assert seen == ["f"]
