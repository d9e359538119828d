"""Tests for types, attributes, the printer/parser round trip and the verifier."""

import pytest
from hypothesis import strategies as st

from repro.dialects import arith, cf, lp, rgn
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import (
    ArrayAttr,
    Block,
    BoolAttr,
    Builder,
    FunctionType,
    InsertionPoint,
    IntegerAttr,
    IntegerType,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    VerificationError,
    box,
    collect_errors,
    i1,
    i8,
    i64,
    parse_module,
    parse_type,
    print_module,
    print_op,
    verify,
)


class TestTypes:
    def test_integer_type_equality(self):
        assert IntegerType(32) == IntegerType(32)
        assert IntegerType(32) != IntegerType(64)
        assert hash(IntegerType(8)) == hash(i8)

    def test_type_printing(self):
        assert str(i64) == "i64"
        assert str(box) == "!lp.t"
        assert str(FunctionType([i64, box], [box])) == "(i64, !lp.t) -> !lp.t"

    def test_parse_simple_types(self):
        assert parse_type("i32") == IntegerType(32)
        assert parse_type("!lp.t") == box
        assert parse_type("index").__class__.__name__ == "IndexType"

    def test_parse_function_type(self):
        t = parse_type("(i64, !lp.t) -> !lp.t")
        assert isinstance(t, FunctionType)
        assert t.inputs == (i64, box)
        assert t.results == (box,)

    def test_parse_invalid_type(self):
        with pytest.raises(ValueError):
            parse_type("notatype!")

    def test_integer_width_validation(self):
        with pytest.raises(ValueError):
            IntegerType(0)


class TestAttributes:
    def test_integer_attr(self):
        attr = IntegerAttr(42)
        assert str(attr) == "42 : i64"
        assert attr == IntegerAttr(42)
        assert attr != IntegerAttr(43)

    def test_string_attr_escaping(self):
        attr = StringAttr('say "hi"')
        assert '\\"' in str(attr)

    def test_array_attr(self):
        attr = ArrayAttr([IntegerAttr(1), IntegerAttr(2)])
        assert len(attr) == 2
        assert attr[0] == IntegerAttr(1)
        assert str(attr) == "[1 : i64, 2 : i64]"

    def test_bool_and_symbol(self):
        assert str(BoolAttr(True)) == "true"
        assert str(SymbolRefAttr("foo")) == "@foo"
        assert str(TypeAttr(i64)) == "i64"


def _length_module():
    from repro.dialects.func import CallOp

    module = ModuleOp()
    func = FuncOp("length", FunctionType([box], [box]))
    module.append(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    arg = func.arguments[0]
    label = builder.create(lp.GetLabelOp, arg)
    switch = builder.create(lp.SwitchOp, label.result(), [0], with_default=True)
    zero_builder = Builder(InsertionPoint.at_end(switch.case_block(0)))
    zero = zero_builder.create(lp.IntOp, 0)
    zero_builder.create(lp.ReturnOp, zero.result())
    default_builder = Builder(InsertionPoint.at_end(switch.default_block))
    tail = default_builder.create(lp.ProjectOp, arg, 1)
    rec = default_builder.create(CallOp, "length", [tail.result()], [box])
    one = default_builder.create(lp.IntOp, 1)
    total = default_builder.create(
        CallOp, "lean_nat_add", [one.result(), rec.result()], [box]
    )
    default_builder.create(lp.ReturnOp, total.result())
    return module


class TestPrinterParser:
    def test_roundtrip_length_module(self):
        module = _length_module()
        text = print_module(module)
        reparsed = parse_module(text)
        assert print_module(reparsed) == text

    def test_parse_produces_registered_ops(self):
        module = _length_module()
        reparsed = parse_module(print_module(module))
        ops = {op.name for op in reparsed.walk()}
        assert "lp.switch" in ops and "lp.construct" not in ops
        switches = [op for op in reparsed.walk() if isinstance(op, lp.SwitchOp)]
        assert switches and switches[0].case_values == [0]

    def test_print_contains_attributes_and_types(self):
        module = _length_module()
        text = print_module(module)
        assert '"lp.switch"' in text
        assert "case_values = [0 : i64]" in text
        assert "(!lp.t) -> !lp.t" in text

    def test_roundtrip_cfg_constructs(self):
        module = ModuleOp()
        func = FuncOp("choose", FunctionType([i1, i64, i64], [i64]))
        module.append(func)
        entry = func.entry_block
        left = Block([i64])
        right = Block([i64])
        func.body.add_block(left)
        func.body.add_block(right)
        entry.append(
            cf.CondBranchOp(
                func.arguments[0],
                left,
                right,
                [func.arguments[1]],
                [func.arguments[2]],
            )
        )
        left.append(ReturnOp([left.arguments[0]]))
        right.append(ReturnOp([right.arguments[0]]))
        verify(module)
        text = print_module(module)
        reparsed = parse_module(text)
        verify(reparsed)
        assert print_module(reparsed) == text

    def test_parse_error_on_garbage(self):
        from repro.ir import ParseError

        with pytest.raises(ParseError):
            parse_module('"func.func" garbage')


class TestVerifier:
    def test_valid_module_verifies(self):
        verify(_length_module())

    def test_missing_terminator_detected(self):
        module = ModuleOp()
        func = FuncOp("f", FunctionType([i64], [i64]))
        module.append(func)
        func.entry_block.append(arith.ConstantOp(1))
        errors = collect_errors(module)
        assert any("terminator" in e for e in errors)

    def test_terminator_not_last_detected(self):
        module = ModuleOp()
        func = FuncOp("f", FunctionType([i64], [i64]))
        module.append(func)
        block = func.entry_block
        block.append(ReturnOp([func.arguments[0]]))
        block.append(arith.ConstantOp(1))
        errors = collect_errors(module)
        assert any("not the last" in e for e in errors)

    def test_dominance_violation_detected(self):
        module = ModuleOp()
        func = FuncOp("f", FunctionType([], [i64]))
        module.append(func)
        block = func.entry_block
        c = arith.ConstantOp(1)
        cmp = arith.CmpIOp("eq", c.result(), c.result())
        # Insert the use before the definition.
        block.append(cmp)
        block.append(c)
        block.append(ReturnOp([cmp.result()]))
        errors = collect_errors(module)
        assert any("dominate" in e for e in errors)

    def test_structural_errors_precede_dominance_errors(self):
        # The dominance violation sits in the first function, the missing
        # terminator in the second: one walk still reports structure first.
        from repro.ir import verify_dominance

        module = ModuleOp()
        first = FuncOp("f", FunctionType([], [i64]))
        module.append(first)
        c = arith.ConstantOp(1)
        cmp = arith.CmpIOp("eq", c.result(), c.result())
        first.entry_block.append(cmp)
        first.entry_block.append(c)
        first.entry_block.append(ReturnOp([cmp.result()]))
        second = FuncOp("g", FunctionType([], [i64]))
        module.append(second)
        second.entry_block.append(arith.ConstantOp(2))
        errors = collect_errors(module)
        assert len(errors) == 3
        assert "terminator" in errors[0]
        assert errors[1:] == verify_dominance(module)
        assert all("dominate" in e for e in errors[1:])

    def test_verify_raises(self):
        module = ModuleOp()
        func = FuncOp("f", FunctionType([i64], [i64]))
        module.append(func)
        func.entry_block.append(arith.ConstantOp(1))
        with pytest.raises(VerificationError):
            verify(module)

    def test_op_specific_verifier(self):
        bad_select = arith.SelectOp.__new__(arith.SelectOp)
        from repro.ir.core import Operation

        a = arith.ConstantOp(1)
        Operation.__init__(
            bad_select,
            operands=[a.result(), a.result(), a.result()],
            result_types=[i64],
        )
        with pytest.raises(ValueError):
            bad_select.verify_()

    def test_region_value_use_restriction(self):
        from repro.dialects.rgn import verify_region_value_uses
        from repro.dialects.func import CallOp

        module = ModuleOp()
        func = FuncOp("f", FunctionType([], [box]))
        module.append(func)
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        val = builder.create(rgn.ValOp)
        inner = Builder(InsertionPoint.at_end(val.body_block))
        c = inner.create(lp.IntOp, 1)
        inner.create(lp.ReturnOp, c.result())
        # Illegally pass the region value to a call.
        builder.create(CallOp, "g", [val.result()], [box])
        builder.create(lp.UnreachableOp)
        errors = verify_region_value_uses(module)
        assert errors and "not select" in errors[0]


class TestDominanceInfo:
    def test_block_dominance(self):
        from repro.ir import DominanceAnalysis

        module = ModuleOp()
        func = FuncOp("f", FunctionType([i1], [i64]))
        module.append(func)
        entry = func.entry_block
        left = Block()
        right = Block()
        join = Block([i64])
        for b in (left, right, join):
            func.body.add_block(b)
        entry.append(cf.CondBranchOp(func.arguments[0], left, right))
        c1 = arith.ConstantOp(1)
        left.append(c1)
        left.append(cf.BranchOp(join, [c1.result()]))
        c2 = arith.ConstantOp(2)
        right.append(c2)
        right.append(cf.BranchOp(join, [c2.result()]))
        join.append(ReturnOp([join.arguments[0]]))
        verify(module)
        analysis = DominanceAnalysis()
        info = analysis.info(func.body)
        assert info.dominates_block(entry, join)
        assert not info.dominates_block(left, join)
        assert info.properly_dominates_block(entry, left)


# ---------------------------------------------------------------------------
# The scoped verifier walk against the dominance oracle
# ---------------------------------------------------------------------------


def _compiled_modules(program):
    """The rgn module (parsed from the captured text, so it is a fresh
    copy) and the CFG module of ``program`` at rc-opt+reuse."""
    from repro.backend.pipeline import MlirCompiler
    from repro.eval.harness import measurement_options
    from repro.lean.printer import print_program

    options = measurement_options("rc-opt+reuse")
    options.capture_ir = ("rgn",)
    artifacts = MlirCompiler(options).compile(print_program(program))
    return parse_module(artifacts.captured_ir["rgn"]), artifacts.cfg_module


def _nested_ops(op):
    """Every op strictly inside ``op``'s regions, in pre-order."""
    return [nested for nested in op.walk() if nested is not op]


def _takes_any_operand(op):
    """Ops whose own ``verify_`` cannot notice an operand swap."""
    from repro.ir.core import Operation

    return bool(op.operands) and type(op).verify_ is Operation.verify_


def _move_below_first_user(rgn_module, _cfg, data):
    from repro.ir import IsTerminator

    candidates = []
    for op in _nested_ops(rgn_module):
        user = op.next_op
        while user is not None and not any(
            operand.owner_op() is op for operand in user.operands
        ):
            user = user.next_op
        if user is not None and not user.has_trait(IsTerminator):
            candidates.append((op, user))
    op, user = data.draw(st.sampled_from(candidates)) if candidates else (None, None)
    if op is None:
        return None
    op.move_after(user)
    return rgn_module, []


def _use_own_result_in_region(rgn_module, _cfg, data):
    candidates = [
        (op, user)
        for op in _nested_ops(rgn_module)
        if op.regions and op.results
        for user in _nested_ops(op)
        if _takes_any_operand(user)
    ]
    if not candidates:
        return None
    op, user = data.draw(st.sampled_from(candidates))
    user.set_operand(0, op.result(0))
    return rgn_module, []


def _use_value_from_sibling_region(rgn_module, _cfg, data):
    holders = [op for op in _nested_ops(rgn_module) if op.regions]
    candidates = [
        (value, user)
        for source in holders
        for target in holders
        if not source.is_ancestor_of(target)
        and not target.is_ancestor_of(source)
        for value in [
            result for op in _nested_ops(source) for result in op.results
        ][:3]
        for user in _nested_ops(target)[:3]
        if _takes_any_operand(user)
    ]
    if not candidates:
        return None
    value, user = data.draw(st.sampled_from(candidates))
    user.set_operand(0, value)
    return rgn_module, []


def _drop_terminator(rgn_module, _cfg, data):
    from repro.ir import IsTerminator, NoTerminatorRequired

    candidates = [
        block
        for op in rgn_module.walk()
        if not op.has_trait(NoTerminatorRequired)
        for region in op.regions
        for block in region.blocks
        if block.last_op is not None and block.last_op.has_trait(IsTerminator)
    ]
    if not candidates:
        return None
    block = data.draw(st.sampled_from(candidates))
    block.last_op.erase()
    parent = block.parent.parent.name
    if block.is_empty:
        return rgn_module, [f"{parent}: empty block requires a terminator"]
    return rgn_module, [
        f"{parent}: block does not end with a terminator "
        f"(last op is {block.last_op.name})"
    ]


def _use_value_across_cf_blocks(_rgn, cfg_module, data):
    from repro.ir import DominanceInfo

    candidates = []
    for func in cfg_module.body:
        region = func.regions[0]
        if len(region.blocks) < 2:
            continue
        info = DominanceInfo(region)
        for source in region.blocks:
            values = [result for op in source for result in op.results][:3]
            for target in region.blocks:
                if info.dominates_block(source, target):
                    continue
                for user in list(target)[:3]:
                    if _takes_any_operand(user):
                        candidates += [(value, user) for value in values]
    if not candidates:
        return None
    value, user = data.draw(st.sampled_from(candidates))
    user.set_operand(0, value)
    return cfg_module, []


INVALIDATIONS = {
    "op-below-its-first-user": _move_below_first_user,
    "own-result-inside-its-region": _use_own_result_in_region,
    "value-from-a-sibling-region": _use_value_from_sibling_region,
    "dropped-terminator": _drop_terminator,
    "value-across-cf-blocks": _use_value_across_cf_blocks,
}


class TestScopedVerifier:
    """``collect_errors`` answers dominance from the set of values in scope
    and asks ``operand_dominance_errors`` only for operands out of scope and
    ops in multi-block regions; ``verify_dominance`` (one precise query per
    op) is the oracle its dominance errors must equal."""

    @pytest.mark.parametrize("invalidation", sorted(INVALIDATIONS))
    def test_dominance_errors_equal_the_oracle(self, invalidation):
        from hypothesis import HealthCheck, assume, given, seed, settings

        from repro.fuzz import typed_programs
        from repro.ir import verify_dominance

        @seed(2022)
        @settings(
            max_examples=25,
            database=None,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(program=typed_programs(), data=st.data())
        def check(program, data):
            rgn_module, cfg_module = _compiled_modules(program)
            assert collect_errors(rgn_module) == []
            assert collect_errors(cfg_module) == []
            broken = INVALIDATIONS[invalidation](rgn_module, cfg_module, data)
            assume(broken is not None)
            module, structural = broken
            oracle = verify_dominance(module)
            assert collect_errors(module) == structural + oracle
            if invalidation != "dropped-terminator":
                assert oracle and all("dominate" in e for e in oracle)

        check()

    def test_structural_messages_keep_their_order(self):
        # One function holds a region op whose block lost its terminator
        # and an op after the function's terminator; a second function's
        # block is empty.  Messages follow the pre-order walk, dominance
        # errors last.
        module = ModuleOp()
        first = FuncOp("f", FunctionType([], [i64]))
        module.append(first)
        value = rgn.ValOp()
        value.body_block.append(arith.ConstantOp(3))
        first.entry_block.append(value)
        c = arith.ConstantOp(1)
        cmp = arith.CmpIOp("eq", c.result(), c.result())
        first.entry_block.append(cmp)
        first.entry_block.append(c)
        first.entry_block.append(ReturnOp([cmp.result()]))
        first.entry_block.append(arith.ConstantOp(2))
        second = FuncOp("g", FunctionType([], [i64]))
        module.append(second)
        assert collect_errors(module) == [
            "func.return: terminator is not the last operation in its block "
            "(inside func.func)",
            "func.func: block does not end with a terminator "
            "(last op is arith.constant)",
            "rgn.val: block does not end with a terminator "
            "(last op is arith.constant)",
            "func.func: empty block requires a terminator",
            "arith.cmpi: operand 0 does not dominate its use",
            "arith.cmpi: operand 1 does not dominate its use",
        ]
