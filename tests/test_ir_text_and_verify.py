"""Tests for types, attributes, the printer/parser round trip and the verifier."""

import pytest

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
        add = arith.AddIOp(c.result(), c.result())
        # Insert the use before the definition.
        block.append(add)
        block.append(c)
        block.append(ReturnOp([add.result()]))
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
        add = arith.AddIOp(c.result(), c.result())
        first.entry_block.append(add)
        first.entry_block.append(c)
        first.entry_block.append(ReturnOp([add.result()]))
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
