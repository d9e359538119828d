"""Unit tests for the IR core: values, operations, blocks, regions."""

import pytest

from repro.dialects import arith, lp
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import (
    Block,
    Builder,
    InsertionPoint,
    IRMapping,
    Operation,
    Region,
    box,
    i64,
    FunctionType,
)


def make_simple_func(name="f", n_args=1):
    func = FuncOp(name, FunctionType([i64] * n_args, [i64]))
    return func


class TestValuesAndUses:
    def test_op_result_types(self):
        c = arith.ConstantOp(7)
        assert c.result().type == i64
        assert c.num_results == 1

    def test_use_tracking(self):
        c = arith.ConstantOp(1)
        cmp = arith.CmpIOp("eq", c.result(), c.result())
        assert c.result().num_uses == 2
        assert cmp in c.result().users()

    def test_replace_all_uses_with(self):
        a = arith.ConstantOp(1)
        b = arith.ConstantOp(2)
        cmp = arith.CmpIOp("eq", a.result(), a.result())
        a.result().replace_all_uses_with(b.result())
        assert a.result().num_uses == 0
        assert b.result().num_uses == 2
        assert cmp.operands[0] is b.result()

    def test_set_operand_updates_uses(self):
        a = arith.ConstantOp(1)
        b = arith.ConstantOp(2)
        cmp = arith.CmpIOp("eq", a.result(), a.result())
        cmp.set_operand(0, b.result())
        assert a.result().num_uses == 1
        assert b.result().num_uses == 1

    def test_users_distinct(self):
        a = arith.ConstantOp(1)
        cmp = arith.CmpIOp("eq", a.result(), a.result())
        assert a.result().users() == [cmp]


class TestOperationStructure:
    def test_erase_requires_no_uses(self):
        a = arith.ConstantOp(1)
        arith.CmpIOp("eq", a.result(), a.result())
        with pytest.raises(ValueError):
            a.erase()

    def test_erase_drops_operand_uses(self):
        block = Block()
        a = block.append(arith.ConstantOp(1))
        cmp = block.append(arith.CmpIOp("eq", a.result(), a.result()))
        cmp.erase()
        assert a.result().num_uses == 0
        assert len(block.operations) == 1

    def test_move_before_and_after(self):
        block = Block()
        a = block.append(arith.ConstantOp(1))
        b = block.append(arith.ConstantOp(2))
        b.move_before(a)
        assert block.operations == [b, a]
        b.move_after(a)
        assert block.operations == [a, b]

    def test_is_before_in_block(self):
        block = Block()
        a = block.append(arith.ConstantOp(1))
        b = block.append(arith.ConstantOp(2))
        assert a.is_before_in_block(b)
        assert not b.is_before_in_block(a)

    def test_parent_op_chain(self):
        module = ModuleOp()
        func = make_simple_func()
        module.append(func)
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        c = builder.create(arith.ConstantOp, 3)
        assert c.parent_op() is func
        assert func.parent_op() is module
        assert list(c.ancestors()) == [func, module]
        assert module.is_ancestor_of(c)

    def test_attributes_helpers(self):
        c = arith.ConstantOp(1)
        from repro.ir import StringAttr

        c.set_attr("note", StringAttr("hello"))
        assert c.get_attr("note").value == "hello"

    def test_walk_nested(self):
        module = ModuleOp()
        func = make_simple_func()
        module.append(func)
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        c = builder.create(arith.ConstantOp, 3)
        builder.create(ReturnOp, [c.result()])
        names = [op.name for op in module.walk()]
        assert names == ["builtin.module", "func.func", "arith.constant", "func.return"]


class TestClone:
    def test_clone_simple_op(self):
        c = arith.ConstantOp(5)
        clone = c.clone()
        assert clone is not c
        assert clone.value == 5
        assert clone.name == "arith.constant"

    def test_clone_with_mapping(self):
        a = arith.ConstantOp(1)
        b = arith.ConstantOp(2)
        cmp = arith.CmpIOp("eq", a.result(), a.result())
        mapping = IRMapping()
        mapping.map_value(a.result(), b.result())
        clone = cmp.clone(mapping)
        assert clone.operands[0] is b.result()
        assert clone.operands[1] is b.result()

    def test_clone_nested_region(self):
        from repro.dialects import rgn

        val = rgn.ValOp()
        inner = Builder(InsertionPoint.at_end(val.body_block))
        c = inner.create(lp.IntOp, 3)
        inner.create(lp.ReturnOp, c.result())
        clone = val.clone()
        assert len(clone.body_block.operations) == 2
        # Cloned ops reference cloned values, not the originals.
        cloned_ret = clone.body_block.operations[1]
        assert cloned_ret.operands[0] is clone.body_block.operations[0].result()

    def test_clone_records_blocks_and_arguments_in_the_mapping(self):
        from repro.dialects import rgn

        val = rgn.ValOp([box])
        inner = Builder(InsertionPoint.at_end(val.body_block))
        inner.create(lp.ReturnOp, val.body_block.arguments[0])
        mapping = IRMapping()
        clone = val.clone(mapping)
        assert mapping.block_map == {val.body_block: clone.body_block}
        (old_arg,), (new_arg,) = (
            val.body_block.arguments, clone.body_block.arguments
        )
        assert mapping.lookup(old_arg) is new_arg
        assert mapping.lookup(val.result()) is clone.result()
        assert clone.body_block.operations[0].operands == (new_arg,)

    def test_clone_function(self):
        func = make_simple_func()
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        builder.create(ReturnOp, [func.arguments[0]])
        clone = func.clone()
        assert clone.sym_name == "f"
        assert len(clone.entry_block.operations) == 1
        assert clone.entry_block.operations[0].operands[0] is clone.arguments[0]


class TestCloneOfCompiledModules:
    """The direct clone builds what the constructors and linking
    primitives would: printed IR, def-use chains, block links and order
    keys, and counts one mutation per call."""

    @pytest.mark.parametrize("stage", ("rgn", "cfg"))
    def test_clone_is_an_independent_well_formed_copy(self, stage):
        from repro.backend.pipeline import MlirCompiler, PipelineOptions
        from repro.eval.benchmarks import benchmark_sources
        from repro.ir.core import mutation_count
        from repro.ir.printer import print_module
        from repro.ir.verifier import verify

        options = PipelineOptions(capture_ir=("rgn",))
        artifacts = MlirCompiler(options).compile(benchmark_sources()["qsort"])
        if stage == "rgn":
            from repro.ir.parser import parse_module

            module = parse_module(artifacts.captured_ir["rgn"])
        else:
            module = artifacts.cfg_module
        original_uses = {
            id(value): len(value.uses)
            for op in module.walk() for value in op.results
        }
        before = mutation_count()
        clone = module.clone()
        assert mutation_count() == before + 1
        assert print_module(clone) == print_module(module)
        verify(clone)
        originals = {id(op) for op in module.walk()}
        clone_blocks = set()
        for op in clone.walk():
            assert id(op) not in originals
            for region in op.regions:
                assert region.parent is op
                for block in region.blocks:
                    assert block.parent is region
                    block.check_invariants()
                    clone_blocks.add(block)
                    for index, argument in enumerate(block.arguments):
                        assert argument.block is block
                        assert argument.index == index
            for index, value in enumerate(op.operands):
                assert any(
                    use.owner is op and use.index == index
                    for use in value.uses
                )
            for index, result in enumerate(op.results):
                assert result.op is op and result.index == index
                assert all(id(use.owner) not in originals for use in result.uses)
        for op in clone.walk():
            assert all(block in clone_blocks for block in op.successors)
        assert original_uses == {
            id(value): len(value.uses)
            for op in module.walk() for value in op.results
        }


class TestBlocksAndRegions:
    def test_block_arguments(self):
        block = Block([i64, box])
        assert len(block.arguments) == 2
        assert block.arguments[0].index == 0
        assert block.arguments[1].type == box

    def test_predecessors_successors(self):
        from repro.dialects import cf

        func = make_simple_func()
        entry = func.entry_block
        target = Block()
        func.body.add_block(target)
        entry.append(cf.BranchOp(target))
        target.append(ReturnOp([func.arguments[0]]))
        assert entry.successors() == [target]
        assert target.predecessors() == [entry]

    def test_region_single_block_helper(self):
        region = Region()
        region.add_block(Block())
        assert region.single_block() is region.blocks[0]
        region.add_block(Block())
        with pytest.raises(ValueError):
            region.single_block()

    def test_block_erase(self):
        func = make_simple_func()
        extra = Block()
        func.body.add_block(extra)
        extra.append(arith.ConstantOp(1))
        extra.erase()
        assert len(func.body.blocks) == 1

    def test_region_op_count(self):
        func = make_simple_func()
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        builder.create(arith.ConstantOp, 1)
        builder.create(ReturnOp, [func.arguments[0]])
        assert func.body.op_count() == 2


class TestBuilder:
    def test_insertion_before_after(self):
        block = Block()
        a = block.append(arith.ConstantOp(1))
        builder = Builder(InsertionPoint.before(a))
        b = builder.create(arith.ConstantOp, 2)
        assert block.operations == [b, a]
        builder.set_insertion_point_after(a)
        c = builder.create(arith.ConstantOp, 3)
        assert block.operations == [b, a, c]

    def test_builder_requires_insertion_point(self):
        builder = Builder()
        with pytest.raises(ValueError):
            builder.insert(arith.ConstantOp(1))
