"""Property-style tests for the intrusive block layout (ir.core).

A randomly generated interleaving of ``insert_before`` / ``insert_after`` /
``append`` / ``prepend`` / ``erase`` / ``move_before`` / ``move_after`` /
``detach``+``append`` / ``take_ops_from`` is replayed against a plain Python
list model; after every step the block must

* iterate (forwards and backwards) exactly like the model,
* keep ``first_op``/``last_op``/``len`` consistent,
* keep every linked op ``attached`` and every erased op permanently not,
* satisfy :meth:`Block.check_invariants` (prev/next symmetry, parent
  pointers, cached count, monotone order keys), and
* answer ``is_before_in_block`` exactly like list-index comparison.

A deterministic stress test drives the lazy order-key renumbering by
repeatedly bisecting the same gap, and an end-to-end test checks the
verifier stays clean on IR assembled through interleaved mutations.
"""

from hypothesis import given, settings, strategies as st

from repro.dialects import lp
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp
from repro.ir import FunctionType, verify
from repro.ir.core import Block

COMMANDS = (
    "append",
    "prepend",
    "insert_before",
    "insert_after",
    "erase",
    "move_before",
    "move_after",
    "detach_reappend",
    "take_ops_from",
)

command_lists = st.lists(
    st.tuples(
        st.sampled_from(COMMANDS),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=60,
)


def _new_op(counter: list) -> lp.IntOp:
    counter[0] += 1
    return lp.IntOp(counter[0])


def _check_against_model(block: Block, model: list) -> None:
    block.check_invariants()
    assert list(block) == model
    assert list(reversed(block)) == list(reversed(model))
    assert len(block) == len(model)
    assert block.first_op is (model[0] if model else None)
    assert block.last_op is (model[-1] if model else None)
    assert block.is_empty == (not model)
    for op in model:
        assert op.attached and op.parent is block
    if len(model) >= 2:
        assert model[0].is_before_in_block(model[-1])
        assert not model[-1].is_before_in_block(model[0])


class TestInterleavedMutations:
    @settings(max_examples=60, deadline=None)
    @given(commands=command_lists)
    def test_block_matches_list_model(self, commands):
        block = Block()
        model: list = []
        erased: list = []
        counter = [0]

        for command, a, b in commands:
            if command == "append":
                op = _new_op(counter)
                block.append(op)
                model.append(op)
            elif command == "prepend":
                op = _new_op(counter)
                block.prepend(op)
                model.insert(0, op)
            elif command == "insert_before" and model:
                anchor = model[a % len(model)]
                op = _new_op(counter)
                block.insert_before(op, anchor)
                model.insert(model.index(anchor), op)
            elif command == "insert_after" and model:
                anchor = model[a % len(model)]
                op = _new_op(counter)
                block.insert_after(op, anchor)
                model.insert(model.index(anchor) + 1, op)
            elif command == "erase" and model:
                op = model.pop(a % len(model))
                op.erase()
                erased.append(op)
            elif command in ("move_before", "move_after") and len(model) >= 2:
                i, j = a % len(model), b % len(model)
                if i == j:
                    continue
                mover, anchor = model[i], model[j]
                model.remove(mover)
                if command == "move_before":
                    mover.move_before(anchor)
                    model.insert(model.index(anchor), mover)
                else:
                    mover.move_after(anchor)
                    model.insert(model.index(anchor) + 1, mover)
            elif command == "detach_reappend" and model:
                op = model.pop(a % len(model))
                op.detach()
                assert not op.attached and op.prev_op is None and op.next_op is None
                block.append(op)
                model.append(op)
            elif command == "take_ops_from":
                # Splice a second block's ops onto the end; it is left empty.
                source = Block()
                taken = [source.append(_new_op(counter)) for _ in range(a % 4)]
                block.take_ops_from(source)
                source.check_invariants()
                assert source.is_empty
                model.extend(taken)
            _check_against_model(block, model)
            for op in erased:
                assert op.erased and not op.attached
                assert op.prev_op is None and op.next_op is None

        # Pairwise ordering must agree with the model's index order.
        for i, earlier in enumerate(model):
            for later in model[i + 1:]:
                assert earlier.is_before_in_block(later)
                assert not later.is_before_in_block(earlier)


class TestOrderKeyRenumbering:
    def test_repeated_bisection_forces_renumber(self):
        block = Block()
        first = block.append(lp.IntOp(0))
        last = block.append(lp.IntOp(1))
        # Insert always immediately after `first`: every insertion bisects
        # the same gap, exhausting it after a handful of steps and forcing
        # the lazy renumbering path several times over.
        inserted = []
        for i in range(200):
            op = lp.IntOp(i + 2)
            block.insert_after(op, first)
            inserted.append(op)
        assert first.is_before_in_block(last)
        for earlier, later in zip(reversed(inserted), list(reversed(inserted))[1:]):
            assert earlier.is_before_in_block(later)
        block.check_invariants()
        assert list(block) == [first, *reversed(inserted), last]

    def test_erase_during_iteration_is_safe(self):
        block = Block()
        ops = [block.append(lp.IntOp(i)) for i in range(10)]
        for op in block:
            if op.value % 2 == 0:
                op.erase()
        assert [op.value for op in block] == [1, 3, 5, 7, 9]
        block.check_invariants()


class TestVerifierCleanliness:
    def test_interleaved_assembly_verifies(self):
        module = ModuleOp()
        func = FuncOp("f", FunctionType([], []))
        module.append(func)
        entry = func.entry_block
        ret = entry.append(lp.ReturnOp())
        constants = []
        for i in range(8):
            op = lp.IntOp(i)
            entry.insert_before(op, ret)
            constants.append(op)
        # Shuffle by moves, erase a few, then verify the module is clean.
        constants[0].move_before(ret)
        constants[3].move_after(constants[5])
        constants[1].erase()
        entry.check_invariants()
        verify(module)
        assert entry.terminator is ret
