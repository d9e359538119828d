"""Tests for the simulated LEAN runtime: heap, closures, builtins."""

import sys
from contextlib import contextmanager

import pytest

from repro.interp.bytecode import VirtualMachine, compile_rc_program
from repro.lambda_pure import ir as rc_ir
from repro.runtime import (
    BUILTINS,
    FALSE,
    TRUE,
    BigIntObject,
    Heap,
    RuntimeContext,
    RuntimeError_,
    call_builtin,
    extend_closure,
    int_value,
    is_builtin,
    make_closure,
    python_value,
    tag_of,
)

#: Every comparison builtin (``lean_nat_dec_*`` and ``lean_int_dec_*``).
COMPARISONS = sorted(
    name for name in BUILTINS
    if name.startswith(("lean_nat_dec_", "lean_int_dec_"))
)


class TestHeapAndValues:
    def test_small_ints_are_scalars(self):
        heap = Heap()
        v = heap.alloc_int(42)
        assert type(v) is int and v == 42
        assert heap.live_count == 0

    def test_large_ints_are_heap_objects(self):
        heap = Heap()
        v = heap.alloc_int(10**30)
        assert heap.live_count == 1
        heap.dec(v)
        assert heap.live_count == 0

    def test_scalar_range_ends_below_two_to_the_62(self):
        heap = Heap()
        for value in (2**62 - 1, -(2**62 - 1)):
            assert type(heap.alloc_int(value)) is int
        assert heap.live_count == 0
        for value in (2**62, -(2**62)):
            boxed = heap.alloc_int(value)
            assert isinstance(boxed, BigIntObject) and boxed.value == value
            heap.dec(boxed)
        heap.check_balanced()

    def test_nullary_constructors_are_enums(self):
        heap = Heap()
        v = heap.alloc_ctor(3, [])
        assert type(v) is int and v == 3
        assert tag_of(v) == 3
        assert heap.live_count == 0

    def test_fieldless_reuse_yields_the_tag(self):
        heap = Heap()
        token = heap.reset(heap.alloc_ctor(1, [5]))
        v = heap.reuse(token, 2, [])
        assert type(v) is int and v == 2
        heap.check_balanced()

    def test_ctor_free_releases_fields(self):
        heap = Heap()
        inner = heap.alloc_ctor(1, [heap.alloc_int(10**30)])
        outer = heap.alloc_ctor(2, [inner])
        assert heap.live_count == 3
        heap.dec(outer)
        assert heap.live_count == 0
        assert heap.stats.frees == 3

    def test_inc_keeps_object_alive(self):
        heap = Heap()
        obj = heap.alloc_ctor(0, [1])
        heap.inc(obj)
        heap.dec(obj)
        assert heap.live_count == 1
        heap.dec(obj)
        assert heap.live_count == 0

    def test_double_free_detected(self):
        heap = Heap()
        obj = heap.alloc_ctor(0, [1])
        heap.dec(obj)
        with pytest.raises(RuntimeError_):
            heap.dec(obj)

    def test_leak_detected(self):
        heap = Heap()
        heap.alloc_ctor(0, [1])
        with pytest.raises(RuntimeError_):
            heap.check_balanced()

    def test_scalar_rc_is_noop(self):
        heap = Heap()
        heap.inc(5)
        heap.dec(5)
        heap.check_balanced()
        # Still counted: the statistics do not depend on the representation.
        assert heap.stats.inc_ops == 1
        assert heap.stats.dec_ops == 1

    def test_python_value_conversion(self):
        heap = Heap()
        ctor = heap.alloc_ctor(1, [3, 0])
        assert python_value(ctor) == (1, (3, 0))
        assert python_value(7) == 7

    def test_statistics(self):
        heap = Heap()
        a = heap.alloc_ctor(0, [1])
        heap.inc(a)
        heap.dec(a)
        heap.dec(a)
        stats = heap.stats.as_dict()
        assert stats["allocations"] == 1
        assert stats["frees"] == 1
        assert stats["peak_live"] == 1


@contextmanager
def _default_recursion_limit():
    """Run the body under CPython's default recursion limit (1000)."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def _chain_program(cells):
    """λrc: ``main`` builds a ``cells``-long constructor chain through
    ``build``, drops it with one ``dec`` and returns 0."""
    step = rc_ir.Let("one", rc_ir.Lit(1), rc_ir.Let(
        "m", rc_ir.Call("lean_nat_sub", ["n", "one"]), rc_ir.Let(
            "cell", rc_ir.Ctor(1, ["n", "acc"]), rc_ir.Let(
                "r", rc_ir.Call("build", ["m", "cell"]), rc_ir.Ret("r")))))
    build = rc_ir.Let("zero", rc_ir.Lit(0), rc_ir.Let(
        "done", rc_ir.Call("lean_nat_dec_eq", ["n", "zero"]),
        rc_ir.Case("done", alts=[
            rc_ir.CaseAlt(FALSE, "Bool.false", step),
            rc_ir.CaseAlt(TRUE, "Bool.true", rc_ir.Ret("acc")),
        ])))
    main = rc_ir.Let("n", rc_ir.Lit(cells), rc_ir.Let(
        "nil", rc_ir.Ctor(0, []), rc_ir.Let(
            "xs", rc_ir.Call("build", ["n", "nil"]),
            rc_ir.Dec("xs", rc_ir.Let("r", rc_ir.Lit(0), rc_ir.Ret("r"))))))
    program = rc_ir.Program()
    program.add_function(rc_ir.Function("build", ["n", "acc"], build))
    program.add_function(rc_ir.Function("main", [], main))
    return program


class TestDeepFree:
    """Freeing never recurses per cell: ``filter``'s list at the xlarge
    tier is far longer than the default recursion limit."""

    CELLS = 100_000

    def test_heap_frees_a_long_chain(self):
        heap = Heap()
        chain = heap.alloc_ctor(0, [])
        for value in range(self.CELLS):
            chain = heap.alloc_ctor(1, [value, chain])
        with _default_recursion_limit():
            heap.dec(chain)
        heap.check_balanced()
        assert heap.stats.frees == self.CELLS

    def test_vm_frees_a_long_chain(self):
        with _default_recursion_limit():
            vm = VirtualMachine(compile_rc_program(_chain_program(self.CELLS)))
            result = vm.run_main(check_heap=True)
        assert result.value == 0
        assert result.heap_stats["allocations"] == self.CELLS
        assert result.heap_stats["frees"] == self.CELLS


class TestClosures:
    def test_unsaturated_extension_returns_new_closure(self):
        heap = Heap()
        closure = make_closure(heap, "f", 3, [1])
        outcome = extend_closure(heap, closure, [2])
        assert not outcome.is_call
        assert outcome.closure.args and len(outcome.closure.args) == 2
        heap.dec(outcome.closure)
        heap.check_balanced()

    def test_saturating_extension_requests_call(self):
        heap = Heap()
        closure = make_closure(heap, "f", 2, [1])
        outcome = extend_closure(heap, closure, [2])
        assert outcome.is_call
        assert outcome.call_fn == "f"
        assert [int_value(v) for v in outcome.call_args] == [1, 2]
        heap.check_balanced()

    def test_over_saturating_extension_reports_extra_args(self):
        heap = Heap()
        closure = make_closure(heap, "f", 1, [])
        outcome = extend_closure(heap, closure, [1, 2])
        assert outcome.is_call
        assert outcome.extra_args and int_value(outcome.extra_args[0]) == 2

    def test_shared_closure_extension_keeps_original(self):
        heap = Heap()
        closure = make_closure(heap, "f", 3, [1])
        heap.inc(closure)  # two owners
        outcome = extend_closure(heap, closure, [2])
        assert heap.live_count == 2  # original + extended copy
        heap.dec(closure)
        heap.dec(outcome.closure)
        heap.check_balanced()

    def test_pap_arity_check(self):
        heap = Heap()
        with pytest.raises(RuntimeError_):
            make_closure(heap, "f", 1, [1, 2])


class TestBuiltins:
    def setup_method(self):
        self.ctx = RuntimeContext()

    def call(self, name, *args):
        return call_builtin(self.ctx, name, list(args))

    def test_nat_arithmetic(self):
        assert int_value(self.call("lean_nat_add", 2, 3)) == 5
        assert int_value(self.call("lean_nat_sub", 2, 5)) == 0
        assert int_value(self.call("lean_nat_mul", 6, 7)) == 42
        assert int_value(self.call("lean_nat_div", 7, 2)) == 3
        assert int_value(self.call("lean_nat_mod", 7, 2)) == 1

    def test_int_division_truncates_towards_zero(self):
        assert int_value(self.call("lean_int_div", -7, 2)) == -3
        assert int_value(self.call("lean_int_mod", -7, 2)) == -1

    def test_small_results_are_unboxed(self):
        for name in ("lean_nat_add", "lean_nat_sub", "lean_int_mul", "lean_int_div"):
            assert type(self.call(name, 7, 2)) is int
        assert type(self.call("lean_int_neg", 7)) is int

    def test_results_promote_at_two_to_the_62(self):
        big = self.call("lean_nat_add", 2**62 - 1, 1)
        assert isinstance(big, BigIntObject) and big.value == 2**62
        small = self.call("lean_nat_sub", big, 1)
        assert type(small) is int and small == 2**62 - 1
        negative = self.call("lean_int_sub", -(2**62 - 1), 1)
        assert isinstance(negative, BigIntObject)
        assert negative.value == -(2**62)
        self.ctx.release(negative)
        self.ctx.heap.check_balanced()

    def test_comparisons_return_bool_enums(self):
        assert self.call("lean_nat_dec_lt", 1, 2) == TRUE
        assert self.call("lean_nat_dec_eq", 1, 2) == FALSE

    @pytest.mark.parametrize("name", COMPARISONS)
    def test_comparison_results_are_ints_not_bools(self, name):
        big = self.ctx.heap.alloc_int(10**30)
        for args in ((1, 2), (2, 1), (2, 2), (big, 1)):
            result = self.call(name, *args)
            assert type(result) is int and result in (TRUE, FALSE)
        self.ctx.heap.check_balanced()

    def test_bool_value_is_an_int(self):
        assert type(self.ctx.bool_value(True)) is int
        assert type(self.ctx.bool_value(False)) is int
        assert self.ctx.bool_value(True) == TRUE
        assert self.ctx.bool_value(False) == FALSE

    def test_bigint_arguments_released(self):
        big = self.ctx.heap.alloc_int(10**30)
        result = self.call("lean_nat_add", big, 1)
        self.ctx.release(result)
        self.ctx.heap.check_balanced()

    def test_unknown_builtin_rejected(self):
        assert not is_builtin("lean_does_not_exist")
        with pytest.raises(RuntimeError_):
            self.call("lean_does_not_exist")

    def test_array_push_get_set_size(self):
        array = self.call("lean_array_mk")
        array = self.call("lean_array_push", array, 10)
        array = self.call("lean_array_push", array, 20)
        assert int_value(self.call("lean_array_size", self._share(array))) == 2
        value = self.call("lean_array_get", self._share(array), 1)
        assert int_value(value) == 20
        array = self.call("lean_array_set", array, 0, 99)
        value = self.call("lean_array_get", self._share(array), 0)
        assert int_value(value) == 99
        self.ctx.release(array)
        self.ctx.heap.check_balanced()

    def _share(self, value):
        """Model an ``inc`` before a consuming use of a still-needed value."""
        self.ctx.heap.inc(value)
        return value

    def test_unique_array_updates_in_place(self):
        array = self.call("lean_array_mk")
        array = self.call("lean_array_push", array, 1)
        before = id(array)
        array = self.call("lean_array_push", array, 2)
        assert id(array) == before  # rc == 1, reused in place
        self.ctx.release(array)

    def test_shared_array_copied_on_write(self):
        array = self.call("lean_array_mk")
        array = self.call("lean_array_push", array, 1)
        self.ctx.heap.inc(array)
        updated = self.call("lean_array_set", array, 0, 5)
        assert updated is not array
        assert int_value(array.items[0]) == 1
        assert int_value(updated.items[0]) == 5
        self.ctx.release(array)
        self.ctx.release(updated)
        self.ctx.heap.check_balanced()

    def test_array_bounds_checked(self):
        array = self.call("lean_array_mk")
        with pytest.raises(RuntimeError_):
            self.call("lean_array_get", array, 3)

    def test_array_swap(self):
        array = self.call("lean_array_mk")
        for v in (1, 2, 3):
            array = self.call("lean_array_push", array, v)
        array = self.call("lean_array_swap", array, 0, 2)
        assert [int_value(v) for v in array.items] == [3, 2, 1]
        self.ctx.release(array)

    def test_io_println_captures_output(self):
        result = self.call("lean_io_println", 42)
        assert self.ctx.output == ["42"]
        assert type(result) is int and result == 0

    def test_nat_to_int_and_back(self):
        assert int_value(self.call("lean_nat_to_int", 5)) == 5
        assert int_value(self.call("lean_int_to_nat", -5)) == 0
