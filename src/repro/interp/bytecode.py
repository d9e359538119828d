"""Register-based bytecode execution engine for the evaluation interpreters.

The tree-walking interpreters (:class:`~repro.interp.cfg_interp.
CfgInterpreter` and :class:`~repro.interp.rc_interp.RcInterpreter`) re-walk
the IR object graph on every call: each operation is re-dispatched through a
long ``isinstance`` chain, every SSA value / λrc variable is a dictionary
key, and environments are copied per ``let`` / block transfer.  Following
MLIR's split between the IR and its execution engines, this module compiles
a module **once** into flat per-function instruction arrays and executes
them with a compact VM loop:

* *registers* — every SSA value (or λrc variable binding) gets a dense
  integer slot; a frame is a plain Python list, parameters occupy slots
  ``0..n-1``,
* *pre-resolved control flow* — branch targets are instruction indices,
  ``cf.switch`` / λrc ``case`` dispatch through a precomputed value→pc
  dict, block-argument forwarding is a register parallel-copy baked into
  the jump instruction,
* *pre-resolved calls* — a direct call holds the callee's compiled
  function object (no name lookup at run time); runtime builtins and
  unknown symbols are classified at compile time,
* *precomputed cost charges* — every instruction knows its cost-model
  category up front; only genuinely dynamic charges (``lp.reuse`` tokens,
  closure application chains) are decided while running.

Both IR levels compile to the **same instruction set** and share one
:class:`VirtualMachine` loop: :func:`compile_cfg_module` translates the
final CFG-form MLIR module, :func:`compile_rc_program` translates a λrc
program (join points become jump labels, ``case`` becomes the dispatch
instruction).  The VM charges exactly the events the corresponding
tree-walker charges, so results, :class:`~repro.interp.metrics.
ExecutionMetrics` and heap statistics are identical — the tree-walkers
survive as differential oracles (``execution_engine="tree"``).

Four execution-speed levers sit on top of that contract:

* *superinstructions* — :func:`fuse_program` runs a peephole over the
  compiled code arrays that collapses adjacent pairs the compilers emit
  into single fused opcodes: constructor-tag dispatch
  (``getlabel``; ``const``; ``cmp``; ``cond_br``), projection and RC
  runs, a projection feeding a call, and a call in return position.
  Fusion is driven by the declarative :data:`FUSION_RULES` table — a
  new pair is one more table entry — and a fused instruction charges
  *exactly* the cost-model events of the unfused sequence, so metrics
  stay byte-identical.  A rule earns its entry by firing on compiled
  programs; ``tests/test_execution_engine.py`` fails on one that never
  does.
* *direct threading with block chains* — the VM precompiles every
  instruction to a bound closure capturing its operands, so the run loop
  is ``pc = ops[pc](regs)``.  A closure that falls through calls the next
  instruction's closure itself, so one loop turn runs a basic block (or
  its part up to a call); :data:`CHAIN_LIMIT` bounds the Python depth of
  a chain, and a call site leaves the pc its caller resumes at for the
  loop.  No closure counts itself: the loop counts the chains it enters,
  and each site's executions are derived from those entries when a run
  ends.
* *an explicit call stack* — ``call``/``ret`` push and pop VM frames
  inside the run loop instead of recursing in Python, and so does
  closure application, so deep recursion never rides
  ``sys.setrecursionlimit`` and
  :class:`~repro.resilience.budgets.ExecutionBudget` counts VM frames,
  not Python depth.  A call site builds its callee's register frame
  itself, and a ``tailcall`` (a ``call`` whose result the next
  instruction returns) replaces the current frame instead of stacking a
  new one, so a tail-recursive loop runs in constant frame memory.
* *scalar-specialised runtime work* — threaded ``rtcall``,
  ``inc_rtcall`` and ``rtcall_cmp_br`` sites of the :data:`SCALAR_RTCALLS`
  builtins (Nat/Int arithmetic, division and the comparisons) compute on
  unboxed ``int`` operands inside the closure and call the generic builtin
  otherwise, with the generic call's values, heap statistics and charges.
  Likewise ``inc``/``dec`` of an ``int`` bump the heap's statistic in
  place, tag reads happen inline, and so does reference counting of a
  live constructor cell whose count stays positive (and an ``inc`` of a
  live array): only a free, an error or another heap kind calls
  ``Heap.inc``/``Heap.dec``.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dialects import arith, cf, lp
from ..dialects.builtin import ModuleOp
from ..dialects.func import CallOp, FuncOp, ReturnOp
from ..lambda_pure import ir as rc_ir
from ..runtime import (
    BUILTINS,
    FALSE,
    SCALAR_INT_LIMIT,
    TRUE,
    ArrayObject,
    CtorObject,
    RuntimeContext,
    RuntimeError_,
    call_builtin,
    extend_closure,
    is_builtin,
    make_closure,
    python_value,
    tag_of,
)
from ..runtime.builtins import int_div, int_mod, nat_div, nat_mod
from ..resilience.budgets import ExecutionBudget
from ..resilience.faults import active_plan, fault_hit
from ..telemetry import get_metrics, get_tracer
from .metrics import DEFAULT_COSTS, ExecutionMetrics, RunResult

#: The execution engines understood by the pipeline layer.
EXECUTION_ENGINES = ("vm", "tree")


class BytecodeError(Exception):
    """Raised when a module cannot be compiled to bytecode."""


# ---------------------------------------------------------------------------
# Instruction set
# ---------------------------------------------------------------------------
# An instruction is a plain tuple whose first element is one of the opcode
# integers below.  Register operands are indices into the frame list; a
# destination of -1 discards the produced value.  Branch operands are
# absolute instruction indices within the function's code array.  Each
# opcode's cost-model charge is its row of ``_STATIC_CHARGES``.

OP_RET = 0          # (op, src)
OP_JMP = 1          # (op, pc, srcs, dsts)
OP_CONDBR = 2       # (op, cond, tpc, tsrcs, tdsts, fpc, fsrcs, fdsts)
OP_SWITCH = 3       # (op, flag, {value: pc}, default_pc)
OP_CASE = 4         # (op, src, {tag: pc}, default_pc|None)
OP_UNREACHABLE = 5  # (op, message)
OP_CONST = 6        # (op, dst, value)
OP_INT = 7          # (op, dst, value)
OP_BIGINT = 8       # (op, dst, value)
OP_CONSTRUCT = 9    # (op, dst, tag, field_regs, category)
OP_GETLABEL = 10    # (op, dst, src)
OP_PROJ = 11        # (op, dst, src, index)
OP_PAP = 12         # (op, dst, callee, arity|None, arg_regs)
OP_PAPEXTEND = 13   # (op, dst, closure, arg_regs)
OP_INC = 14         # (op, src, count)
OP_DEC = 15         # (op, src, count)
OP_RESET = 16       # (op, dst, src)
OP_REUSE = 17       # (op, dst, token, tag, field_regs)
OP_CALL = 18        # (op, dst, BytecodeFunction, arg_regs)
OP_RTCALL = 19      # (op, dst, name, arg_regs)
OP_BADCALL = 20     # (op, name)
OP_CMP = 21         # (op, dst, fn, lhs, rhs)

# Superinstructions (emitted only by the fusion peephole, never by the
# frontends).  Each charges exactly the events of its unfused pair; the
# first instruction's destination register is still written, so fusion
# needs no liveness analysis.
OP_CONST_CMP = 22         # (op, cdst, value, dst, fn, lhs, rhs)
OP_PROJ_CALL = 23         # (op, pdst, psrc, pindex, cdst, BytecodeFunction, arg_regs)

# Chain superinstructions — second-pass fusions over already-fused
# opcodes (the peephole runs to fixpoint), covering the hottest dynamic
# sequences of the benchmark suite: constructor-tag dispatch
# (getlabel; const; cmp; cond_br) and RC/projection runs.
OP_CONST_CMP_CONDBR = 24  # (op, cdst, value, dst, fn, lhs, rhs,
                          #  tpc, tsrcs, tdsts, fpc, fsrcs, fdsts)
OP_GETLABEL_CMP_CONDBR = 25  # (op, gdst, gsrc, cdst, value, dst, fn, lhs,
                             #  rhs, tpc, tsrcs, tdsts, fpc, fsrcs, fdsts)
OP_PROJ_PROJ = 26         # (op, d1, s1, i1, d2, s2, i2)
OP_INT_INC = 27           # (op, dst, value, src, count)
OP_DEC_DEC = 28           # (op, s1, c1, s2, c2)
OP_INC_RTCALL = 29        # (op, src, count, dst, name, arg_regs)
OP_DEC_INC = 30           # (op, dsrc, dcount, isrc, icount)
OP_PROJ3 = 31             # (op, d1, s1, i1, d2, s2, i2, d3, s3, i3)
OP_PROJ4 = 32             # (op, d1, s1, i1, ..., d4, s4, i4)
# A call whose result the next instruction returns: the callee's frame
# replaces the caller's instead of stacking on it.
OP_TAILCALL = 33          # (op, BytecodeFunction, arg_regs)
# A scalar-comparison rtcall whose Bool result a tag dispatch reads.
OP_RTCALL_CMP_BR = 34     # (op, rdst, name, arg_regs) + the getlabel_cmp_br
                          #  operands

#: Human-readable opcode names (docs/EXECUTION.md and the unit tests).
OPCODE_NAMES = {
    OP_RET: "ret", OP_JMP: "jmp", OP_CONDBR: "cond_br", OP_SWITCH: "switch",
    OP_CASE: "case", OP_UNREACHABLE: "unreachable", OP_CONST: "const",
    OP_INT: "int", OP_BIGINT: "bigint", OP_CONSTRUCT: "construct",
    OP_GETLABEL: "getlabel", OP_PROJ: "proj", OP_PAP: "pap",
    OP_PAPEXTEND: "papextend", OP_INC: "inc", OP_DEC: "dec",
    OP_RESET: "reset", OP_REUSE: "reuse", OP_CALL: "call",
    OP_RTCALL: "rtcall", OP_BADCALL: "badcall", OP_CMP: "cmp",
    OP_CONST_CMP: "const_cmp", OP_PROJ_CALL: "proj_call",
    OP_CONST_CMP_CONDBR: "const_cmp_br",
    OP_GETLABEL_CMP_CONDBR: "getlabel_cmp_br", OP_PROJ_PROJ: "proj_proj",
    OP_INT_INC: "int_inc", OP_DEC_DEC: "dec_dec",
    OP_INC_RTCALL: "inc_rtcall", OP_DEC_INC: "dec_inc",
    OP_PROJ3: "proj3", OP_PROJ4: "proj4", OP_TAILCALL: "tailcall",
    OP_RTCALL_CMP_BR: "rtcall_cmp_br",
}

#: Size of the per-VM opcode frequency table.
NUM_OPCODES = len(OPCODE_NAMES)

#: Comparison predicates resolved to callables (semantics of
#: :func:`repro.dialects.arith.evaluate_cmpi`; drift-tested likewise).
_CMP_FNS: Dict[str, Callable[[int, int], int]] = {
    "eq": lambda a, b: 1 if a == b else 0,
}

#: Runtime builtins whose threaded ``rtcall`` closure computes the result
#: itself when both operands are unboxed ``int``s: name -> (shape,
#: operator).  ``nat`` results clamp at 0, ``int`` results do not, ``cmp``
#: results are the ``Bool`` tags.  A result at or beyond
#: ±``SCALAR_INT_LIMIT`` goes through ``Heap.alloc_int`` and any other
#: operand (a ``BigIntObject``) through the generic builtin, so values and
#: heap statistics are the generic call's; the site's charge is the static
#: ``runtime_call`` either way.  The division operators are the generic
#: builtins' own functions, zero divisors included.
SCALAR_RTCALLS: Dict[str, Tuple[str, Callable[[int, int], object]]] = {
    "lean_nat_add": ("nat", operator.add),
    "lean_nat_sub": ("nat", operator.sub),
    "lean_nat_mul": ("nat", operator.mul),
    "lean_nat_div": ("nat", nat_div),
    "lean_nat_mod": ("nat", nat_mod),
    "lean_int_add": ("int", operator.add),
    "lean_int_sub": ("int", operator.sub),
    "lean_int_mul": ("int", operator.mul),
    "lean_int_div": ("int", int_div),
    "lean_int_mod": ("int", int_mod),
    **{
        f"lean_{domain}_dec_{predicate}": ("cmp", getattr(operator, predicate))
        for domain in ("nat", "int")
        for predicate in ("eq", "ne", "lt", "le", "gt", "ge")
    },
}


#: The most closures a chain runs nested in Python: a straight-line run
#: longer than this is cut by a :func:`_goto` closure, so the Python stack
#: stays shallow however long a basic block is.
CHAIN_LIMIT = 32


def _goto(pc: int) -> Callable:
    """A chain-cutting closure: it hands ``pc`` back to the loop."""
    def op(regs, t=pc):
        return t
    return op


def _scalar_rtcall(scalar, slow, ctx, alloc, dst, args, nxt):
    """The threaded closure of an ``rtcall`` site in :data:`SCALAR_RTCALLS`:
    ``int`` operands are computed here, any other goes to ``slow`` (the
    generic builtin)."""
    shape, fn = scalar
    lhs, rhs = args
    if shape == "cmp":
        def op(regs, d=dst, a=lhs, b=rhs, f=fn, slow=slow, ctx=ctx, int_=int,
               yes=TRUE, no=FALSE, n=nxt):
            x = regs[a]
            y = regs[b]
            if x.__class__ is int_ and y.__class__ is int_:
                regs[d] = yes if f(x, y) else no
            else:
                regs[d] = slow(ctx, [x, y])
            return n(regs)
    elif shape == "nat":
        def op(regs, d=dst, a=lhs, b=rhs, f=fn, slow=slow, ctx=ctx,
               alloc=alloc, int_=int, lim=SCALAR_INT_LIMIT, n=nxt):
            x = regs[a]
            y = regs[b]
            if x.__class__ is int_ and y.__class__ is int_:
                r = f(x, y)
                if r < 0:
                    r = 0
                regs[d] = r if r < lim else alloc(r)
            else:
                regs[d] = slow(ctx, [x, y])
            return n(regs)
    else:
        def op(regs, d=dst, a=lhs, b=rhs, f=fn, slow=slow, ctx=ctx,
               alloc=alloc, int_=int, lim=SCALAR_INT_LIMIT, n=nxt):
            x = regs[a]
            y = regs[b]
            if x.__class__ is int_ and y.__class__ is int_:
                r = f(x, y)
                regs[d] = r if -lim < r < lim else alloc(r)
            else:
                regs[d] = slow(ctx, [x, y])
            return n(regs)
    return op


def _rtcall_cmp_br_site(ins, ctx, counts, charge):
    """The threaded closure of an ``rtcall_cmp_br`` site: the comparison,
    computed here on ``int`` operands as :func:`_scalar_rtcall` does, then
    the tag dispatch on its ``Bool`` result, which is its own tag.  Every
    register the unfused pair writes is written.  If the generic builtin
    raises, the unfused sequence stops at the ``rtcall``: the dispatch's
    charges are taken back."""
    (_, rdst, name, (lhs, rhs), gdst, _, cdst, value, dst, _, _, _,
     tpc, _, _, fpc, _, _) = ins
    def op(regs, rd=rdst, a=lhs, b=rhs, f=SCALAR_RTCALLS[name][1],
           slow=BUILTINS[name], ctx=ctx, gd=gdst, cd=cdst, v=value, d=dst,
           tpc=tpc, fpc=fpc, ch=charge, cnt=counts, int_=int, yes=TRUE,
           no=FALSE):
        x = regs[a]
        y = regs[b]
        if x.__class__ is int_ and y.__class__ is int_:
            tag = yes if f(x, y) else no
        else:
            try:
                tag = slow(ctx, [x, y])
            except BaseException:
                cnt["getlabel"] -= 1
                cnt["const"] -= 1
                cnt["arith"] -= 1
                cnt["branch"] -= 1
                raise
        regs[rd] = tag
        regs[gd] = tag
        regs[cd] = v
        if ch is not None:
            ch()
        if tag == v:
            regs[d] = 1
            return tpc
        regs[d] = 0
        return fpc
    return op


def _rtcall_site(dst, name, argr, ctx, nxt):
    """The threaded closure of an ``rtcall`` site.  The builtin is resolved
    here: ``BUILTINS`` is sealed at import time, so a per-call name lookup
    would be dead weight.  An unknown name keeps ``call_builtin``'s error,
    raised when the site runs."""
    impl = BUILTINS.get(name)
    scalar = SCALAR_RTCALLS.get(name)
    if scalar is not None and dst >= 0 and len(argr) == 2:
        return _scalar_rtcall(
            scalar, impl, ctx, ctx.heap.alloc_int, dst, argr, nxt
        )
    if impl is None:
        def impl(ctx, args, name=name):
            return call_builtin(ctx, name, args)
    if dst >= 0 and len(argr) == 2:
        # Two registers read without a comprehension, which is a call of
        # its own before 3.12.
        def op(regs, d=dst, fn_=impl, a=argr[0], b=argr[1], ctx=ctx, n=nxt):
            regs[d] = fn_(ctx, [regs[a], regs[b]])
            return n(regs)
    elif dst >= 0:
        def op(regs, d=dst, fn_=impl, argr=argr, ctx=ctx, n=nxt):
            regs[d] = fn_(ctx, [regs[r] for r in argr])
            return n(regs)
    else:
        def op(regs, fn_=impl, argr=argr, ctx=ctx, n=nxt):
            fn_(ctx, [regs[r] for r in argr])
            return n(regs)
    return op


def _inc_rtcall_site(src, count, heap, counts, rtcall):
    """The threaded closure of an ``inc_rtcall`` site: the ``inc``, then
    ``rtcall``, the :func:`_rtcall_site` closure of the same site.  The
    ``inc`` of an unboxed ``int`` only bumps ``inc_ops``, and that of a
    live constructor cell or array bumps its ``rc`` too; an ``inc`` that
    raises takes back the builtin's charge, as the unfused sequence stops
    there."""
    def op(regs, src=src, k=count, inc=heap.inc, st=heap.stats, cnt=counts,
           then=rtcall, int_=int, ctor=CtorObject, arr=ArrayObject):
        value = regs[src]
        cls = value.__class__
        if cls is int_:
            st.inc_ops += 1
        elif (cls is ctor or cls is arr) and not value.freed:
            value.rc += k
            st.inc_ops += 1
        else:
            try:
                inc(value, k)
            except RuntimeError_:
                cnt["runtime_call"] -= 1
                raise
        return then(regs)
    return op


def _construct_site(ins, heap, nxt):
    """The threaded closure of a ``construct`` site: ``Heap.alloc_ctor``,
    inline.  One or two fields are read without a comprehension, which is
    a call of its own before 3.12; a field-less constructor is its
    unboxed tag."""
    _, dst, tag, fields, _ = ins
    if not fields:
        def op(regs, d=dst, tag=tag, n=nxt):
            regs[d] = tag
            return n(regs)
    elif len(fields) == 1:
        def op(regs, d=dst, tag=tag, a=fields[0], ctor=CtorObject,
               st=heap.stats, n=nxt):
            regs[d] = ctor(tag, [regs[a]])
            st.allocations += 1
            live = st.allocations - st.frees
            if live > st.peak_live:
                st.peak_live = live
            return n(regs)
    elif len(fields) == 2:
        def op(regs, d=dst, tag=tag, a=fields[0], b=fields[1], ctor=CtorObject,
               st=heap.stats, n=nxt):
            regs[d] = ctor(tag, [regs[a], regs[b]])
            st.allocations += 1
            live = st.allocations - st.frees
            if live > st.peak_live:
                st.peak_live = live
            return n(regs)
    else:
        def op(regs, d=dst, tag=tag, fr=fields, ctor=CtorObject, st=heap.stats,
               n=nxt):
            regs[d] = ctor(tag, [regs[r] for r in fr])
            st.allocations += 1
            live = st.allocations - st.frees
            if live > st.peak_live:
                st.peak_live = live
            return n(regs)
    return op


def _frame_pad(callee: "BytecodeFunction") -> List[None]:
    """The registers of ``callee``'s frame after its parameters."""
    return [None] * (callee.num_regs - callee.num_params)


def _call_site(pc, dst, callee, argr, pend, sentinel):
    """The threaded closure of a direct ``call`` (``sentinel`` -2) or
    ``tailcall`` (-3) site: it builds the callee's finished register frame
    and hands it to the loop in ``pend``, with the pc the caller resumes
    at (a tail call's is never read).  Up to three arguments are read
    without a comprehension, which is a call of its own before 3.12."""
    pad = _frame_pad(callee)
    resume = pc + 1
    count = len(argr)
    if count == 0:
        def op(regs, d=dst, c=callee, pad=pad, pend=pend, r=resume,
               sig=sentinel):
            pend[0] = c
            pend[1] = pad[:]
            pend[2] = d
            pend[3] = r
            return sig
    elif count == 1:
        def op(regs, d=dst, c=callee, a=argr[0], pad=pad, pend=pend, r=resume,
               sig=sentinel):
            pend[0] = c
            pend[1] = [regs[a]] + pad
            pend[2] = d
            pend[3] = r
            return sig
    elif count == 2:
        def op(regs, d=dst, c=callee, a=argr[0], b=argr[1], pad=pad, pend=pend,
               r=resume, sig=sentinel):
            pend[0] = c
            pend[1] = [regs[a], regs[b]] + pad
            pend[2] = d
            pend[3] = r
            return sig
    elif count == 3:
        def op(regs, d=dst, c=callee, a=argr[0], b=argr[1], e=argr[2], pad=pad,
               pend=pend, r=resume, sig=sentinel):
            pend[0] = c
            pend[1] = [regs[a], regs[b], regs[e]] + pad
            pend[2] = d
            pend[3] = r
            return sig
    else:
        def op(regs, d=dst, c=callee, get=operator.itemgetter(*argr), pad=pad,
               pend=pend, r=resume, sig=sentinel):
            pend[0] = c
            pend[1] = list(get(regs)) + pad
            pend[2] = d
            pend[3] = r
            return sig
    return op


#: ``proj`` and its fused runs: ``(op, d1, s1, i1, d2, s2, i2, ...)``.
_PROJ_RUNS = frozenset((OP_PROJ, OP_PROJ_PROJ, OP_PROJ3, OP_PROJ4))


def _proj_site(ins, heap, counts, error, nxt):
    """The threaded closure of a ``proj`` site or of a fused run of two to
    four (``proj_proj``, ``proj3``, ``proj4``).  Each member reads a field
    of a constructor cell and takes a reference to it: inline for an
    ``int`` or a live cell, through ``Heap.inc`` otherwise.  A member that
    fails (a source that is no constructor, or ``Heap.inc`` raising)
    stops the unfused sequence after its ``proj`` charge, so the closure
    takes back that member's ``rc`` and every later member's charges."""
    if len(ins) == 4:
        def op(regs, d=ins[1], src=ins[2], idx=ins[3], inc=heap.inc,
               st=heap.stats, cnt=counts, err=error, ctor=CtorObject, int_=int,
               n=nxt):
            try:
                value = regs[src]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[idx]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
            except BaseException:
                cnt["rc"] -= 1
                raise
            regs[d] = field
            return n(regs)
    elif len(ins) == 7:
        def op(regs, d1=ins[1], s1=ins[2], i1=ins[3], d2=ins[4], s2=ins[5],
               i2=ins[6], inc=heap.inc, st=heap.stats, cnt=counts, err=error,
               ctor=CtorObject, int_=int, n=nxt):
            done = 0
            try:
                value = regs[s1]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i1]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
                regs[d1] = field
                done = 1
                value = regs[s2]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i2]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
            except BaseException:
                cnt["proj"] -= 1 - done
                cnt["rc"] -= 2 - done
                raise
            regs[d2] = field
            return n(regs)
    elif len(ins) == 10:
        def op(regs, d1=ins[1], s1=ins[2], i1=ins[3], d2=ins[4], s2=ins[5],
               i2=ins[6], d3=ins[7], s3=ins[8], i3=ins[9], inc=heap.inc,
               st=heap.stats, cnt=counts, err=error, ctor=CtorObject, int_=int,
               n=nxt):
            done = 0
            try:
                value = regs[s1]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i1]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
                regs[d1] = field
                done = 1
                value = regs[s2]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i2]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
                regs[d2] = field
                done = 2
                value = regs[s3]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i3]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
            except BaseException:
                cnt["proj"] -= 2 - done
                cnt["rc"] -= 3 - done
                raise
            regs[d3] = field
            return n(regs)
    else:
        def op(regs, d1=ins[1], s1=ins[2], i1=ins[3], d2=ins[4], s2=ins[5],
               i2=ins[6], d3=ins[7], s3=ins[8], i3=ins[9], d4=ins[10],
               s4=ins[11], i4=ins[12], inc=heap.inc, st=heap.stats, cnt=counts,
               err=error, ctor=CtorObject, int_=int, n=nxt):
            done = 0
            try:
                value = regs[s1]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i1]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
                regs[d1] = field
                done = 1
                value = regs[s2]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i2]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
                regs[d2] = field
                done = 2
                value = regs[s3]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i3]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
                regs[d3] = field
                done = 3
                value = regs[s4]
                if value.__class__ is not ctor:
                    raise err(f"projection from non-constructor {value!r}")
                field = value.fields[i4]
                cls = field.__class__
                if cls is int_:
                    st.inc_ops += 1
                elif cls is ctor and not field.freed:
                    field.rc += 1
                    st.inc_ops += 1
                else:
                    inc(field)
            except BaseException:
                cnt["proj"] -= 3 - done
                cnt["rc"] -= 4 - done
                raise
            regs[d4] = field
            return n(regs)
    return op


def _proj_call_site(pc, ins, heap, counts, error, pend):
    """The threaded closure of a ``proj_call`` site: ``proj``, as
    :func:`_proj_site` runs it, then a call that builds its callee's frame
    as :func:`_call_site` does.  The projected field is always an
    argument: with one argument it is the frame's only value, and more are
    read with one ``itemgetter``.  The fusion rule requires a callee that
    takes as many arguments as the site passes."""
    _, pd, src, idx, cd, callee, argr = ins
    get = operator.itemgetter(*argr) if len(argr) > 1 else None
    def op(regs, pd=pd, src=src, idx=idx, cd=cd, c=callee, get=get,
           pad=_frame_pad(callee), inc=heap.inc, st=heap.stats, cnt=counts,
           err=error, ctor=CtorObject, int_=int, pend=pend, r=pc + 1):
        try:
            value = regs[src]
            if value.__class__ is not ctor:
                raise err(f"projection from non-constructor {value!r}")
            field = value.fields[idx]
            cls = field.__class__
            if cls is int_:
                st.inc_ops += 1
            elif cls is ctor and not field.freed:
                field.rc += 1
                st.inc_ops += 1
            else:
                inc(field)
        except BaseException:
            # The unfused charge stops at proj.
            cnt["rc"] -= 1
            cnt["call"] -= 1
            raise
        regs[pd] = field
        pend[0] = c
        pend[1] = ([field] if get is None else list(get(regs))) + pad
        pend[2] = cd
        pend[3] = r
        return -2
    return op


def _bad_arity_site(callee, argc, counts, error, tail):
    """The threaded closure of a call site whose argument count does not
    match its callee: it raises at execution time, after the call's fault
    site, as a function entry does.  A ``tailcall`` site's fused ``ret``
    never runs, so it takes back that charge first."""
    def op(regs, owed=1 if tail else 0, cnt=counts, fh=fault_hit, err=error):
        cnt["return"] -= owed
        fh("vm.dispatch")
        raise err(
            f"calling {callee.name} with {argc} arguments, "
            f"expected {callee.num_params}"
        )
    return op


class BytecodeFunction:
    """One compiled function: a flat instruction array plus frame layout."""

    __slots__ = ("name", "num_params", "num_regs", "code")

    def __init__(self, name: str, num_params: int):
        self.name = name
        self.num_params = num_params
        self.num_regs = num_params
        self.code: List[Tuple] = []

    def __repr__(self):
        return (
            f"BytecodeFunction({self.name!r}, params={self.num_params}, "
            f"regs={self.num_regs}, instructions={len(self.code)})"
        )


class BytecodeProgram:
    """A compiled module: every function plus execution flavour metadata.

    ``flavor`` selects the tree-walker whose observable behaviour the VM
    reproduces: ``"cfg"`` (CFG-form MLIR, :class:`CfgInterpreter` oracle)
    or ``"rc"`` (λrc, :class:`RcInterpreter` oracle).  It decides the error
    type raised on runtime faults and how ``run_main`` releases the final
    value — both tree-walkers differ slightly and the VM matches each
    exactly.
    """

    __slots__ = ("flavor", "functions", "main", "fused", "fused_sites")

    def __init__(self, flavor: str, main: str = "main"):
        if flavor not in ("cfg", "rc"):
            raise ValueError(f"unknown bytecode flavor {flavor!r}")
        self.flavor = flavor
        self.functions: Dict[str, BytecodeFunction] = {}
        self.main = main
        #: Set by :func:`fuse_program`: whether the superinstruction pass
        #: ran, and how many static pair sites it collapsed.
        self.fused = False
        self.fused_sites = 0

    @property
    def instruction_count(self) -> int:
        return sum(len(f.code) for f in self.functions.values())

    def __repr__(self):
        return (
            f"BytecodeProgram({self.flavor!r}, functions={len(self.functions)}, "
            f"instructions={self.instruction_count})"
        )


class _Label:
    """A forward-referenced instruction index, patched after emission."""

    __slots__ = ("pc",)

    def __init__(self):
        self.pc: Optional[int] = None


class _LabelPcs:
    """``mapping[label]`` for :func:`_remap_targets`: the label's pc."""

    def __getitem__(self, label: _Label) -> int:
        return label.pc


_LABEL_PCS = _LabelPcs()


def _resolve_labels(code: List[Tuple]) -> List[Tuple]:
    """Replace the :class:`_Label` branch targets with their pcs."""
    return [_remap_targets(ins, _LABEL_PCS) for ins in code]


# ---------------------------------------------------------------------------
# Superinstruction fusion
# ---------------------------------------------------------------------------
# A peephole over resolved code arrays.  A pair (A at pc, B at pc+1) fuses
# when B is not a jump target (a jump landing *on* A still executes both,
# exactly like the unfused sequence) and the pair's rule matcher accepts
# the operands.  Fused instructions keep writing A's destination register,
# so no liveness information is needed, and they charge the exact
# cost-model events of the unfused pair — fusion is invisible to
# ExecutionMetrics, heap statistics and results.


def _is_scalar_cmp(ins: Tuple) -> bool:
    """Whether an ``rtcall`` is a :data:`SCALAR_RTCALLS` comparison whose
    result lands in a register."""
    scalar = SCALAR_RTCALLS.get(ins[2])
    return (scalar is not None and scalar[0] == "cmp" and ins[1] >= 0
            and len(ins[3]) == 2)


def _is_tag_dispatch(ins: Tuple) -> bool:
    """Whether a ``getlabel_cmp_br`` is a constructor-tag dispatch: an
    ``eq`` of the label against its constant, no block arguments."""
    gd, cd, fn, lhs, rhs = ins[1], ins[3], ins[6], ins[7], ins[8]
    return (fn is _CMP_FNS["eq"] and gd != cd and {lhs, rhs} == {gd, cd}
            and not ins[10] and not ins[13])


class FusionRule:
    """One declarative peephole entry: adjacent ``first``+``second``
    opcodes fuse into ``opcode`` when ``match`` accepts the pair."""

    __slots__ = ("first", "second", "opcode", "match", "build")

    def __init__(self, first, second, opcode, match, build):
        self.first = first
        self.second = second
        self.opcode = opcode
        self.match = match
        self.build = build


#: The superinstruction table.  Adding a pair is one more entry here —
#: plus its closure in ``_compile_threaded``, its ``_TARGET_FIELDS`` row
#: if it branches, and docs/EXECUTION.md.
FUSION_RULES = (
    # const dst feeds a comparison operand.
    FusionRule(
        OP_CONST, OP_CMP, OP_CONST_CMP,
        match=lambda a, b: a[1] == b[3] or a[1] == b[4],
        build=lambda a, b: (
            OP_CONST_CMP, a[1], a[2], b[1], b[2], b[3], b[4]
        ),
    ),
    # proj dst feeds a direct-call argument (of a callee taking as many).
    FusionRule(
        OP_PROJ, OP_CALL, OP_PROJ_CALL,
        match=lambda a, b: a[1] in b[3] and len(b[3]) == b[2].num_params,
        build=lambda a, b: (
            OP_PROJ_CALL, a[1], a[2], a[3], b[1], b[2], b[3]
        ),
    ),
    # Chain rules (picked up by the peephole's later passes): a fused
    # const_cmp whose result feeds the branch condition, and the full
    # constructor-tag dispatch where getlabel feeds the comparison.  No
    # const_cmp survives fusion on compiled programs; it is the step the
    # two branch rules are built through.
    FusionRule(
        OP_CONST_CMP, OP_CONDBR, OP_CONST_CMP_CONDBR,
        match=lambda a, b: b[1] == a[3],
        build=lambda a, b: (
            OP_CONST_CMP_CONDBR, a[1], a[2], a[3], a[4], a[5], a[6],
            b[2], b[3], b[4], b[5], b[6], b[7],
        ),
    ),
    FusionRule(
        OP_GETLABEL, OP_CONST_CMP_CONDBR, OP_GETLABEL_CMP_CONDBR,
        match=lambda a, b: a[1] == b[5] or a[1] == b[6],
        build=lambda a, b: (OP_GETLABEL_CMP_CONDBR, a[1], a[2]) + b[1:],
    ),
    # Straight-line runs with no dataflow condition: executing the pair
    # inside one closure is always equivalent to executing it in sequence.
    FusionRule(
        OP_PROJ, OP_PROJ, OP_PROJ_PROJ,
        match=lambda a, b: True,
        build=lambda a, b: (
            OP_PROJ_PROJ, a[1], a[2], a[3], b[1], b[2], b[3]
        ),
    ),
    FusionRule(
        OP_INT, OP_INC, OP_INT_INC,
        match=lambda a, b: True,
        build=lambda a, b: (OP_INT_INC, a[1], a[2], b[1], b[2]),
    ),
    FusionRule(
        OP_DEC, OP_DEC, OP_DEC_DEC,
        match=lambda a, b: True,
        build=lambda a, b: (OP_DEC_DEC, a[1], a[2], b[1], b[2]),
    ),
    FusionRule(
        OP_INC, OP_RTCALL, OP_INC_RTCALL,
        match=lambda a, b: b[1] >= 0,
        build=lambda a, b: (
            OP_INC_RTCALL, a[1], a[2], b[1], b[2], b[3]
        ),
    ),
    FusionRule(
        OP_DEC, OP_INC, OP_DEC_INC,
        match=lambda a, b: True,
        build=lambda a, b: (OP_DEC_INC, a[1], a[2], b[1], b[2]),
    ),
    # Projection runs of three and four (λrc field extraction over wide
    # constructors): the fixpoint pass extends an already-fused proj_proj.
    FusionRule(
        OP_PROJ_PROJ, OP_PROJ, OP_PROJ3,
        match=lambda a, b: True,
        build=lambda a, b: (OP_PROJ3,) + a[1:] + b[1:],
    ),
    FusionRule(
        OP_PROJ_PROJ, OP_PROJ_PROJ, OP_PROJ4,
        match=lambda a, b: True,
        build=lambda a, b: (OP_PROJ4,) + a[1:] + b[1:],
    ),
    # A call in return position: the VM half of guaranteed tail calls.
    FusionRule(
        OP_CALL, OP_RET, OP_TAILCALL,
        match=lambda a, b: a[1] >= 0 and b[1] == a[1],
        build=lambda a, b: (OP_TAILCALL, a[2], a[3]),
    ),
    # A Nat/Int comparison whose Bool result a tag dispatch branches on
    # (``if a < b then ...`` lowered through ``Decidable``).
    FusionRule(
        OP_RTCALL, OP_GETLABEL_CMP_CONDBR, OP_RTCALL_CMP_BR,
        match=lambda a, b: (
            _is_scalar_cmp(a) and _is_tag_dispatch(b) and b[2] == a[1]
        ),
        build=lambda a, b: (OP_RTCALL_CMP_BR,) + a[1:] + b[1:],
    ),
)

_RULES_BY_PAIR = {(rule.first, rule.second): rule for rule in FUSION_RULES}

#: The fused opcode integers (telemetry and ``--exec-stats``).
FUSED_OPCODES = tuple(rule.opcode for rule in FUSION_RULES)


def _base_opcodes(opcode: int) -> Tuple[int, ...]:
    """Transitively decompose a (possibly chain-)fused opcode into the
    base opcodes the frontends emit."""
    for rule in FUSION_RULES:
        if rule.opcode == opcode:
            return _base_opcodes(rule.first) + _base_opcodes(rule.second)
    return (opcode,)


#: fused name -> base-opcode names; the ``--exec-stats --unfused``
#: decomposition back to base-opcode counts (chain fusions decompose all
#: the way down: ``getlabel_cmp_br`` -> getlabel, const, cmp, cond_br).
FUSED_OPCODE_BASES = {
    OPCODE_NAMES[rule.opcode]: tuple(
        OPCODE_NAMES[base] for base in _base_opcodes(rule.opcode)
    )
    for rule in FUSION_RULES
}


def base_frequencies(frequencies: Dict[str, int]) -> Dict[str, int]:
    """``frequencies`` (opcode name -> count) with each superinstruction
    counted once for every base opcode it decomposes into: what the
    unfused bytecode (``fuse=False``) executes."""
    bases: Dict[str, int] = {}
    for name, count in frequencies.items():
        for base in FUSED_OPCODE_BASES.get(name, (name,)):
            bases[base] = bases.get(base, 0) + count
    return bases


#: The branch-target fields of each opcode that transfers control: an
#: absolute pc, a ``{value: pc}`` dispatch table, or (``case`` without a
#: default) None.  The peephole runs to fixpoint, so the fused branch
#: opcodes are listed too.
_TARGET_FIELDS = {
    OP_JMP: (1,),
    OP_CONDBR: (2, 5),
    OP_SWITCH: (2, 3),
    OP_CASE: (2, 3),
    OP_CONST_CMP_CONDBR: (7, 10),
    OP_GETLABEL_CMP_CONDBR: (9, 12),
    OP_RTCALL_CMP_BR: (12, 15),
}


#: Opcodes whose threaded closure never runs the next instruction's: it
#: hands the loop a pc (a branch or ``papextend``) or a sentinel (``ret``
#: and the call sites), or it only raises.
_CHAIN_ENDS = frozenset(_TARGET_FIELDS) | {
    OP_RET, OP_UNREACHABLE, OP_CALL, OP_BADCALL, OP_PAPEXTEND,
    OP_PROJ_CALL, OP_TAILCALL,
}


def _jump_targets(code: List[Tuple]) -> set:
    """Every pc some instruction can transfer control to."""
    targets = set()
    for ins in code:
        for field in _TARGET_FIELDS.get(ins[0], ()):
            target = ins[field]
            if isinstance(target, dict):
                targets.update(target.values())
            elif target is not None:
                targets.add(target)
    return targets


def _remap_targets(ins: Tuple, mapping: Dict[int, int]) -> Tuple:
    """Rewrite an instruction's branch targets through ``mapping``."""
    fields = _TARGET_FIELDS.get(ins[0])
    if fields is None:
        return ins
    out = list(ins)
    for field in fields:
        target = ins[field]
        if isinstance(target, dict):
            out[field] = {key: mapping[pc] for key, pc in target.items()}
        elif target is not None:
            out[field] = mapping[target]
    return tuple(out)


def fuse_code(code: List[Tuple]) -> Tuple[List[Tuple], int]:
    """One fusion pass over a code array; returns (fused code, #sites)."""
    targets = _jump_targets(code)
    fused: List[Tuple] = []
    mapping: Dict[int, int] = {}
    sites = 0
    index = 0
    length = len(code)
    while index < length:
        ins = code[index]
        mapping[index] = len(fused)
        if index + 1 < length and (index + 1) not in targets:
            follower = code[index + 1]
            rule = _RULES_BY_PAIR.get((ins[0], follower[0]))
            if rule is not None and rule.match(ins, follower):
                # The follower can't be a target, so mapping it to the
                # fused pc is only for completeness.
                mapping[index + 1] = len(fused)
                fused.append(rule.build(ins, follower))
                sites += 1
                index += 2
                continue
        fused.append(ins)
        index += 1
    if not sites:
        return code, 0
    return [_remap_targets(ins, mapping) for ins in fused], sites


def fuse_program(program: "BytecodeProgram") -> "BytecodeProgram":
    """Apply superinstruction fusion to every function (idempotent).

    The peephole runs to fixpoint so chain rules fire: pass one turns
    ``const; cmp`` into ``const_cmp``, pass two fuses the branch into
    ``const_cmp_br``, pass three folds a feeding ``getlabel`` in.
    ``fused_sites`` counts fusion events, so a fully-fused tag dispatch
    contributes three.
    """
    if program.fused:
        return program
    total = 0
    for fn in program.functions.values():
        while True:
            fn.code, sites = fuse_code(fn.code)
            total += sites
            if not sites:
                break
    program.fused = True
    program.fused_sites = total
    return program


# ---------------------------------------------------------------------------
# CFG-form MLIR -> bytecode
# ---------------------------------------------------------------------------


class _CfgFunctionCompiler:
    """Compiles one ``func.func`` body into a :class:`BytecodeFunction`."""

    def __init__(self, func: FuncOp, target: BytecodeFunction, program: BytecodeProgram):
        self.func = func
        self.target = target
        self.program = program
        self.regs: Dict[object, int] = {}
        self.code: List[Tuple] = []

    def _reg(self, value) -> int:
        index = self.regs.get(value)
        if index is None:
            index = self.target.num_regs
            self.target.num_regs += 1
            self.regs[value] = index
        return index

    def _operand_regs(self, values) -> Tuple[int, ...]:
        return tuple(self.regs[v] for v in values)

    def run(self) -> None:
        blocks = list(self.func.body.blocks)
        # Parameters occupy registers 0..n-1 (the shell pre-reserved them);
        # then every block argument gets its slot up front so branches can
        # name their destination registers.
        for index, argument in enumerate(blocks[0].arguments):
            self.regs[argument] = index
        labels = {block: _Label() for block in blocks}
        for block in blocks[1:]:
            for argument in block.arguments:
                self._reg(argument)
        for block in blocks:
            labels[block].pc = len(self.code)
            for op in block:
                self._emit(op, labels)
        self.target.code = _resolve_labels(self.code)

    def _branch_args(self, block, values) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (
            self._operand_regs(values),
            tuple(self.regs[a] for a in block.arguments),
        )

    def _emit(self, op, labels) -> None:
        code = self.code
        # Terminators ---------------------------------------------------
        if isinstance(op, ReturnOp):
            src = self.regs[op.operands[0]] if op.operands else -1
            code.append((OP_RET, src))
            return
        if isinstance(op, cf.BranchOp):
            srcs, dsts = self._branch_args(op.dest, op.dest_operands)
            code.append((OP_JMP, labels[op.dest], srcs, dsts))
            return
        if isinstance(op, cf.CondBranchOp):
            tsrcs, tdsts = self._branch_args(op.true_dest, op.true_operands)
            fsrcs, fdsts = self._branch_args(op.false_dest, op.false_operands)
            code.append((
                OP_CONDBR, self.regs[op.condition],
                labels[op.true_dest], tsrcs, tdsts,
                labels[op.false_dest], fsrcs, fdsts,
            ))
            return
        if isinstance(op, cf.SwitchOp):
            # setdefault keeps the FIRST entry per value, preserving the
            # tree-walker's linear-scan semantics on (unverified) duplicates.
            table = {}
            for value, dest in zip(op.case_values, op.case_dests):
                table.setdefault(value, labels[dest])
            code.append((
                OP_SWITCH, self.regs[op.flag], table, labels[op.default_dest]
            ))
            return
        if isinstance(op, cf.UnreachableOp):
            code.append((OP_UNREACHABLE, "executed cf.unreachable"))
            return

        # lp data operations --------------------------------------------
        if isinstance(op, lp.IntOp):
            code.append((OP_INT, self._reg(op.result()), op.value))
            return
        if isinstance(op, lp.BigIntOp):
            code.append((OP_BIGINT, self._reg(op.result()), op.value))
            return
        if isinstance(op, lp.ConstructOp):
            fields = self._operand_regs(op.operands)
            category = "alloc_ctor" if fields else "move"
            code.append(
                (OP_CONSTRUCT, self._reg(op.result()), op.tag, fields, category)
            )
            return
        if isinstance(op, lp.GetLabelOp):
            code.append((OP_GETLABEL, self._reg(op.result()), self.regs[op.operands[0]]))
            return
        if isinstance(op, lp.ProjectOp):
            code.append((
                OP_PROJ, self._reg(op.result()), self.regs[op.operands[0]], op.index
            ))
            return
        if isinstance(op, lp.PapOp):
            callee = self.program.functions.get(op.callee)
            arity = callee.num_params if callee is not None else None
            code.append((
                OP_PAP, self._reg(op.result()), op.callee, arity,
                self._operand_regs(op.operands),
            ))
            return
        if isinstance(op, lp.PapExtendOp):
            code.append((
                OP_PAPEXTEND, self._reg(op.result()),
                self.regs[op.operands[0]], self._operand_regs(op.operands[1:]),
            ))
            return
        if isinstance(op, lp.IncOp):
            code.append((OP_INC, self.regs[op.operands[0]], op.count))
            return
        if isinstance(op, lp.DecOp):
            code.append((OP_DEC, self.regs[op.operands[0]], op.count))
            return
        if isinstance(op, lp.ResetOp):
            code.append((OP_RESET, self._reg(op.result()), self.regs[op.operands[0]]))
            return
        if isinstance(op, lp.ReuseOp):
            code.append((
                OP_REUSE, self._reg(op.result()), self.regs[op.operands[0]],
                op.tag, self._operand_regs(op.operands[1:]),
            ))
            return

        # Calls -----------------------------------------------------------
        if isinstance(op, CallOp):
            dst = self._reg(op.result()) if op.results else -1
            args = self._operand_regs(op.operands)
            callee = self.program.functions.get(op.callee)
            if callee is not None:
                code.append((OP_CALL, dst, callee, args))
            elif is_builtin(op.callee):
                code.append((OP_RTCALL, dst, op.callee, args))
            else:
                code.append((OP_BADCALL, op.callee))
            return

        # arith -----------------------------------------------------------
        if isinstance(op, arith.ConstantOp):
            code.append((OP_CONST, self._reg(op.result()), op.value))
            return
        if isinstance(op, arith.CmpIOp):
            if op.predicate not in _CMP_FNS:
                raise ValueError(f"unknown cmpi predicate {op.predicate!r}")
            code.append((
                OP_CMP, self._reg(op.result()), _CMP_FNS[op.predicate],
                self.regs[op.operands[0]], self.regs[op.operands[1]],
            ))
            return
        raise BytecodeError(f"cannot compile operation {op.name}")


def compile_cfg_module(
    module: ModuleOp, *, main: str = "main", fuse: bool = True
) -> BytecodeProgram:
    """Compile a CFG-form MLIR module to a :class:`BytecodeProgram`.

    Declarations (runtime functions) are left to the builtin dispatcher;
    only bodies are compiled.  The superinstruction peephole
    (:func:`fuse_program`) runs over the result unless ``fuse=False``,
    which keeps the unfused code as the oracle fused runs are compared
    against.
    """
    program = BytecodeProgram("cfg", main=main)
    defined = [f for f in module.functions() if not f.is_declaration]
    # Two phases so direct calls can hold the callee's function object even
    # for mutual recursion: allocate every shell first, then fill bodies.
    for func in defined:
        program.functions[func.sym_name] = BytecodeFunction(
            func.sym_name, len(func.function_type.inputs)
        )
    for func in defined:
        _CfgFunctionCompiler(func, program.functions[func.sym_name], program).run()
    if fuse:
        fuse_program(program)
    return program


# ---------------------------------------------------------------------------
# λrc -> bytecode
# ---------------------------------------------------------------------------


class _RcFunctionCompiler:
    """Compiles one λrc function body into a :class:`BytecodeFunction`.

    Variables are alpha-renamed onto registers while compiling: every
    ``let`` allocates a *fresh* slot (shadowed names keep their old slot
    alive), so a join point's body — compiled against the name→register
    map captured at its declaration — reads exactly the values the
    tree-walker's captured environment would, without any environment
    copying at run time.
    """

    def __init__(self, fn: rc_ir.Function, target: BytecodeFunction, program: BytecodeProgram):
        self.fn = fn
        self.target = target
        self.program = program
        self.code: List[Tuple] = []
        #: Deferred (body, env, joins, label) emissions: join-point bodies
        #: are placed after the flow that declares them.
        self.pending: List[Tuple] = []

    def _new_reg(self) -> int:
        index = self.target.num_regs
        self.target.num_regs += 1
        return index

    def run(self) -> None:
        env = {param: index for index, param in enumerate(self.fn.params)}
        self._emit_body(self.fn.body, env, {})
        while self.pending:
            body, env, joins, label = self.pending.pop(0)
            label.pc = len(self.code)
            self._emit_body(body, env, joins)
        self.target.code = _resolve_labels(self.code)

    # -- bodies -----------------------------------------------------------
    def _emit_body(self, body, env: Dict[str, int], joins: Dict[str, Tuple]) -> None:
        code = self.code
        while True:
            if isinstance(body, rc_ir.Let):
                dst = self._new_reg()
                self._emit_expr(body.expr, env, dst)
                env = dict(env)
                env[body.var] = dst
                body = body.body
                continue
            if isinstance(body, rc_ir.Inc):
                code.append((OP_INC, env[body.var], body.count))
                body = body.body
                continue
            if isinstance(body, rc_ir.Dec):
                code.append((OP_DEC, env[body.var], body.count))
                body = body.body
                continue
            if isinstance(body, rc_ir.Ret):
                code.append((OP_RET, env[body.var]))
                return
            if isinstance(body, rc_ir.Case):
                table: Dict[int, _Label] = {}
                branches = []
                for alt in body.alts:
                    label = _Label()
                    # First alternative wins on duplicate tags, like the
                    # tree-walker's linear alternative scan.
                    table.setdefault(alt.tag, label)
                    branches.append((alt.body, label))
                default_label = None
                if body.default is not None:
                    default_label = _Label()
                    branches.append((body.default, default_label))
                code.append((OP_CASE, env[body.var], table, default_label))
                for branch_body, label in branches:
                    label.pc = len(code)
                    self._emit_body(branch_body, env, joins)
                return
            if isinstance(body, rc_ir.JDecl):
                joins = dict(joins)
                label = _Label()
                param_regs = tuple(self._new_reg() for _ in body.params)
                joins[body.label] = (label, param_regs)
                join_env = dict(env)
                join_env.update(zip(body.params, param_regs))
                # The join body sees the joins map *including itself*, so
                # self-recursive jumps compile to backward jumps.
                self.pending.append((body.jbody, join_env, joins, label))
                body = body.rest
                continue
            if isinstance(body, rc_ir.Jmp):
                label, param_regs = joins[body.label]
                srcs = tuple(env[a] for a in body.args)
                code.append((OP_JMP, label, srcs, param_regs))
                return
            if isinstance(body, rc_ir.Unreachable):
                code.append(
                    (OP_UNREACHABLE, "executed an unreachable program point")
                )
                return
            raise BytecodeError(f"unknown body node {body!r}")

    # -- expressions ------------------------------------------------------
    def _emit_expr(self, expr, env: Dict[str, int], dst: int) -> None:
        code = self.code
        if isinstance(expr, rc_ir.Lit):
            # The λrc tree-walker charges every literal as a register move
            # (big integers included), unlike the lp dialect's lp.bigint.
            code.append((OP_INT, dst, expr.value))
            return
        if isinstance(expr, rc_ir.Ctor):
            fields = tuple(env[a] for a in expr.args)
            category = "alloc_ctor" if fields else "move"
            code.append((OP_CONSTRUCT, dst, expr.tag, fields, category))
            return
        if isinstance(expr, rc_ir.Proj):
            code.append((OP_PROJ, dst, env[expr.var], expr.index))
            return
        if isinstance(expr, rc_ir.Reset):
            code.append((OP_RESET, dst, env[expr.var]))
            return
        if isinstance(expr, rc_ir.Reuse):
            code.append((
                OP_REUSE, dst, env[expr.token], expr.tag,
                tuple(env[a] for a in expr.args),
            ))
            return
        if isinstance(expr, rc_ir.Call):
            args = tuple(env[a] for a in expr.args)
            # The λrc tree-walker tries the runtime builtins *before* the
            # program's own functions; mirror that resolution order.
            if is_builtin(expr.fn):
                code.append((OP_RTCALL, dst, expr.fn, args))
            elif expr.fn in self.program.functions:
                code.append((OP_CALL, dst, self.program.functions[expr.fn], args))
            else:
                code.append((OP_BADCALL, expr.fn))
            return
        if isinstance(expr, rc_ir.PAp):
            callee = self.program.functions.get(expr.fn)
            arity = callee.num_params if callee is not None else None
            code.append((OP_PAP, dst, expr.fn, arity, tuple(env[a] for a in expr.args)))
            return
        if isinstance(expr, rc_ir.App):
            code.append((
                OP_PAPEXTEND, dst, env[expr.closure],
                tuple(env[a] for a in expr.args),
            ))
            return
        raise BytecodeError(f"unknown expression {expr!r}")


def compile_rc_program(
    program: rc_ir.Program, *, fuse: bool = True
) -> BytecodeProgram:
    """Compile a λrc program to a :class:`BytecodeProgram`, fused unless
    ``fuse=False`` (as :func:`compile_cfg_module`)."""
    bytecode = BytecodeProgram("rc", main=program.main)
    for name, fn in program.functions.items():
        bytecode.functions[name] = BytecodeFunction(name, fn.arity)
    for name, fn in program.functions.items():
        _RcFunctionCompiler(fn, bytecode.functions[name], bytecode).run()
    if fuse:
        fuse_program(bytecode)
    return bytecode


# ---------------------------------------------------------------------------
# The VM
# ---------------------------------------------------------------------------

#: Per-opcode cost-model events that are fixed at compile time.  The
#: threaded loop counts chain entries per instruction *site*; when a run
#: flushes, the VM derives each site's executions and from them, with
#: this table, the charge counts and opcode frequencies — one list
#: increment per loop turn instead of dict updates in the hot loop.  ``None`` marks ``construct``, whose category
#: is per-site (``ins[4]``); empty tuples mark the dynamically-charged
#: opcodes (``reuse``, ``papextend``) whose closures charge inline.
#: A fused opcode charges the events of the base opcodes it decomposes
#: into (:func:`_base_opcodes`).  Partial-charge error paths (a ``proj``
#: raising before its ``rc`` charge, a fused sequence failing before its
#: later members run) apply negative corrections to the dynamic counters
#: before propagating; a run that raises inside a tail-call chain takes
#: back the ``return`` of each ``tailcall`` whose chain has not returned
#: (see ``_run_threaded``).
_STATIC_CHARGES = {
    OP_RET: ("return",),
    OP_JMP: ("jump",),
    OP_CONDBR: ("branch",),
    OP_SWITCH: ("branch",),
    OP_CASE: ("getlabel", "arith", "branch"),
    OP_UNREACHABLE: (),
    OP_CONST: ("const",),
    OP_INT: ("move",),
    OP_BIGINT: ("runtime_call",),
    OP_CONSTRUCT: None,
    OP_GETLABEL: ("getlabel",),
    OP_PROJ: ("proj", "rc"),
    OP_PAP: ("alloc_closure",),
    OP_PAPEXTEND: (),
    OP_INC: ("rc",),
    OP_DEC: ("rc",),
    OP_RESET: ("rc",),
    OP_REUSE: (),
    OP_CALL: ("call",),
    OP_RTCALL: ("runtime_call",),
    OP_BADCALL: (),
    OP_CMP: ("arith",),
}
_STATIC_CHARGES.update(
    (opcode, sum((_STATIC_CHARGES[base] for base in _base_opcodes(opcode)), ()))
    for opcode in FUSED_OPCODES
)


class VirtualMachine:
    """Executes a :class:`BytecodeProgram` against the simulated runtime.

    One VM instance owns one runtime context and one metrics object, like
    the tree-walking interpreters it replaces; ``run_main`` is a drop-in
    for their ``run_main`` (the entry point is the keyword-only ``main``;
    the positional parameter is the argument list, as on
    :class:`RcInterpreter`).

    Charges accumulate in a local counter and fold into
    ``metrics.counts`` when ``run_main`` returns *or raises* — callers
    invoking :meth:`call_function` directly should call ``run_main``
    instead (or read the counters only after a ``run_main``).
    """

    def __init__(
        self,
        program: BytecodeProgram,
        *,
        context: Optional[RuntimeContext] = None,
        metrics: Optional[ExecutionMetrics] = None,
        budget: Optional[ExecutionBudget] = None,
        # Only perfbench/staged.py still passes this keyword.
        dispatch: str = "threaded",
    ):
        if dispatch != "threaded":
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self.program = program
        self.ctx = context if context is not None else RuntimeContext()
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        #: Local charge accumulator, folded into ``metrics.counts`` when a
        #: run finishes (the per-event ``charge`` call is the tree-walkers'
        #: single hottest line).
        self._counts: Dict[str, int] = {category: 0 for category in DEFAULT_COSTS}
        #: Dynamic instruction frequencies, indexed by opcode — the input
        #: the superinstruction table was selected from, surfaced via
        #: :meth:`instruction_frequencies`, ``--exec-stats`` and the
        #: ``vm.instr.freq.<op>`` metrics.
        self.opcode_counts: List[int] = [0] * NUM_OPCODES
        self.budget = budget
        #: Threaded-loop state: per function, its closure array, its
        #: site table and which pcs the previous closure falls into (see
        #: :meth:`_compile_threaded`); the pc step from each chain
        #: closure's code to the next closure's (``_chain_steps``, read
        #: by :meth:`_count_raise`); and the two cells the call/ret
        #: closures use to talk to the frame loop: ``_pending`` holds
        #: (callee, its frame, destination register, the pc the caller
        #: resumes at, arguments left over for the callee's result),
        #: ``_retslot`` the returned value.
        self._threaded: Dict[
            BytecodeFunction, Tuple[List[Callable], List[int], List[bool]]
        ] = {}
        self._chain_steps: Dict[object, int] = {}
        self._pending: List[object] = [None, None, None, None, None]
        self._retslot: List[object] = [None]
        #: The code of an over-application's continuation frame, whose
        #: registers are ``[callee result, arguments left over]``: apply
        #: the result to the leftovers, then return what that gives.  Its
        #: site table is never drained, so it charges nothing the
        #: applications do not.
        def resume(regs, apply=self._apply):
            return apply(regs, 0, regs[0], regs[1], 1)

        def finish(regs, ret=self._retslot):
            ret[0] = regs[0]
            return -1

        self._continuation = ([resume, finish], [0, 0, 0, 0])

    # -- error shaping ----------------------------------------------------
    def _error(self, message: str) -> Exception:
        if self.program.flavor == "cfg":
            from .cfg_interp import CfgInterpreterError

            return CfgInterpreterError(message)
        return RuntimeError_(message)

    # -- public API -------------------------------------------------------
    def run_main(
        self,
        args: Optional[List[object]] = None,
        *,
        main: Optional[str] = None,
        check_heap: bool = True,
    ) -> RunResult:
        if isinstance(args, str):
            raise TypeError(
                "run_main takes the argument list first; pass the entry "
                "point as run_main(main=...)"
            )
        entry = main or self.program.main
        if self.budget is not None:
            self.budget.start()
        try:
            # The explicit call stack makes arbitrarily deep bytecode
            # recursion safe under the default sys recursion limit; only
            # the tree-walkers still need interp/limits.py.
            with get_tracer().span(
                "vm:run", category="exec", main=entry,
                flavor=self.program.flavor,
            ):
                result = self.call_function(entry, list(args or []))
        finally:
            # Fold charges into the metrics even when execution faults, so
            # the counters reflect the work done up to the error — the same
            # observable the incrementally-charging tree-walkers leave.
            self._flush_counts()
            self._publish_telemetry()
        snapshot = python_value(result) if result is not None else None
        self.ctx.release(result)
        if check_heap:
            self.ctx.heap.check_balanced()
        return RunResult(
            value=snapshot,
            metrics=self.metrics,
            heap_stats=self.ctx.heap.stats.as_dict(),
            output=list(self.ctx.output),
        )

    def _flush_counts(self) -> None:
        if self._threaded:
            self._drain_sites()
        counts = self.metrics.counts
        for category, count in self._counts.items():
            if count:
                counts[category] = counts.get(category, 0) + count
                self._counts[category] = 0

    def _drain_sites(self) -> None:
        """Fold the threaded loop's site tables into the charge
        accumulator and the opcode frequency table.

        The loop counts the chains it enters at each pc; a closure that
        raises counts in its site's ``raised`` slot.  A site runs once per
        chain entered there plus, if the previous closure falls into it,
        once per run of that closure that did not raise:
        ``executed[pc] = entered[pc] + executed[pc-1] - raised[pc-1]``.
        """
        counts = self._counts
        freq = self.opcode_counts
        for fn, (_, sites, falls) in self._threaded.items():
            code = fn.code
            length = len(code)
            executed = 0
            for pc in range(length):
                if falls[pc]:
                    executed += sites[pc] - sites[length + pc - 1]
                else:
                    executed = sites[pc]
                if not executed:
                    continue
                ins = code[pc]
                opcode = ins[0]
                freq[opcode] += executed
                charges = _STATIC_CHARGES[opcode]
                if charges is None:
                    counts[ins[4]] += executed
                else:
                    for category in charges:
                        counts[category] += executed
            sites[:] = [0] * (2 * length)

    def instruction_frequencies(self) -> Dict[str, int]:
        """Dynamic instruction frequencies, most-executed first."""
        frequencies = {
            OPCODE_NAMES[opcode]: count
            for opcode, count in enumerate(self.opcode_counts)
            if count
        }
        return dict(
            sorted(frequencies.items(), key=lambda item: (-item[1], item[0]))
        )

    def _publish_telemetry(self) -> None:
        """Publish instruction frequencies into the active metrics registry
        (``vm.instr.freq.<op>``, ``vm.fusion.*``)."""
        registry = get_metrics()
        if not registry.enabled:
            return
        for name, count in self.instruction_frequencies().items():
            registry.bump("vm.instr.freq." + name, count)
        if self.program.fused:
            registry.bump("vm.fusion.sites", self.program.fused_sites)
            executed = sum(self.opcode_counts[op] for op in FUSED_OPCODES)
            registry.bump("vm.fusion.executed", executed)

    # -- calls ------------------------------------------------------------
    def call_function(self, name: str, args: List[object]) -> object:
        counts = self._counts
        if self.program.flavor == "rc" and is_builtin(name):
            counts["runtime_call"] += 1
            return call_builtin(self.ctx, name, args)
        fn = self.program.functions.get(name)
        if fn is not None:
            counts["call"] += 1
            return self._run_threaded(fn, args)
        if is_builtin(name):
            counts["runtime_call"] += 1
            return call_builtin(self.ctx, name, args)
        if self.program.flavor == "cfg":
            raise self._error(f"call of unknown function @{name}")
        raise self._error(f"unknown function {name}")

    def _apply(self, regs, dst: int, closure: object, args: List[object],
               resume: int) -> int:
        """Apply ``closure`` to ``args`` for the instruction that resumes
        at ``resume``; return the loop's next pc or sentinel.

        An unsaturated result lands in ``regs[dst]`` and the caller goes
        on at ``resume``.  A saturated call of a bytecode function goes
        through the loop's frame stack like a direct call (``-2``, with
        ``resume`` in the pending slot); with arguments left over (``-4``)
        the loop also stacks a continuation frame that applies the
        callee's result to them.  The charge order is the tree-walkers':
        ``apply``, ``call``, the ``vm.dispatch`` fault site, the budget
        step.
        """
        counts = self._counts
        heap = self.ctx.heap
        functions = self.program.functions
        rc_flavor = self.program.flavor == "rc"
        while True:
            counts["apply"] += 1
            outcome = extend_closure(heap, closure, args)
            if not outcome.is_call:
                regs[dst] = outcome.closure
                return resume
            name = outcome.call_fn
            call_args = outcome.call_args
            fn = functions.get(name)
            if fn is None or (rc_flavor and is_builtin(name)):
                # A runtime builtin (or the unknown-function error) runs
                # without a frame; the λrc flavour tries builtins first.
                closure = self.call_function(name, call_args)
                args = outcome.extra_args
                if args is None:
                    regs[dst] = closure
                    return resume
                continue
            counts["call"] += 1
            if len(call_args) != fn.num_params:
                fault_hit("vm.dispatch")
                raise self._error(
                    f"calling {fn.name} with {len(call_args)} arguments, "
                    f"expected {fn.num_params}"
                )
            pending = self._pending
            pending[0] = fn
            pending[1] = call_args + _frame_pad(fn)
            pending[2] = dst
            pending[3] = resume
            if outcome.extra_args is None:
                return -2
            pending[4] = outcome.extra_args
            return -4

    # -- the interpreter loop ---------------------------------------------
    def _run_threaded(self, fn: BytecodeFunction, args: List[object]) -> object:
        """The direct-threaded loop: ``pc = ops[pc](regs)``.

        Every instruction is a closure built by :meth:`_compile_threaded`
        with its operands bound as defaults.  A closure that falls through
        runs the next instruction's closure itself, so one turn of the
        loop runs a whole chain: a basic block, or its part up to a call.
        The chain hands back the next pc, or a negative sentinel:

        * ``-1`` returns (value in ``self._retslot``): pop the caller's
          frame and write its destination register;
        * ``-2`` calls: push the caller's frame and adopt the callee's,
          which the call site built (``self._pending``, with the pc the
          caller resumes at);
        * ``-3`` tail-calls: adopt the callee's frame in place of the
          current one and push nothing;
        * ``-4`` calls, then applies the result to the arguments left over
          from an over-application: as ``-2``, with a continuation frame
          (``self._continuation``) stacked between caller and callee.

        Each turn counts the chain it enters in the function's site
        table, the one cost-accounting event of the loop: the closures
        count nothing, and :meth:`_drain_sites` derives every site's
        executions from the entries.  A run that raises counts the
        raising closure too (:meth:`_count_raise`).

        A stacked frame is ``(ops, sites, regs, return pc, return
        register, tail calls)``.  The last field counts the tail calls
        that frame made: a ``tailcall`` site charges its fused ``ret``
        when it runs, so a run that raises takes back the returns of
        every chain still open.  The ``vm.dispatch`` fault site and the
        budget step come once per call of any kind; with no fault plan
        active, no site can fire and the loop skips the hit.
        """
        fh = fault_hit if active_plan() is not None else None
        if fh is not None:
            fh("vm.dispatch")
        if len(args) != fn.num_params:
            raise self._error(
                f"calling {fn.name} with {len(args)} arguments, "
                f"expected {fn.num_params}"
            )
        threaded = self._threaded
        entry = threaded.get(fn)
        if entry is None:
            entry = self._compile_threaded(fn)
        ops, sites, _ = entry
        regs = list(args) + _frame_pad(fn)
        budget = self.budget
        if budget is not None:
            budget.charge()
        pending = self._pending
        retslot = self._retslot
        continuation = self._continuation
        stack: List[Tuple] = []
        tails = 0
        pc = 0
        try:
            while True:
                sites[pc] += 1
                next_pc = ops[pc](regs)
                if next_pc >= 0:
                    pc = next_pc
                    continue
                if next_pc == -1:
                    value = retslot[0]
                    retslot[0] = None
                    if not stack:
                        return value
                    ops, sites, regs, pc, dst, tails = stack.pop()
                    if dst >= 0:
                        regs[dst] = value
                    continue
                # A call.  Arity was checked when the site's closure was
                # built; mismatched sites raise instead of returning here.
                if next_pc == -3:
                    tails += 1
                else:
                    stack.append(
                        (ops, sites, regs, pending[3], pending[2], tails)
                    )
                    tails = 0
                    if next_pc == -4:
                        stack.append(
                            continuation + ([None, pending[4]], 0, 0, 0)
                        )
                if fh is not None:
                    fh("vm.dispatch")
                if budget is not None:
                    budget.charge()
                callee = pending[0]
                entry = threaded.get(callee)
                if entry is None:
                    entry = self._compile_threaded(callee)
                ops, sites, _ = entry
                regs = pending[1]
                pc = 0
        except BaseException as exc:
            self._count_raise(exc.__traceback__, len(ops), sites, pc)
            owed = tails + sum(frame[5] for frame in stack)
            if owed:
                self._counts["return"] -= owed
            raise

    def _count_raise(self, tb, length: int, sites: List[int], pc: int) -> None:
        """Count the closure that raised in the chain entered at ``pc``.

        ``tb`` is the traceback as the loop's frame caught it; the frames
        after the loop's are the chain's closures, each run by the one
        before, down to the raising closure and what it called.  Each
        closure frame runs the next site, except that an ``inc_rtcall``
        closure runs its own site's ``rtcall`` closure (a step of 0 in
        ``_chain_steps``).  The walk stops at the first frame that is no
        chain closure, such as a builtin, or ``_run_threaded`` running a
        nested call.  An exception raised by the loop itself, outside a
        chain, counts nothing.
        """
        steps = self._chain_steps
        raising = pc - 1
        step = 1
        tb = tb.tb_next
        while tb is not None:
            following = steps.get(tb.tb_frame.f_code)
            if following is None:
                break
            raising += step
            step = following
            tb = tb.tb_next
        if raising >= pc:
            sites[length + raising] += 1

    def _compile_threaded(
        self, fn: BytecodeFunction
    ) -> Tuple[List[Callable], List[int], List[bool]]:
        """Translate ``fn.code`` into the closure array the threaded loop
        runs; return it with the site table the loop counts in and the
        pcs that are fallen into.

        The closures are built back to front.  One that falls through ends
        with ``return n(regs)``, where ``n`` is the next instruction's
        closure: a straight-line run is one chain of Python calls, and
        the next pc is *fallen into*.  After :data:`CHAIN_LIMIT` nested
        closures, ``n`` is a :func:`_goto` that hands the next pc back to
        the loop instead.  Branches, ``ret``, the call sites, ``switch``,
        ``case`` and ``papextend`` end a chain.

        The site table holds, per pc, the chains the loop entered there,
        then, per pc, the runs of its closure that raised.  Closures bind
        everything through default arguments (locals, not cell lookups)
        and do no cost accounting: charges and frequencies are derived
        from the site table and :data:`_STATIC_CHARGES` at flush time
        (:meth:`_drain_sites`).  Only the genuinely dynamic charges
        (``reuse`` tokens, closure application) and the partial-charge
        error corrections touch the counter dict while running.  Work on
        an unboxed ``int`` makes no runtime call: ``inc``/``dec`` of one
        bump ``inc_ops``/``dec_ops`` in place, and tags are read inline.
        Every closure that takes or drops a reference (``inc``, ``dec``,
        ``int_inc``, ``dec_dec``, ``dec_inc``, ``inc_rtcall`` and the
        projections) handles a live ``CtorObject`` inline as well, and
        the ``inc`` family a live ``ArrayObject``: an ``inc`` adds to
        ``rc``, and a ``dec`` with ``rc > count`` lowers it (a freed
        cell's ``rc`` is 0), each bumping the statistic.  A freed object,
        a ``dec`` that would free or underflow, and every other heap kind
        go through ``Heap.inc``/``Heap.dec``, which raise and free.
        """
        code = fn.code
        length = len(code)
        sites = [0] * (2 * length)
        falls = [False] * length
        ops: List[Callable] = [None] * length
        # How many closures a chain entered at each pc runs nested.
        depth = [0] * length
        steps = self._chain_steps
        counts = self._counts
        ctx = self.ctx
        heap = ctx.heap
        stats = heap.stats
        charge = self.budget.charge if self.budget is not None else None
        pending = self._pending
        retslot = self._retslot
        error = self._error
        flavor = self.program.flavor
        for pc in range(length - 1, -1, -1):
            ins = code[pc]
            opcode = ins[0]
            if opcode in _CHAIN_ENDS:
                nxt = None
                depth[pc] = 1
            elif pc + 1 < length and depth[pc + 1] < CHAIN_LIMIT:
                nxt = ops[pc + 1]
                falls[pc + 1] = True
                depth[pc] = depth[pc + 1] + 1
            else:
                nxt = _goto(pc + 1)
                depth[pc] = 1
            if opcode == OP_CMP:
                def op(regs, d=ins[1], f=ins[2], a=ins[3], b=ins[4], n=nxt):
                    regs[d] = f(regs[a], regs[b])
                    return n(regs)
            elif opcode == OP_JMP:
                if not ins[2]:
                    def op(regs, t=ins[1], ch=charge):
                        if ch is not None:
                            ch()
                        return t
                elif len(ins[2]) == 1:
                    def op(regs, t=ins[1], a=ins[2][0], d=ins[3][0],
                           ch=charge):
                        if ch is not None:
                            ch()
                        regs[d] = regs[a]
                        return t
                else:
                    def op(regs, t=ins[1], srcs=ins[2], dsts=ins[3],
                           ch=charge):
                        if ch is not None:
                            ch()
                        values = [regs[x] for x in srcs]
                        for dst, moved in zip(dsts, values):
                            regs[dst] = moved
                        return t
            elif opcode == OP_CONDBR:
                if not ins[3] and not ins[6]:
                    def op(regs, c=ins[1], tpc=ins[2], fpc=ins[5], ch=charge):
                        if ch is not None:
                            ch()
                        return tpc if regs[c] else fpc
                else:
                    def op(regs, c=ins[1], tpc=ins[2], ts=ins[3], td=ins[4],
                           fpc=ins[5], fs=ins[6], fd=ins[7], ch=charge):
                        if ch is not None:
                            ch()
                        if regs[c]:
                            target, srcs, dsts = tpc, ts, td
                        else:
                            target, srcs, dsts = fpc, fs, fd
                        if srcs:
                            values = [regs[x] for x in srcs]
                            for dst, moved in zip(dsts, values):
                                regs[dst] = moved
                        return target
            elif opcode == OP_CASE:
                def op(regs, src=ins[1], table=ins[2], default=ins[3],
                       ch=charge, err=error, tg=tag_of, int_=int,
                       ctor=CtorObject):
                    value = regs[src]
                    cls = value.__class__
                    tag = (value if cls is int_ else
                           value.tag if cls is ctor else tg(value))
                    target = table.get(tag, default)
                    if target is None:
                        raise err(f"no alternative for tag {tag} in case")
                    if ch is not None:
                        ch()
                    return target
            elif opcode == OP_SWITCH:
                def op(regs, flag=ins[1], table=ins[2], default=ins[3],
                       ch=charge):
                    if ch is not None:
                        ch()
                    return table.get(regs[flag], default)
            elif opcode == OP_CONST_CMP_CONDBR:
                if not ins[8] and not ins[11]:
                    def op(regs, cd=ins[1], v=ins[2], d=ins[3], f=ins[4],
                           a=ins[5], b=ins[6], tpc=ins[7], fpc=ins[10],
                           ch=charge):
                        regs[cd] = v
                        value = f(regs[a], regs[b])
                        regs[d] = value
                        if ch is not None:
                            ch()
                        return tpc if value else fpc
                else:
                    def op(regs, cd=ins[1], v=ins[2], d=ins[3], f=ins[4],
                           a=ins[5], b=ins[6], tpc=ins[7], ts=ins[8],
                           td=ins[9], fpc=ins[10], fs=ins[11], fd=ins[12],
                           ch=charge):
                        regs[cd] = v
                        value = f(regs[a], regs[b])
                        regs[d] = value
                        if ch is not None:
                            ch()
                        if value:
                            target, srcs, dsts = tpc, ts, td
                        else:
                            target, srcs, dsts = fpc, fs, fd
                        if srcs:
                            values = [regs[x] for x in srcs]
                            for dst, moved in zip(dsts, values):
                                regs[dst] = moved
                        return target
            elif opcode == OP_GETLABEL_CMP_CONDBR:
                gd, cd, f, a, b = ins[1], ins[3], ins[6], ins[7], ins[8]
                if _is_tag_dispatch(ins):
                    # Constructor-tag dispatch: the label equals the
                    # constant, compared here.
                    def op(regs, gd=gd, gsrc=ins[2], cd=cd, v=ins[4], d=ins[5],
                           tpc=ins[9], fpc=ins[12], ch=charge, cnt=counts,
                           tg=tag_of, int_=int, ctor=CtorObject):
                        value = regs[gsrc]
                        cls = value.__class__
                        if cls is int_:
                            tag = value
                        elif cls is ctor:
                            tag = value.tag
                        else:
                            try:
                                tag = tg(value)
                            except RuntimeError_:
                                # The unfused sequence stops after getlabel.
                                cnt["const"] -= 1
                                cnt["arith"] -= 1
                                cnt["branch"] -= 1
                                raise
                        regs[gd] = tag
                        regs[cd] = v
                        if ch is not None:
                            ch()
                        if tag == v:
                            regs[d] = 1
                            return tpc
                        regs[d] = 0
                        return fpc
                else:
                    def op(regs, gd=gd, gsrc=ins[2], cd=cd, v=ins[4], d=ins[5],
                           f=f, a=a, b=b, tpc=ins[9], ts=ins[10], td=ins[11],
                           fpc=ins[12], fs=ins[13], fd=ins[14], ch=charge,
                           cnt=counts, tg=tag_of, int_=int, ctor=CtorObject):
                        value = regs[gsrc]
                        cls = value.__class__
                        if cls is int_:
                            tag = value
                        elif cls is ctor:
                            tag = value.tag
                        else:
                            try:
                                tag = tg(value)
                            except RuntimeError_:
                                cnt["const"] -= 1
                                cnt["arith"] -= 1
                                cnt["branch"] -= 1
                                raise
                        regs[gd] = tag
                        regs[cd] = v
                        value = f(regs[a], regs[b])
                        regs[d] = value
                        if ch is not None:
                            ch()
                        if value:
                            target, srcs, dsts = tpc, ts, td
                        else:
                            target, srcs, dsts = fpc, fs, fd
                        if srcs:
                            values = [regs[x] for x in srcs]
                            for dst, moved in zip(dsts, values):
                                regs[dst] = moved
                        return target
            elif opcode == OP_RTCALL_CMP_BR:
                op = _rtcall_cmp_br_site(ins, ctx, counts, charge)
            elif opcode in _PROJ_RUNS:
                op = _proj_site(ins, heap, counts, error, nxt)
            elif opcode == OP_INT_INC:
                # Bind an unboxed constant; box a big one per execution.
                box = None if -SCALAR_INT_LIMIT < ins[2] < SCALAR_INT_LIMIT \
                    else heap.alloc_int
                def op(regs, d=ins[1], v=ins[2], box=box, src=ins[3], k=ins[4],
                       inc=heap.inc, st=stats, int_=int, ctor=CtorObject,
                       arr=ArrayObject, n=nxt):
                    regs[d] = v if box is None else box(v)
                    value = regs[src]
                    cls = value.__class__
                    if cls is int_:
                        st.inc_ops += 1
                    elif (cls is ctor or cls is arr) and not value.freed:
                        value.rc += k
                        st.inc_ops += 1
                    else:
                        inc(value, k)
                    return n(regs)
            elif opcode == OP_DEC_DEC:
                def op(regs, s1=ins[1], c1=ins[2], s2=ins[3], c2=ins[4],
                       dec=heap.dec, st=stats, cnt=counts, int_=int,
                       ctor=CtorObject, n=nxt):
                    value = regs[s1]
                    cls = value.__class__
                    if cls is int_:
                        st.dec_ops += 1
                    elif cls is ctor and value.rc > c1:
                        value.rc -= c1
                        st.dec_ops += 1
                    else:
                        try:
                            dec(value, c1)
                        except RuntimeError_:
                            # Unfused charge stops at the first dec.
                            cnt["rc"] -= 1
                            raise
                    value = regs[s2]
                    cls = value.__class__
                    if cls is int_:
                        st.dec_ops += 1
                    elif cls is ctor and value.rc > c2:
                        value.rc -= c2
                        st.dec_ops += 1
                    else:
                        dec(value, c2)
                    return n(regs)
            elif opcode == OP_DEC_INC:
                def op(regs, s1=ins[1], c1=ins[2], s2=ins[3], c2=ins[4],
                       dec=heap.dec, inc=heap.inc, st=stats, cnt=counts,
                       int_=int, ctor=CtorObject, arr=ArrayObject, n=nxt):
                    value = regs[s1]
                    cls = value.__class__
                    if cls is int_:
                        st.dec_ops += 1
                    elif cls is ctor and value.rc > c1:
                        value.rc -= c1
                        st.dec_ops += 1
                    else:
                        try:
                            dec(value, c1)
                        except RuntimeError_:
                            # Unfused charge stops at the dec.
                            cnt["rc"] -= 1
                            raise
                    value = regs[s2]
                    cls = value.__class__
                    if cls is int_:
                        st.inc_ops += 1
                    elif (cls is ctor or cls is arr) and not value.freed:
                        value.rc += c2
                        st.inc_ops += 1
                    else:
                        inc(value, c2)
                    return n(regs)
            elif opcode == OP_INC_RTCALL:
                rtcall = _rtcall_site(ins[3], ins[4], ins[5], ctx, nxt)
                steps.setdefault(rtcall.__code__, 1)
                op = _inc_rtcall_site(ins[1], ins[2], heap, counts, rtcall)
            elif opcode == OP_RET:
                if ins[1] >= 0:
                    def op(regs, src=ins[1], ret=retslot):
                        ret[0] = regs[src]
                        return -1
                else:
                    def op(regs, ret=retslot):
                        ret[0] = None
                        return -1
            elif opcode == OP_CALL or opcode == OP_TAILCALL:
                tail = opcode == OP_TAILCALL
                callee, argr = (ins[1], ins[2]) if tail else (ins[2], ins[3])
                if len(argr) != callee.num_params:
                    op = _bad_arity_site(
                        callee, len(argr), counts, error, tail
                    )
                else:
                    op = _call_site(
                        pc, -1 if tail else ins[1], callee, argr,
                        pending, -3 if tail else -2,
                    )
            elif opcode == OP_PROJ_CALL:
                op = _proj_call_site(
                    pc, ins, heap, counts, error, pending
                )
            elif opcode == OP_CONSTRUCT:
                op = _construct_site(ins, heap, nxt)
            elif opcode == OP_INT or opcode == OP_BIGINT:
                if -SCALAR_INT_LIMIT < ins[2] < SCALAR_INT_LIMIT:
                    # Unboxed: alloc_int would return the constant itself.
                    def op(regs, d=ins[1], v=ins[2], n=nxt):
                        regs[d] = v
                        return n(regs)
                else:
                    def op(regs, d=ins[1], v=ins[2], alloc=heap.alloc_int,
                           n=nxt):
                        regs[d] = alloc(v)
                        return n(regs)
            elif opcode == OP_CONST:
                def op(regs, d=ins[1], v=ins[2], n=nxt):
                    regs[d] = v
                    return n(regs)
            elif opcode == OP_CONST_CMP:
                def op(regs, cd=ins[1], v=ins[2], d=ins[3], f=ins[4], a=ins[5],
                       b=ins[6], n=nxt):
                    regs[cd] = v
                    regs[d] = f(regs[a], regs[b])
                    return n(regs)
            elif opcode == OP_GETLABEL:
                def op(regs, d=ins[1], src=ins[2], tg=tag_of, int_=int,
                       ctor=CtorObject, n=nxt):
                    value = regs[src]
                    cls = value.__class__
                    regs[d] = (value if cls is int_ else
                               value.tag if cls is ctor else tg(value))
                    return n(regs)
            elif opcode == OP_INC:
                def op(regs, src=ins[1], k=ins[2], inc=heap.inc, st=stats,
                       int_=int, ctor=CtorObject, arr=ArrayObject, n=nxt):
                    value = regs[src]
                    cls = value.__class__
                    if cls is int_:
                        st.inc_ops += 1
                    elif (cls is ctor or cls is arr) and not value.freed:
                        value.rc += k
                        st.inc_ops += 1
                    else:
                        inc(value, k)
                    return n(regs)
            elif opcode == OP_DEC:
                def op(regs, src=ins[1], k=ins[2], dec=heap.dec, st=stats,
                       int_=int, ctor=CtorObject, n=nxt):
                    value = regs[src]
                    cls = value.__class__
                    if cls is int_:
                        st.dec_ops += 1
                    elif cls is ctor and value.rc > k:
                        value.rc -= k
                        st.dec_ops += 1
                    else:
                        dec(value, k)
                    return n(regs)
            elif opcode == OP_RTCALL:
                op = _rtcall_site(ins[1], ins[2], ins[3], ctx, nxt)
            elif opcode == OP_PAP:
                if ins[3] is None:
                    def op(regs, name=ins[2], err=error):
                        raise err(f"pap of unknown function {name}")
                else:
                    def op(regs, d=ins[1], name=ins[2], arity=ins[3],
                           argr=ins[4], heap=heap, mk=make_closure, n=nxt):
                        regs[d] = mk(heap, name, arity, [regs[r] for r in argr])
                        return n(regs)
            elif opcode == OP_PAPEXTEND:
                def op(regs, d=ins[1], c=ins[2], argr=ins[3],
                       apply=self._apply, r=pc + 1):
                    return apply(regs, d, regs[c], [regs[x] for x in argr], r)
            elif opcode == OP_REUSE:
                category = "alloc_ctor" if ins[4] else "move"
                def op(regs, d=ins[1], tok=ins[2], tag=ins[3], fr=ins[4],
                       heap=heap, cnt=counts, cat=category, ctor=CtorObject,
                       n=nxt):
                    token = regs[tok]
                    fields = [regs[r] for r in fr]
                    if isinstance(token, ctor):
                        cnt["reuse"] += 1
                    else:
                        cnt[cat] += 1
                    regs[d] = heap.reuse(token, tag, fields)
                    return n(regs)
            elif opcode == OP_RESET:
                def op(regs, d=ins[1], src=ins[2], reset=heap.reset, n=nxt):
                    regs[d] = reset(regs[src])
                    return n(regs)
            elif opcode == OP_UNREACHABLE:
                def op(regs, err=error, msg=ins[1]):
                    raise err(msg)
            elif opcode == OP_BADCALL:
                if flavor == "cfg":
                    message = f"call of unknown function @{ins[1]}"
                else:
                    message = f"unknown function {ins[1]}"
                def op(regs, err=error, msg=message):
                    raise err(msg)
            else:
                def op(regs, err=error, bad=opcode):
                    raise err(f"invalid opcode {bad}")
            ops[pc] = op
            steps[op.__code__] = 0 if opcode == OP_INC_RTCALL else 1
        entry = self._threaded[fn] = ops, sites, falls
        return entry
