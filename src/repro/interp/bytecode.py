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
  compiled code arrays that collapses the hot adjacent pairs the
  ``vm.instr.freq.*`` telemetry identified (``cmp``+``cond_br``,
  ``const``+``binarith``/``cmp``, ``getlabel``+``switch``,
  ``proj``+``call``, ``call``+``ret``) into single fused opcodes.  Fusion
  is driven by the declarative :data:`FUSION_RULES` table — a new pair is
  one more table entry — and a fused instruction charges *exactly* the
  cost-model events of the unfused sequence, so metrics stay
  byte-identical.  (λrc ``case`` is already the pre-fused tag dispatch:
  the rc frontend never emits a separate ``getlabel``, which is why the
  getlabel fusion pairs with the CFG ``switch``.)
* *direct threading* — the VM precompiles every instruction to a
  bound closure capturing its operands, so the run loop is
  ``pc = ops[pc](regs)``.
* *an explicit call stack* — ``call``/``ret`` push and pop VM frames
  inside the run loop instead of recursing in Python, and so does
  closure application, so deep recursion never rides
  ``sys.setrecursionlimit`` and
  :class:`~repro.resilience.budgets.ExecutionBudget` counts VM frames,
  not Python depth.  A call site builds its callee's register frame
  itself, and a ``tailcall`` (a ``call`` whose result the next
  instruction returns) replaces the current frame instead of stacking a
  new one, so a tail-recursive loop runs in constant frame memory.
* *scalar-specialised runtime calls* — threaded ``rtcall`` sites of the
  :data:`SCALAR_RTCALLS` builtins (Nat/Int ``add``/``sub``/``mul`` and the
  comparisons) compute on unboxed ``int`` operands inside the closure and
  call the generic builtin otherwise, with the generic call's values, heap
  statistics and charges.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dialects import arith, cf, lp
from ..dialects.builtin import ModuleOp
from ..dialects.func import CallOp, FuncOp, GetGlobalOp, ReturnOp, SetGlobalOp
from ..lambda_pure import ir as rc_ir
from ..runtime import (
    BUILTINS,
    FALSE,
    SCALAR_INT_LIMIT,
    TRUE,
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
# absolute instruction indices within the function's code array.

OP_RET = 0          # (op, src)                       charge: return
OP_JMP = 1          # (op, pc, srcs, dsts)            charge: jump
OP_CONDBR = 2       # (op, cond, tpc, tsrcs, tdsts, fpc, fsrcs, fdsts)  branch
OP_SWITCH = 3       # (op, flag, {value: pc}, default_pc)               branch
OP_CASE = 4         # (op, src, {tag: pc}, default_pc|None)  getlabel+arith+branch
OP_UNREACHABLE = 5  # (op, message)
OP_CONST = 6        # (op, dst, value)                charge: const
OP_INT = 7          # (op, dst, value)                charge: move
OP_BIGINT = 8       # (op, dst, value)                charge: runtime_call
OP_CONSTRUCT = 9    # (op, dst, tag, field_regs, category)
OP_GETLABEL = 10    # (op, dst, src)                  charge: getlabel
OP_PROJ = 11        # (op, dst, src, index)           charge: proj + rc
OP_PAP = 12         # (op, dst, callee, arity|None, arg_regs)  alloc_closure
OP_PAPEXTEND = 13   # (op, dst, closure, arg_regs)    charge: apply (dynamic)
OP_INC = 14         # (op, src, count)                charge: rc
OP_DEC = 15         # (op, src, count)                charge: rc
OP_RESET = 16       # (op, dst, src)                  charge: rc
OP_REUSE = 17       # (op, dst, token, tag, field_regs)  dynamic
OP_CALL = 18        # (op, dst, BytecodeFunction, arg_regs)  charge: call
OP_RTCALL = 19      # (op, dst, name, arg_regs)       charge: runtime_call
OP_BADCALL = 20     # (op, name)                      raises
OP_GETGLOBAL = 21   # (op, dst, name)                 charge: global
OP_SETGLOBAL = 22   # (op, name, src)                 charge: global
OP_BINARITH = 23    # (op, dst, fn, lhs, rhs)         charge: arith
OP_CMP = 24         # (op, dst, fn, lhs, rhs)         charge: arith
OP_SELECT = 25      # (op, dst, cond, t, f)           charge: arith
OP_CAST = 26        # (op, dst, src)                  charge: arith

# Superinstructions (emitted only by the fusion peephole, never by the
# frontends).  Each charges exactly the events of its unfused pair; the
# first instruction's destination register is still written, so fusion
# needs no liveness analysis.
OP_CMP_CONDBR = 27        # (op, dst, fn, lhs, rhs, tpc, tsrcs, tdsts, fpc, fsrcs, fdsts)
OP_CONST_BINARITH = 28    # (op, cdst, value, dst, fn, lhs, rhs)
OP_CONST_CMP = 29         # (op, cdst, value, dst, fn, lhs, rhs)
OP_GETLABEL_SWITCH = 30   # (op, dst, src, {tag: pc}, default_pc)
OP_PROJ_CALL = 31         # (op, pdst, psrc, pindex, cdst, BytecodeFunction, arg_regs)

# Chain superinstructions — second-pass fusions over already-fused
# opcodes (the peephole runs to fixpoint), covering the hottest dynamic
# sequences of the benchmark suite: constructor-tag dispatch
# (getlabel; const; cmp; cond_br) and RC/projection runs.
OP_CONST_CMP_CONDBR = 32  # (op, cdst, value, dst, fn, lhs, rhs,
                          #  tpc, tsrcs, tdsts, fpc, fsrcs, fdsts)
OP_GETLABEL_CMP_CONDBR = 33  # (op, gdst, gsrc, cdst, value, dst, fn, lhs,
                             #  rhs, tpc, tsrcs, tdsts, fpc, fsrcs, fdsts)
OP_PROJ_PROJ = 34         # (op, d1, s1, i1, d2, s2, i2)
OP_INT_INC = 35           # (op, dst, value, src, count)
OP_DEC_DEC = 36           # (op, s1, c1, s2, c2)
OP_INC_RTCALL = 37        # (op, src, count, dst, name, arg_regs)
OP_DEC_INC = 38           # (op, dsrc, dcount, isrc, icount)
OP_PROJ3 = 39             # (op, d1, s1, i1, d2, s2, i2, d3, s3, i3)
OP_PROJ4 = 40             # (op, d1, s1, i1, ..., d4, s4, i4)
# A call whose result the next instruction returns: the callee's frame
# replaces the caller's instead of stacking on it.
OP_TAILCALL = 41          # (op, BytecodeFunction, arg_regs)

#: Human-readable opcode names (docs/EXECUTION.md and the unit tests).
OPCODE_NAMES = {
    OP_RET: "ret", OP_JMP: "jmp", OP_CONDBR: "cond_br", OP_SWITCH: "switch",
    OP_CASE: "case", OP_UNREACHABLE: "unreachable", OP_CONST: "const",
    OP_INT: "int", OP_BIGINT: "bigint", OP_CONSTRUCT: "construct",
    OP_GETLABEL: "getlabel", OP_PROJ: "proj", OP_PAP: "pap",
    OP_PAPEXTEND: "papextend", OP_INC: "inc", OP_DEC: "dec",
    OP_RESET: "reset", OP_REUSE: "reuse", OP_CALL: "call",
    OP_RTCALL: "rtcall", OP_BADCALL: "badcall", OP_GETGLOBAL: "getglobal",
    OP_SETGLOBAL: "setglobal", OP_BINARITH: "binarith", OP_CMP: "cmp",
    OP_SELECT: "select", OP_CAST: "cast",
    OP_CMP_CONDBR: "cmp_cond_br", OP_CONST_BINARITH: "const_binarith",
    OP_CONST_CMP: "const_cmp", OP_GETLABEL_SWITCH: "getlabel_switch",
    OP_PROJ_CALL: "proj_call", OP_CONST_CMP_CONDBR: "const_cmp_br",
    OP_GETLABEL_CMP_CONDBR: "getlabel_cmp_br", OP_PROJ_PROJ: "proj_proj",
    OP_INT_INC: "int_inc", OP_DEC_DEC: "dec_dec",
    OP_INC_RTCALL: "inc_rtcall", OP_DEC_INC: "dec_inc",
    OP_PROJ3: "proj3", OP_PROJ4: "proj4", OP_TAILCALL: "tailcall",
}

#: Size of the per-VM opcode frequency table.
NUM_OPCODES = len(OPCODE_NAMES)

def _divsi(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in arith.divsi")
    return int(a / b)


def _remsi(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("remainder by zero in arith.remsi")
    return a - int(a / b) * b


#: Binary arithmetic resolved to callables at compile time.  The semantics
#: (including errors) must stay those of :func:`repro.dialects.arith.
#: evaluate_binary` — the resolved tables exist only to skip its per-event
#: name dispatch; a drift test compares every entry against the oracle.
_BINARY_FNS: Dict[str, Callable[[int, int], int]] = {
    arith.AddIOp.OP_NAME: lambda a, b: a + b,
    arith.SubIOp.OP_NAME: lambda a, b: a - b,
    arith.MulIOp.OP_NAME: lambda a, b: a * b,
    arith.DivSIOp.OP_NAME: _divsi,
    arith.RemSIOp.OP_NAME: _remsi,
    arith.AndIOp.OP_NAME: lambda a, b: a & b,
    arith.OrIOp.OP_NAME: lambda a, b: a | b,
    arith.XorIOp.OP_NAME: lambda a, b: a ^ b,
}

#: Comparison predicates resolved to callables (semantics of
#: :func:`repro.dialects.arith.evaluate_cmpi`; drift-tested likewise).
_CMP_FNS: Dict[str, Callable[[int, int], int]] = {
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "slt": lambda a, b: 1 if a < b else 0,
    "sle": lambda a, b: 1 if a <= b else 0,
    "sgt": lambda a, b: 1 if a > b else 0,
    "sge": lambda a, b: 1 if a >= b else 0,
    "ult": lambda a, b: 1 if abs(a) < abs(b) else 0,
    "ule": lambda a, b: 1 if abs(a) <= abs(b) else 0,
    "ugt": lambda a, b: 1 if abs(a) > abs(b) else 0,
    "uge": lambda a, b: 1 if abs(a) >= abs(b) else 0,
}

#: Runtime builtins whose threaded ``rtcall`` closure computes the result
#: itself when both operands are unboxed ``int``s: name -> (shape,
#: operator).  ``nat`` results clamp at 0, ``int`` results do not, ``cmp``
#: results are the ``Bool`` tags.  A result at or beyond
#: ±``SCALAR_INT_LIMIT`` goes through ``Heap.alloc_int`` and any other
#: operand (a ``BigIntObject``) through the generic builtin, so values and
#: heap statistics are the generic call's; the site's charge is the static
#: ``runtime_call`` either way.
SCALAR_RTCALLS: Dict[str, Tuple[str, Callable[[int, int], object]]] = {
    "lean_nat_add": ("nat", operator.add),
    "lean_nat_sub": ("nat", operator.sub),
    "lean_nat_mul": ("nat", operator.mul),
    "lean_int_add": ("int", operator.add),
    "lean_int_sub": ("int", operator.sub),
    "lean_int_mul": ("int", operator.mul),
    **{
        f"lean_{domain}_dec_{predicate}": ("cmp", getattr(operator, predicate))
        for domain in ("nat", "int")
        for predicate in ("eq", "ne", "lt", "le", "gt", "ge")
    },
}


def _scalar_rtcall(scalar, slow, ctx, alloc, sites, pc, dst, args, nxt):
    """The threaded closure of an ``rtcall`` site in :data:`SCALAR_RTCALLS`:
    ``int`` operands are computed here, any other goes to ``slow`` (the
    generic builtin)."""
    shape, fn = scalar
    lhs, rhs = args
    if shape == "cmp":
        def op(regs, s=sites, i=pc, d=dst, a=lhs, b=rhs, f=fn, slow=slow,
               ctx=ctx, int_=int, yes=TRUE, no=FALSE, n=nxt):
            s[i] += 1
            x = regs[a]
            y = regs[b]
            if x.__class__ is int_ and y.__class__ is int_:
                regs[d] = yes if f(x, y) else no
            else:
                regs[d] = slow(ctx, [x, y])
            return n
    elif shape == "nat":
        def op(regs, s=sites, i=pc, d=dst, a=lhs, b=rhs, f=fn, slow=slow,
               ctx=ctx, alloc=alloc, int_=int, lim=SCALAR_INT_LIMIT, n=nxt):
            s[i] += 1
            x = regs[a]
            y = regs[b]
            if x.__class__ is int_ and y.__class__ is int_:
                r = f(x, y)
                if r < 0:
                    r = 0
                regs[d] = r if r < lim else alloc(r)
            else:
                regs[d] = slow(ctx, [x, y])
            return n
    else:
        def op(regs, s=sites, i=pc, d=dst, a=lhs, b=rhs, f=fn, slow=slow,
               ctx=ctx, alloc=alloc, int_=int, lim=SCALAR_INT_LIMIT, n=nxt):
            s[i] += 1
            x = regs[a]
            y = regs[b]
            if x.__class__ is int_ and y.__class__ is int_:
                r = f(x, y)
                regs[d] = r if -lim < r < lim else alloc(r)
            else:
                regs[d] = slow(ctx, [x, y])
            return n
    return op


def _frame_pad(callee: "BytecodeFunction") -> List[None]:
    """The registers of ``callee``'s frame after its parameters."""
    return [None] * (callee.num_regs - callee.num_params)


def _call_site(sites, pc, dst, callee, argr, pend, sentinel):
    """The threaded closure of a direct ``call`` (``sentinel`` -2) or
    ``tailcall`` (-3) site: it builds the callee's finished register frame
    and hands it to the loop in ``pend``.  Up to three arguments are read
    without a comprehension, which is a call of its own before 3.12."""
    pad = _frame_pad(callee)
    count = len(argr)
    if count == 0:
        def op(regs, s=sites, i=pc, d=dst, c=callee, pad=pad, pend=pend,
               sig=sentinel):
            s[i] += 1
            pend[0] = c
            pend[1] = pad[:]
            pend[2] = d
            return sig
    elif count == 1:
        def op(regs, s=sites, i=pc, d=dst, c=callee, a=argr[0], pad=pad,
               pend=pend, sig=sentinel):
            s[i] += 1
            pend[0] = c
            pend[1] = [regs[a]] + pad
            pend[2] = d
            return sig
    elif count == 2:
        def op(regs, s=sites, i=pc, d=dst, c=callee, a=argr[0], b=argr[1],
               pad=pad, pend=pend, sig=sentinel):
            s[i] += 1
            pend[0] = c
            pend[1] = [regs[a], regs[b]] + pad
            pend[2] = d
            return sig
    elif count == 3:
        def op(regs, s=sites, i=pc, d=dst, c=callee, a=argr[0], b=argr[1],
               e=argr[2], pad=pad, pend=pend, sig=sentinel):
            s[i] += 1
            pend[0] = c
            pend[1] = [regs[a], regs[b], regs[e]] + pad
            pend[2] = d
            return sig
    else:
        def op(regs, s=sites, i=pc, d=dst, c=callee,
               get=operator.itemgetter(*argr), pad=pad, pend=pend,
               sig=sentinel):
            s[i] += 1
            pend[0] = c
            pend[1] = list(get(regs)) + pad
            pend[2] = d
            return sig
    return op


def _proj_call_site(sites, pc, ins, heap, counts, error, pend):
    """The threaded closure of a ``proj_call`` site: ``proj``, then a call
    that builds its callee's frame as :func:`_call_site` does.  The
    projected field is always an argument: with one argument it is the
    frame's only value, and more are read with one ``itemgetter``."""
    _, pd, src, idx, cd, callee, argr = ins
    get = operator.itemgetter(*argr) if len(argr) > 1 else None
    def op(regs, s=sites, i=pc, pd=pd, src=src, idx=idx, cd=cd, c=callee,
           get=get, pad=_frame_pad(callee), heap=heap, cnt=counts,
           err=error, ctor=CtorObject, pend=pend):
        s[i] += 1
        value = regs[src]
        if not isinstance(value, ctor):
            # The unfused charge stops at proj on this error.
            cnt["rc"] -= 1
            cnt["call"] -= 1
            raise err(f"projection from non-constructor {value!r}")
        field = value.fields[idx]
        heap.inc(field)
        regs[pd] = field
        pend[0] = c
        pend[1] = ([field] if get is None else list(get(regs))) + pad
        pend[2] = cd
        return -2
    return op


def _bad_arity_site(sites, pc, callee, argc, counts, error, tail):
    """The threaded closure of a call site whose argument count does not
    match its callee: it raises at execution time, after the call's fault
    site, as a function entry does.  A ``tailcall`` site's fused ``ret``
    never runs, so it takes back that charge first."""
    def op(regs, s=sites, i=pc, owed=1 if tail else 0, cnt=counts,
           fh=fault_hit, err=error):
        s[i] += 1
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


def _resolve_labels(code: List[Tuple]) -> List[Tuple]:
    """Replace :class:`_Label` references (including dict values) with pcs."""
    resolved = []
    for ins in code:
        out = []
        for element in ins:
            if isinstance(element, _Label):
                out.append(element.pc)
            elif isinstance(element, dict):
                out.append({
                    key: value.pc if isinstance(value, _Label) else value
                    for key, value in element.items()
                })
            else:
                out.append(element)
        resolved.append(tuple(out))
    return resolved


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
#: plus its closure in ``_compile_threaded`` and docs/EXECUTION.md.
FUSION_RULES = (
    # cmp dst feeds the branch condition.
    FusionRule(
        OP_CMP, OP_CONDBR, OP_CMP_CONDBR,
        match=lambda a, b: b[1] == a[1],
        build=lambda a, b: (
            OP_CMP_CONDBR, a[1], a[2], a[3], a[4],
            b[2], b[3], b[4], b[5], b[6], b[7],
        ),
    ),
    # const dst feeds a binary arith operand.
    FusionRule(
        OP_CONST, OP_BINARITH, OP_CONST_BINARITH,
        match=lambda a, b: a[1] == b[3] or a[1] == b[4],
        build=lambda a, b: (
            OP_CONST_BINARITH, a[1], a[2], b[1], b[2], b[3], b[4]
        ),
    ),
    # const dst feeds a comparison operand.
    FusionRule(
        OP_CONST, OP_CMP, OP_CONST_CMP,
        match=lambda a, b: a[1] == b[3] or a[1] == b[4],
        build=lambda a, b: (
            OP_CONST_CMP, a[1], a[2], b[1], b[2], b[3], b[4]
        ),
    ),
    # getlabel dst feeds the switch flag (λrc's case is pre-fused).
    FusionRule(
        OP_GETLABEL, OP_SWITCH, OP_GETLABEL_SWITCH,
        match=lambda a, b: b[1] == a[1],
        build=lambda a, b: (OP_GETLABEL_SWITCH, a[1], a[2], b[2], b[3]),
    ),
    # proj dst feeds a direct-call argument.
    FusionRule(
        OP_PROJ, OP_CALL, OP_PROJ_CALL,
        match=lambda a, b: a[1] in b[3],
        build=lambda a, b: (
            OP_PROJ_CALL, a[1], a[2], a[3], b[1], b[2], b[3]
        ),
    ),
    # Chain rules (picked up by the peephole's later passes): a fused
    # const_cmp whose result feeds the branch condition, and the full
    # constructor-tag dispatch where getlabel feeds the comparison.
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


def _jump_targets(code: List[Tuple]) -> set:
    """Every pc some instruction can transfer control to.

    Handles the fused branch opcodes too: the peephole runs to fixpoint,
    so later passes scan code that already contains superinstructions.
    """
    targets = set()
    for ins in code:
        opcode = ins[0]
        if opcode == OP_JMP:
            targets.add(ins[1])
        elif opcode == OP_CONDBR:
            targets.add(ins[2])
            targets.add(ins[5])
        elif opcode == OP_CMP_CONDBR:
            targets.add(ins[5])
            targets.add(ins[8])
        elif opcode == OP_CONST_CMP_CONDBR:
            targets.add(ins[7])
            targets.add(ins[10])
        elif opcode == OP_GETLABEL_CMP_CONDBR:
            targets.add(ins[9])
            targets.add(ins[12])
        elif opcode == OP_SWITCH:
            targets.update(ins[2].values())
            targets.add(ins[3])
        elif opcode == OP_GETLABEL_SWITCH:
            targets.update(ins[3].values())
            targets.add(ins[4])
        elif opcode == OP_CASE:
            targets.update(ins[2].values())
            if ins[3] is not None:
                targets.add(ins[3])
    return targets


def _remap_targets(ins: Tuple, mapping: Dict[int, int]) -> Tuple:
    """Rewrite an instruction's branch targets through ``mapping``."""
    opcode = ins[0]
    if opcode == OP_JMP:
        return (opcode, mapping[ins[1]], ins[2], ins[3])
    if opcode == OP_CONDBR:
        return (
            opcode, ins[1], mapping[ins[2]], ins[3], ins[4],
            mapping[ins[5]], ins[6], ins[7],
        )
    if opcode == OP_CMP_CONDBR:
        return ins[:5] + (
            mapping[ins[5]], ins[6], ins[7],
            mapping[ins[8]], ins[9], ins[10],
        )
    if opcode == OP_CONST_CMP_CONDBR:
        return ins[:7] + (
            mapping[ins[7]], ins[8], ins[9],
            mapping[ins[10]], ins[11], ins[12],
        )
    if opcode == OP_GETLABEL_CMP_CONDBR:
        return ins[:9] + (
            mapping[ins[9]], ins[10], ins[11],
            mapping[ins[12]], ins[13], ins[14],
        )
    if opcode == OP_SWITCH:
        return (
            opcode, ins[1],
            {key: mapping[pc] for key, pc in ins[2].items()},
            mapping[ins[3]],
        )
    if opcode == OP_GETLABEL_SWITCH:
        return (
            opcode, ins[1], ins[2],
            {key: mapping[pc] for key, pc in ins[3].items()},
            mapping[ins[4]],
        )
    if opcode == OP_CASE:
        return (
            opcode, ins[1],
            {key: mapping[pc] for key, pc in ins[2].items()},
            mapping[ins[3]] if ins[3] is not None else None,
        )
    return ins


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

        # Calls and globals ----------------------------------------------
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
        if isinstance(op, GetGlobalOp):
            code.append((OP_GETGLOBAL, self._reg(op.result()), op.global_name))
            return
        if isinstance(op, SetGlobalOp):
            code.append((OP_SETGLOBAL, op.global_name, self.regs[op.operands[0]]))
            return

        # arith -----------------------------------------------------------
        if isinstance(op, arith.ConstantOp):
            code.append((OP_CONST, self._reg(op.result()), op.value))
            return
        if isinstance(op, arith.CmpIOp):
            code.append((
                OP_CMP, self._reg(op.result()), _CMP_FNS[op.predicate],
                self.regs[op.operands[0]], self.regs[op.operands[1]],
            ))
            return
        if isinstance(op, arith.SelectOp):
            code.append((
                OP_SELECT, self._reg(op.result()), self.regs[op.operands[0]],
                self.regs[op.operands[1]], self.regs[op.operands[2]],
            ))
            return
        binary = _BINARY_FNS.get(op.name)
        if binary is not None:
            code.append((
                OP_BINARITH, self._reg(op.result()), binary,
                self.regs[op.operands[0]], self.regs[op.operands[1]],
            ))
            return
        if isinstance(op, (arith.TruncIOp, arith.ExtUIOp)):
            code.append((OP_CAST, self._reg(op.result()), self.regs[op.operands[0]]))
            return

        raise BytecodeError(f"cannot compile operation {op.name}")


def compile_cfg_module(
    module: ModuleOp, *, main: str = "main", fuse: bool = False
) -> BytecodeProgram:
    """Compile a CFG-form MLIR module to a :class:`BytecodeProgram`.

    Declarations (runtime functions) are left to the builtin dispatcher;
    only bodies are compiled.  ``fuse=True`` runs the superinstruction
    peephole (:func:`fuse_program`) over the result.
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
    program: rc_ir.Program, *, fuse: bool = False
) -> BytecodeProgram:
    """Compile a λrc program to a :class:`BytecodeProgram`."""
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
#: threaded loop counts executions per instruction *site* and
#: derives charge counts (and opcode frequencies) from this table when a
#: run flushes — one list increment per instruction instead of dict
#: updates in the hot loop.  ``None`` marks ``construct``, whose category
#: is per-site (``ins[4]``); empty tuples mark the dynamically-charged
#: opcodes (``reuse``, ``papextend``) whose closures charge inline.
#: Partial-charge error paths (``proj`` raising before its ``rc`` charge,
#: ``getlabel_switch`` raising before its ``branch`` charge) apply
#: negative corrections to the dynamic counters before propagating; a run
#: that raises inside a tail-call chain takes back the ``return`` of each
#: ``tailcall`` whose chain has not returned (see ``_run_threaded``).
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
    OP_GETGLOBAL: ("global",),
    OP_SETGLOBAL: ("global",),
    OP_BINARITH: ("arith",),
    OP_CMP: ("arith",),
    OP_SELECT: ("arith",),
    OP_CAST: ("arith",),
    OP_CMP_CONDBR: ("arith", "branch"),
    OP_CONST_BINARITH: ("const", "arith"),
    OP_CONST_CMP: ("const", "arith"),
    OP_GETLABEL_SWITCH: ("getlabel", "branch"),
    OP_PROJ_CALL: ("proj", "rc", "call"),
    OP_CONST_CMP_CONDBR: ("const", "arith", "branch"),
    OP_GETLABEL_CMP_CONDBR: ("getlabel", "const", "arith", "branch"),
    OP_PROJ_PROJ: ("proj", "rc", "proj", "rc"),
    OP_INT_INC: ("move", "rc"),
    OP_DEC_DEC: ("rc", "rc"),
    OP_INC_RTCALL: ("rc", "runtime_call"),
    OP_DEC_INC: ("rc", "rc"),
    OP_PROJ3: ("proj", "rc", "proj", "rc", "proj", "rc"),
    OP_PROJ4: ("proj", "rc", "proj", "rc", "proj", "rc", "proj", "rc"),
    OP_TAILCALL: ("call", "return"),
}


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
        self.globals: Dict[str, object] = {}
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
        #: Threaded-loop state: per-function closure arrays, the
        #: per-site execution counters they bump, and the two cells the
        #: call/ret closures use to talk to the frame loop: ``_pending``
        #: holds (callee, its frame, destination register, arguments left
        #: over for the callee's result), ``_retslot`` the returned value.
        self._threaded: Dict[BytecodeFunction, List[Callable]] = {}
        self._site_tables: Dict[BytecodeFunction, List[int]] = {}
        self._pending: List[object] = [None, None, None, None]
        self._retslot: List[object] = [None]
        #: The code of an over-application's continuation frame, whose
        #: registers are ``[callee result, arguments left over]``: apply
        #: the result to the leftovers, then return what that gives.  It
        #: has no sites, so it charges nothing the applications do not.
        def resume(regs, apply=self._apply):
            return apply(regs, 0, regs[0], regs[1], 1)

        def finish(regs, ret=self._retslot):
            ret[0] = regs[0]
            return -1

        self._continuation: List[Callable] = [resume, finish]

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
        if self._site_tables:
            self._drain_sites()
        counts = self.metrics.counts
        for category, count in self._counts.items():
            if count:
                counts[category] = counts.get(category, 0) + count
                self._counts[category] = 0

    def _drain_sites(self) -> None:
        """Fold the threaded loop's per-site execution counters into
        the charge accumulator and the opcode frequency table."""
        counts = self._counts
        freq = self.opcode_counts
        for fn, sites in self._site_tables.items():
            code = fn.code
            for pc, executed in enumerate(sites):
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
                sites[pc] = 0

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

        An unsaturated result lands in ``regs[dst]``.  A saturated call of
        a bytecode function goes through the loop's frame stack like a
        direct call (``-2``); with arguments left over (``-4``) the loop
        also stacks a continuation frame that applies the callee's result
        to them.  The charge order is the tree-walkers': ``apply``,
        ``call``, the ``vm.dispatch`` fault site, the budget step.
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
            if outcome.extra_args is None:
                return -2
            pending[3] = outcome.extra_args
            return -4

    # -- the interpreter loop ---------------------------------------------
    def _run_threaded(self, fn: BytecodeFunction, args: List[object]) -> object:
        """The direct-threaded loop: ``pc = ops[pc](regs)``.

        Every instruction is a closure built by :meth:`_compile_threaded`
        with its operands bound as defaults; it bumps its site counter and
        returns the next pc.  Negative sentinels thread control back:

        * ``-1`` returns (value in ``self._retslot``): pop the caller's
          frame and write its destination register;
        * ``-2`` calls: push the caller's frame and adopt the callee's,
          which the call site built (``self._pending``);
        * ``-3`` tail-calls: adopt the callee's frame in place of the
          current one and push nothing;
        * ``-4`` calls, then applies the result to the arguments left over
          from an over-application: as ``-2``, with a continuation frame
          (``self._continuation``) stacked between caller and callee.

        A stacked frame is ``(ops, regs, return pc, return register, tail
        calls)``.  The last field counts the tail calls that frame made:
        a ``tailcall`` site charges its fused ``ret`` when it runs, so a
        run that raises takes back the returns of every chain still open.
        The ``vm.dispatch`` fault site and the budget step come once per
        call of any kind; with no fault plan active, no site can fire and
        the loop skips the hit.
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
        ops = threaded.get(fn)
        if ops is None:
            ops = self._compile_threaded(fn)
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
                next_pc = ops[pc](regs)
                if next_pc >= 0:
                    pc = next_pc
                    continue
                if next_pc == -1:
                    value = retslot[0]
                    retslot[0] = None
                    if not stack:
                        return value
                    ops, regs, pc, dst, tails = stack.pop()
                    if dst >= 0:
                        regs[dst] = value
                    continue
                # A call.  Arity was checked when the site's closure was
                # built; mismatched sites raise instead of returning here.
                if next_pc == -3:
                    tails += 1
                else:
                    stack.append((ops, regs, pc + 1, pending[2], tails))
                    tails = 0
                    if next_pc == -4:
                        stack.append(
                            (continuation, [None, pending[3]], 0, 0, 0)
                        )
                if fh is not None:
                    fh("vm.dispatch")
                if budget is not None:
                    budget.charge()
                callee = pending[0]
                ops = threaded.get(callee)
                if ops is None:
                    ops = self._compile_threaded(callee)
                regs = pending[1]
                pc = 0
        except BaseException:
            owed = tails + sum(frame[4] for frame in stack)
            if owed:
                self._counts["return"] -= owed
            raise

    def _compile_threaded(self, fn: BytecodeFunction) -> List[Callable]:
        """Translate ``fn.code`` into the closure array the threaded loop
        runs, registering its per-site execution counters.

        Closures bind everything through default arguments (locals, not
        cell lookups) and do no cost accounting beyond one list increment:
        charges and frequencies are derived from :data:`_STATIC_CHARGES`
        at flush time.  Only the genuinely dynamic charges (``reuse``
        tokens, closure application) and the partial-charge error
        corrections touch the counter dict while running.
        """
        code = fn.code
        sites = [0] * len(code)
        ops: List[Callable] = [None] * len(code)
        counts = self._counts
        ctx = self.ctx
        heap = ctx.heap
        charge = self.budget.charge if self.budget is not None else None
        pending = self._pending
        retslot = self._retslot
        error = self._error
        globals_ = self.globals
        flavor = self.program.flavor
        for pc, ins in enumerate(code):
            opcode = ins[0]
            nxt = pc + 1
            if opcode == OP_BINARITH or opcode == OP_CMP:
                def op(regs, s=sites, i=pc, d=ins[1], f=ins[2], a=ins[3],
                       b=ins[4], n=nxt):
                    s[i] += 1
                    regs[d] = f(regs[a], regs[b])
                    return n
            elif opcode == OP_CMP_CONDBR:
                if not ins[6] and not ins[9]:
                    def op(regs, s=sites, i=pc, d=ins[1], f=ins[2], a=ins[3],
                           b=ins[4], tpc=ins[5], fpc=ins[8], ch=charge):
                        s[i] += 1
                        value = f(regs[a], regs[b])
                        regs[d] = value
                        if ch is not None:
                            ch()
                        return tpc if value else fpc
                else:
                    def op(regs, s=sites, i=pc, d=ins[1], f=ins[2], a=ins[3],
                           b=ins[4], tpc=ins[5], ts=ins[6], td=ins[7],
                           fpc=ins[8], fs=ins[9], fd=ins[10], ch=charge):
                        s[i] += 1
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
            elif opcode == OP_JMP:
                if not ins[2]:
                    def op(regs, s=sites, i=pc, t=ins[1], ch=charge):
                        s[i] += 1
                        if ch is not None:
                            ch()
                        return t
                elif len(ins[2]) == 1:
                    def op(regs, s=sites, i=pc, t=ins[1], a=ins[2][0],
                           d=ins[3][0], ch=charge):
                        s[i] += 1
                        if ch is not None:
                            ch()
                        regs[d] = regs[a]
                        return t
                else:
                    def op(regs, s=sites, i=pc, t=ins[1], srcs=ins[2],
                           dsts=ins[3], ch=charge):
                        s[i] += 1
                        if ch is not None:
                            ch()
                        values = [regs[x] for x in srcs]
                        for dst, moved in zip(dsts, values):
                            regs[dst] = moved
                        return t
            elif opcode == OP_CONDBR:
                if not ins[3] and not ins[6]:
                    def op(regs, s=sites, i=pc, c=ins[1], tpc=ins[2],
                           fpc=ins[5], ch=charge):
                        s[i] += 1
                        if ch is not None:
                            ch()
                        return tpc if regs[c] else fpc
                else:
                    def op(regs, s=sites, i=pc, c=ins[1], tpc=ins[2],
                           ts=ins[3], td=ins[4], fpc=ins[5], fs=ins[6],
                           fd=ins[7], ch=charge):
                        s[i] += 1
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
                def op(regs, s=sites, i=pc, src=ins[1], table=ins[2],
                       default=ins[3], ch=charge, err=error, tg=tag_of):
                    s[i] += 1
                    tag = tg(regs[src])
                    target = table.get(tag, default)
                    if target is None:
                        raise err(f"no alternative for tag {tag} in case")
                    if ch is not None:
                        ch()
                    return target
            elif opcode == OP_SWITCH:
                def op(regs, s=sites, i=pc, flag=ins[1], table=ins[2],
                       default=ins[3], ch=charge):
                    s[i] += 1
                    if ch is not None:
                        ch()
                    return table.get(regs[flag], default)
            elif opcode == OP_GETLABEL_SWITCH:
                def op(regs, s=sites, i=pc, d=ins[1], src=ins[2],
                       table=ins[3], default=ins[4], ch=charge, cnt=counts,
                       tg=tag_of):
                    s[i] += 1
                    try:
                        tag = tg(regs[src])
                    except RuntimeError_:
                        # The unfused sequence charges getlabel but never
                        # reaches the switch's branch charge.
                        cnt["branch"] -= 1
                        raise
                    regs[d] = tag
                    if ch is not None:
                        ch()
                    return table.get(tag, default)
            elif opcode == OP_CONST_CMP_CONDBR:
                if not ins[8] and not ins[11]:
                    def op(regs, s=sites, i=pc, cd=ins[1], v=ins[2],
                           d=ins[3], f=ins[4], a=ins[5], b=ins[6],
                           tpc=ins[7], fpc=ins[10], ch=charge):
                        s[i] += 1
                        regs[cd] = v
                        value = f(regs[a], regs[b])
                        regs[d] = value
                        if ch is not None:
                            ch()
                        return tpc if value else fpc
                else:
                    def op(regs, s=sites, i=pc, cd=ins[1], v=ins[2],
                           d=ins[3], f=ins[4], a=ins[5], b=ins[6],
                           tpc=ins[7], ts=ins[8], td=ins[9], fpc=ins[10],
                           fs=ins[11], fd=ins[12], ch=charge):
                        s[i] += 1
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
                if not ins[10] and not ins[13]:
                    def op(regs, s=sites, i=pc, gd=ins[1], gsrc=ins[2],
                           cd=ins[3], v=ins[4], d=ins[5], f=ins[6],
                           a=ins[7], b=ins[8], tpc=ins[9], fpc=ins[12],
                           ch=charge, cnt=counts, tg=tag_of):
                        s[i] += 1
                        try:
                            tag = tg(regs[gsrc])
                        except RuntimeError_:
                            # The unfused sequence stops after getlabel.
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
                        return tpc if value else fpc
                else:
                    def op(regs, s=sites, i=pc, gd=ins[1], gsrc=ins[2],
                           cd=ins[3], v=ins[4], d=ins[5], f=ins[6],
                           a=ins[7], b=ins[8], tpc=ins[9], ts=ins[10],
                           td=ins[11], fpc=ins[12], fs=ins[13], fd=ins[14],
                           ch=charge, cnt=counts, tg=tag_of):
                        s[i] += 1
                        try:
                            tag = tg(regs[gsrc])
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
            elif opcode == OP_PROJ_PROJ:
                def op(regs, s=sites, i=pc, d1=ins[1], s1=ins[2], i1=ins[3],
                       d2=ins[4], s2=ins[5], i2=ins[6], heap=heap,
                       cnt=counts, err=error, ctor=CtorObject, n=nxt):
                    s[i] += 1
                    value = regs[s1]
                    if not isinstance(value, ctor):
                        # Unfused charge stops at the first proj.
                        cnt["rc"] -= 2
                        cnt["proj"] -= 1
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i1]
                    heap.inc(field)
                    regs[d1] = field
                    value = regs[s2]
                    if not isinstance(value, ctor):
                        cnt["rc"] -= 1
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i2]
                    heap.inc(field)
                    regs[d2] = field
                    return n
            elif opcode == OP_INT_INC:
                def op(regs, s=sites, i=pc, d=ins[1], v=ins[2], src=ins[3],
                       k=ins[4], alloc=heap.alloc_int, inc=heap.inc, n=nxt):
                    s[i] += 1
                    regs[d] = alloc(v)
                    inc(regs[src], k)
                    return n
            elif opcode == OP_DEC_DEC:
                def op(regs, s=sites, i=pc, s1=ins[1], c1=ins[2], s2=ins[3],
                       c2=ins[4], dec=heap.dec, cnt=counts, n=nxt):
                    s[i] += 1
                    try:
                        dec(regs[s1], c1)
                    except RuntimeError_:
                        # Unfused charge stops at the first dec.
                        cnt["rc"] -= 1
                        raise
                    dec(regs[s2], c2)
                    return n
            elif opcode == OP_DEC_INC:
                def op(regs, s=sites, i=pc, s1=ins[1], c1=ins[2], s2=ins[3],
                       c2=ins[4], dec=heap.dec, inc=heap.inc, cnt=counts,
                       n=nxt):
                    s[i] += 1
                    try:
                        dec(regs[s1], c1)
                    except RuntimeError_:
                        # Unfused charge stops at the dec.
                        cnt["rc"] -= 1
                        raise
                    inc(regs[s2], c2)
                    return n
            elif opcode == OP_PROJ3:
                def op(regs, s=sites, i=pc, d1=ins[1], s1=ins[2], i1=ins[3],
                       d2=ins[4], s2=ins[5], i2=ins[6], d3=ins[7], s3=ins[8],
                       i3=ins[9], heap=heap, cnt=counts, err=error,
                       ctor=CtorObject, n=nxt):
                    s[i] += 1
                    value = regs[s1]
                    if not isinstance(value, ctor):
                        # Unfused charge stops at the failing proj.
                        cnt["proj"] -= 2
                        cnt["rc"] -= 3
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i1]
                    heap.inc(field)
                    regs[d1] = field
                    value = regs[s2]
                    if not isinstance(value, ctor):
                        cnt["proj"] -= 1
                        cnt["rc"] -= 2
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i2]
                    heap.inc(field)
                    regs[d2] = field
                    value = regs[s3]
                    if not isinstance(value, ctor):
                        cnt["rc"] -= 1
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i3]
                    heap.inc(field)
                    regs[d3] = field
                    return n
            elif opcode == OP_PROJ4:
                def op(regs, s=sites, i=pc, d1=ins[1], s1=ins[2], i1=ins[3],
                       d2=ins[4], s2=ins[5], i2=ins[6], d3=ins[7], s3=ins[8],
                       i3=ins[9], d4=ins[10], s4=ins[11], i4=ins[12],
                       heap=heap, cnt=counts, err=error, ctor=CtorObject,
                       n=nxt):
                    s[i] += 1
                    value = regs[s1]
                    if not isinstance(value, ctor):
                        # Unfused charge stops at the failing proj.
                        cnt["proj"] -= 3
                        cnt["rc"] -= 4
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i1]
                    heap.inc(field)
                    regs[d1] = field
                    value = regs[s2]
                    if not isinstance(value, ctor):
                        cnt["proj"] -= 2
                        cnt["rc"] -= 3
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i2]
                    heap.inc(field)
                    regs[d2] = field
                    value = regs[s3]
                    if not isinstance(value, ctor):
                        cnt["proj"] -= 1
                        cnt["rc"] -= 2
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i3]
                    heap.inc(field)
                    regs[d3] = field
                    value = regs[s4]
                    if not isinstance(value, ctor):
                        cnt["rc"] -= 1
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[i4]
                    heap.inc(field)
                    regs[d4] = field
                    return n
            elif opcode == OP_INC_RTCALL:
                impl = BUILTINS.get(ins[4])
                if impl is not None:
                    def op(regs, s=sites, i=pc, src=ins[1], k=ins[2],
                           d=ins[3], fn_=impl, argr=ins[5], inc=heap.inc,
                           ctx=ctx, cnt=counts, n=nxt):
                        s[i] += 1
                        try:
                            inc(regs[src], k)
                        except RuntimeError_:
                            # Unfused charge stops at the inc.
                            cnt["runtime_call"] -= 1
                            raise
                        regs[d] = fn_(ctx, [regs[r] for r in argr])
                        return n
                else:
                    def op(regs, s=sites, i=pc, src=ins[1], k=ins[2],
                           d=ins[3], name=ins[4], argr=ins[5], inc=heap.inc,
                           ctx=ctx, cb=call_builtin, cnt=counts, n=nxt):
                        s[i] += 1
                        try:
                            inc(regs[src], k)
                        except RuntimeError_:
                            cnt["runtime_call"] -= 1
                            raise
                        regs[d] = cb(ctx, name, [regs[r] for r in argr])
                        return n
            elif opcode == OP_RET:
                if ins[1] >= 0:
                    def op(regs, s=sites, i=pc, src=ins[1], ret=retslot):
                        s[i] += 1
                        ret[0] = regs[src]
                        return -1
                else:
                    def op(regs, s=sites, i=pc, ret=retslot):
                        s[i] += 1
                        ret[0] = None
                        return -1
            elif opcode == OP_CALL or opcode == OP_TAILCALL:
                tail = opcode == OP_TAILCALL
                callee, argr = (ins[1], ins[2]) if tail else (ins[2], ins[3])
                if len(argr) != callee.num_params:
                    op = _bad_arity_site(
                        sites, pc, callee, len(argr), counts, error, tail
                    )
                else:
                    op = _call_site(
                        sites, pc, -1 if tail else ins[1], callee, argr,
                        pending, -3 if tail else -2,
                    )
            elif opcode == OP_PROJ:
                def op(regs, s=sites, i=pc, d=ins[1], src=ins[2], idx=ins[3],
                       heap=heap, cnt=counts, err=error, ctor=CtorObject,
                       n=nxt):
                    s[i] += 1
                    value = regs[src]
                    if not isinstance(value, ctor):
                        # The unfused charge stops at proj on this error.
                        cnt["rc"] -= 1
                        raise err(f"projection from non-constructor {value!r}")
                    field = value.fields[idx]
                    heap.inc(field)
                    regs[d] = field
                    return n
            elif opcode == OP_PROJ_CALL:
                if len(ins[6]) != ins[5].num_params:
                    def op(regs, s=sites, i=pc, pd=ins[1], src=ins[2],
                           idx=ins[3], callee=ins[5], argc=len(ins[6]),
                           heap=heap, cnt=counts, err=error,
                           ctor=CtorObject, fh=fault_hit):
                        s[i] += 1
                        value = regs[src]
                        if not isinstance(value, ctor):
                            cnt["rc"] -= 1
                            cnt["call"] -= 1
                            raise err(
                                f"projection from non-constructor {value!r}"
                            )
                        field = value.fields[idx]
                        heap.inc(field)
                        regs[pd] = field
                        fh("vm.dispatch")
                        raise err(
                            f"calling {callee.name} with {argc} arguments, "
                            f"expected {callee.num_params}"
                        )
                else:
                    op = _proj_call_site(
                        sites, pc, ins, heap, counts, error, pending
                    )
            elif opcode == OP_CONSTRUCT:
                def op(regs, s=sites, i=pc, d=ins[1], tag=ins[2], fr=ins[3],
                       alloc=heap.alloc_ctor, n=nxt):
                    s[i] += 1
                    regs[d] = alloc(tag, [regs[r] for r in fr])
                    return n
            elif opcode == OP_INT or opcode == OP_BIGINT:
                if -SCALAR_INT_LIMIT < ins[2] < SCALAR_INT_LIMIT:
                    # Unboxed: alloc_int would return the constant itself.
                    def op(regs, s=sites, i=pc, d=ins[1], v=ins[2], n=nxt):
                        s[i] += 1
                        regs[d] = v
                        return n
                else:
                    def op(regs, s=sites, i=pc, d=ins[1], v=ins[2],
                           alloc=heap.alloc_int, n=nxt):
                        s[i] += 1
                        regs[d] = alloc(v)
                        return n
            elif opcode == OP_CONST:
                def op(regs, s=sites, i=pc, d=ins[1], v=ins[2], n=nxt):
                    s[i] += 1
                    regs[d] = v
                    return n
            elif opcode == OP_CONST_BINARITH or opcode == OP_CONST_CMP:
                def op(regs, s=sites, i=pc, cd=ins[1], v=ins[2], d=ins[3],
                       f=ins[4], a=ins[5], b=ins[6], n=nxt):
                    s[i] += 1
                    regs[cd] = v
                    regs[d] = f(regs[a], regs[b])
                    return n
            elif opcode == OP_GETLABEL:
                def op(regs, s=sites, i=pc, d=ins[1], src=ins[2], tg=tag_of,
                       n=nxt):
                    s[i] += 1
                    regs[d] = tg(regs[src])
                    return n
            elif opcode == OP_INC:
                def op(regs, s=sites, i=pc, src=ins[1], k=ins[2],
                       inc=heap.inc, n=nxt):
                    s[i] += 1
                    inc(regs[src], k)
                    return n
            elif opcode == OP_DEC:
                def op(regs, s=sites, i=pc, src=ins[1], k=ins[2],
                       dec=heap.dec, n=nxt):
                    s[i] += 1
                    dec(regs[src], k)
                    return n
            elif opcode == OP_SELECT:
                def op(regs, s=sites, i=pc, d=ins[1], c=ins[2], a=ins[3],
                       b=ins[4], n=nxt):
                    s[i] += 1
                    regs[d] = regs[a] if regs[c] else regs[b]
                    return n
            elif opcode == OP_RTCALL:
                # Pre-resolve the builtin: BUILTINS is sealed at import
                # time, so the per-call name lookup in call_builtin is
                # dead weight on the hot path.  Unknown names keep the
                # lazy call_builtin error.
                impl = BUILTINS.get(ins[2])
                scalar = SCALAR_RTCALLS.get(ins[2])
                if scalar is not None and ins[1] >= 0 and len(ins[3]) == 2:
                    op = _scalar_rtcall(
                        scalar, impl, ctx, heap.alloc_int, sites, pc, ins[1],
                        ins[3], nxt,
                    )
                elif impl is not None and ins[1] >= 0:
                    def op(regs, s=sites, i=pc, d=ins[1], fn_=impl,
                           argr=ins[3], ctx=ctx, n=nxt):
                        s[i] += 1
                        regs[d] = fn_(ctx, [regs[r] for r in argr])
                        return n
                elif impl is not None:
                    def op(regs, s=sites, i=pc, fn_=impl, argr=ins[3],
                           ctx=ctx, n=nxt):
                        s[i] += 1
                        fn_(ctx, [regs[r] for r in argr])
                        return n
                elif ins[1] >= 0:
                    def op(regs, s=sites, i=pc, d=ins[1], name=ins[2],
                           argr=ins[3], ctx=ctx, cb=call_builtin, n=nxt):
                        s[i] += 1
                        regs[d] = cb(ctx, name, [regs[r] for r in argr])
                        return n
                else:
                    def op(regs, s=sites, i=pc, name=ins[2], argr=ins[3],
                           ctx=ctx, cb=call_builtin, n=nxt):
                        s[i] += 1
                        cb(ctx, name, [regs[r] for r in argr])
                        return n
            elif opcode == OP_PAP:
                if ins[3] is None:
                    def op(regs, s=sites, i=pc, name=ins[2], err=error):
                        s[i] += 1
                        raise err(f"pap of unknown function {name}")
                else:
                    def op(regs, s=sites, i=pc, d=ins[1], name=ins[2],
                           arity=ins[3], argr=ins[4], heap=heap,
                           mk=make_closure, n=nxt):
                        s[i] += 1
                        regs[d] = mk(heap, name, arity, [regs[r] for r in argr])
                        return n
            elif opcode == OP_PAPEXTEND:
                def op(regs, s=sites, i=pc, d=ins[1], c=ins[2], argr=ins[3],
                       apply=self._apply, n=nxt):
                    s[i] += 1
                    return apply(regs, d, regs[c], [regs[r] for r in argr], n)
            elif opcode == OP_REUSE:
                category = "alloc_ctor" if ins[4] else "move"
                def op(regs, s=sites, i=pc, d=ins[1], tok=ins[2], tag=ins[3],
                       fr=ins[4], heap=heap, cnt=counts, cat=category,
                       ctor=CtorObject, n=nxt):
                    s[i] += 1
                    token = regs[tok]
                    fields = [regs[r] for r in fr]
                    if isinstance(token, ctor):
                        cnt["reuse"] += 1
                    else:
                        cnt[cat] += 1
                    regs[d] = heap.reuse(token, tag, fields)
                    return n
            elif opcode == OP_RESET:
                def op(regs, s=sites, i=pc, d=ins[1], src=ins[2],
                       reset=heap.reset, n=nxt):
                    s[i] += 1
                    regs[d] = reset(regs[src])
                    return n
            elif opcode == OP_CAST:
                def op(regs, s=sites, i=pc, d=ins[1], src=ins[2], n=nxt):
                    s[i] += 1
                    regs[d] = regs[src]
                    return n
            elif opcode == OP_GETGLOBAL:
                def op(regs, s=sites, i=pc, d=ins[1], name=ins[2],
                       g=globals_, n=nxt):
                    s[i] += 1
                    regs[d] = g.get(name)
                    return n
            elif opcode == OP_SETGLOBAL:
                def op(regs, s=sites, i=pc, name=ins[1], src=ins[2],
                       g=globals_, n=nxt):
                    s[i] += 1
                    g[name] = regs[src]
                    return n
            elif opcode == OP_UNREACHABLE:
                def op(regs, s=sites, i=pc, err=error, msg=ins[1]):
                    s[i] += 1
                    raise err(msg)
            elif opcode == OP_BADCALL:
                if flavor == "cfg":
                    message = f"call of unknown function @{ins[1]}"
                else:
                    message = f"unknown function {ins[1]}"
                def op(regs, s=sites, i=pc, err=error, msg=message):
                    s[i] += 1
                    raise err(msg)
            else:
                def op(regs, s=sites, i=pc, err=error, bad=opcode):
                    s[i] += 1
                    raise err(f"invalid opcode {bad}")
            ops[pc] = op
        self._threaded[fn] = ops
        self._site_tables[fn] = sites
        return ops


# ---------------------------------------------------------------------------
# Convenience wrapper (mirrors run_rc_program)
# ---------------------------------------------------------------------------


def run_rc_program_vm(
    program: rc_ir.Program,
    *,
    check_heap: bool = True,
    fuse: bool = True,
) -> RunResult:
    """Compile a λrc ``program`` to bytecode and execute its main on the VM."""
    bytecode = compile_rc_program(program, fuse=fuse)
    return VirtualMachine(bytecode).run_main(check_heap=check_heap)
