"""Core IR data structures: values, operations, blocks and regions.

This is a compact re-implementation of the structural part of MLIR that the
paper relies on:

* SSA :class:`Value`\\ s produced either by operations (:class:`OpResult`) or
  as block arguments (:class:`BlockArgument`), with explicit def-use chains.
* :class:`Operation`\\ s carrying operands, results, attributes, successor
  blocks (for CFG terminators) and *nested regions* — the central construct
  the paper exploits to give functional sub-expressions first-class SSA
  names.
* :class:`Block`\\ s (sequences of operations with block arguments acting as
  phi nodes) and :class:`Region`\\ s (single-entry lists of blocks).

Block storage is an *intrusive doubly-linked list*, as in MLIR: every
operation carries ``prev_op``/``next_op`` links and the block holds
``first_op``/``last_op``.  This makes the mutations on the rewrite driver's
hot path — :meth:`Block.insert_before`, :meth:`Block.insert_after`,
:meth:`Operation.detach`, :meth:`Operation.erase` — O(1) splices instead of
O(block size) list shifts, and lets walks iterate without copying block
contents.

The linked-list invariants (checked by :meth:`Block.check_invariants`):

* for every op in a block, ``op.parent is block`` and ``op.erased`` is False;
* ``first_op.prev_op is None`` and ``last_op.next_op is None``;
* ``a.next_op.prev_op is a`` for every interior link;
* a detached op has ``parent is prev_op is next_op is None``;
* an erased op additionally has ``erased`` set (permanently), which is what
  lets worklist drivers discard stale queue entries in O(1) via
  :attr:`Operation.attached`.

Ordering queries (``is_before_in_block``, used by dominance on every operand
check) are O(1) amortised through lazily maintained order keys: insertions
assign a key midway between the neighbours' keys and fall back to a full
O(n) renumbering only when the gap is exhausted.

Every structural primitive — linking and unlinking an op, setting operands
or attributes, adding or erasing block arguments, dropping a block's ops
and adding blocks to a region — bumps one process-wide counter,
:func:`mutation_count`.  It only ever grows, so two equal readings mean no
IR anywhere in the process changed in between; the pass manager uses that
to verify each IR state once.  Passes mutate IR only through these
primitives (``tests/test_mutation_counter.py`` scans them for direct
field writes).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .attributes import Attribute
from .types import Type

#: Gap left between consecutive order keys on (re)numbering; insertions in
#: the middle bisect the gap and only force a renumber after ~log2(stride)
#: consecutive inserts at the same spot.
_ORDER_STRIDE = 16

#: Bumped by every IR mutation primitive; read through :func:`mutation_count`.
_mutations = 0


def mutation_count() -> int:
    """How many IR mutations this process has made so far.

    Equal readings before and after a piece of code prove it changed no
    IR.  The converse does not hold: a mutation of unrelated IR, or one
    that restores the old state, also moves the count.
    """
    return _mutations


class Use:
    """A single use of a :class:`Value`: ``owner.operands[index] is value``."""

    __slots__ = ("owner", "index")

    def __init__(self, owner: "Operation", index: int):
        self.owner = owner
        self.index = index

    def __repr__(self):  # pragma: no cover - debugging helper
        return f"Use({self.owner.name}, {self.index})"


class Value:
    """Base class of SSA values."""

    def __init__(self, type: Type):
        self.type = type
        self.uses: List[Use] = []
        self.name_hint: Optional[str] = None

    # -- use management -------------------------------------------------
    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, owner: "Operation", index: int) -> None:
        for i, use in enumerate(self.uses):
            if use.owner is owner and use.index == index:
                del self.uses[i]
                return

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def users(self) -> List["Operation"]:
        """Distinct operations using this value, in use order."""
        seen = []
        for use in self.uses:
            if use.owner not in seen:
                seen.append(use.owner)
        return seen

    def replace_all_uses_with(self, new_value: "Value") -> None:
        """Rewrite every use of ``self`` to use ``new_value`` instead."""
        if new_value is self:
            return
        for use in list(self.uses):
            use.owner.set_operand(use.index, new_value)

    def owner_op(self) -> Optional["Operation"]:
        """The defining operation, or None for block arguments."""
        return None

    def owner_block(self) -> Optional["Block"]:
        """The block in which this value becomes available."""
        return None


class OpResult(Value):
    """A result produced by an operation."""

    def __init__(self, type: Type, op: "Operation", index: int):
        super().__init__(type)
        self.op = op
        self.index = index

    def owner_op(self) -> Optional["Operation"]:
        return self.op

    def owner_block(self) -> Optional["Block"]:
        return self.op.parent

    def __repr__(self):  # pragma: no cover - debugging helper
        return f"<result {self.index} of {self.op.name}>"


class BlockArgument(Value):
    """An argument of a block (serves the role of a phi node)."""

    def __init__(self, type: Type, block: "Block", index: int):
        super().__init__(type)
        self.block = block
        self.index = index

    def owner_block(self) -> Optional["Block"]:
        return self.block

    def __repr__(self):  # pragma: no cover - debugging helper
        return f"<blockarg {self.index}>"


class IRMapping:
    """Value/block remapping used while cloning or inlining IR."""

    def __init__(self):
        self.value_map: Dict[Value, Value] = {}
        self.block_map: Dict["Block", "Block"] = {}

    def map_value(self, old: Value, new: Value) -> None:
        self.value_map[old] = new

    def lookup(self, value: Value) -> Value:
        return self.value_map.get(value, value)


class Operation:
    """A generic IR operation.

    Registered operations subclass :class:`Operation`, set ``OP_NAME`` and
    ``TRAITS`` and usually provide a convenience constructor plus named
    accessors.  All structural manipulation happens through the base class so
    that generic passes work on any operation.

    Operations are intrusive list nodes: :attr:`prev_op`/:attr:`next_op` link
    them into their parent :class:`Block`.  Both are None while detached.
    """

    OP_NAME: str = "builtin.unregistered"
    TRAITS: frozenset = frozenset()

    def __init__(
        self,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Attribute]] = None,
        regions=None,
        successors: Sequence["Block"] = (),
        name: Optional[str] = None,
    ):
        self._name = name
        self._operands: List[Value] = []
        self.results: List[OpResult] = []
        self.attributes: Dict[str, Attribute] = dict(attributes or {})
        self.regions: List[Region] = []
        self.successors: List[Block] = list(successors)
        self.parent: Optional[Block] = None
        #: Intrusive links into the parent block's operation list.
        self.prev_op: Optional["Operation"] = None
        self.next_op: Optional["Operation"] = None
        #: Lazily maintained ordering key within the parent block (see
        #: :meth:`Block._ensure_order`); meaningless while detached.
        self._order: int = 0
        #: Set (permanently) by :meth:`erase` and by bulk region teardown so
        #: that worklist-style drivers can discard stale queue entries in O(1)
        #: instead of chasing the ancestor chain.
        self.erased: bool = False

        for value in operands:
            self._append_operand(value)
        for i, rtype in enumerate(result_types):
            self.results.append(OpResult(rtype, self, i))
        if regions is None:
            regions = 0
        if isinstance(regions, int):
            for _ in range(regions):
                self.regions.append(Region(parent=self))
        else:
            for r in regions:
                r.parent = self
                self.regions.append(r)

    # -- identity --------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name if self._name is not None else type(self).OP_NAME

    def has_trait(self, trait) -> bool:
        return trait in type(self).TRAITS

    # -- operands ---------------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def _append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(Use(self, index))

    def set_operand(self, index: int, value: Value) -> None:
        global _mutations
        _mutations += 1
        old = self._operands[index]
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(Use(self, index))

    def set_operands(self, values: Sequence[Value]) -> None:
        global _mutations
        _mutations += 1
        self.drop_operand_uses()
        self._operands = []
        for v in values:
            self._append_operand(v)

    def drop_operand_uses(self) -> None:
        for i, v in enumerate(self._operands):
            v.remove_use(self, i)

    # -- results ----------------------------------------------------------
    def result(self, index: int = 0) -> OpResult:
        return self.results[index]

    @property
    def num_results(self) -> int:
        return len(self.results)

    def replace_all_uses_with(self, replacements) -> None:
        """Replace all uses of this op's results.

        ``replacements`` is either another :class:`Operation` with the same
        number of results or a sequence of values.
        """
        if isinstance(replacements, Operation):
            replacements = replacements.results
        if isinstance(replacements, Value):
            replacements = [replacements]
        if len(replacements) != len(self.results):
            raise ValueError(
                f"replacement count mismatch: {len(replacements)} vs "
                f"{len(self.results)} for {self.name}"
            )
        for old, new in zip(self.results, replacements):
            old.replace_all_uses_with(new)

    def results_used(self) -> bool:
        return any(r.has_uses for r in self.results)

    # -- attributes --------------------------------------------------------
    def get_attr(self, name: str) -> Optional[Attribute]:
        return self.attributes.get(name)

    def set_attr(self, name: str, attr: Attribute) -> None:
        global _mutations
        _mutations += 1
        self.attributes[name] = attr

    # -- structure ---------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True while this operation sits in a block and has not been erased.

        This is the O(1) replacement for walking the ancestor chain: erasure
        marks the whole nested subtree via :meth:`erase` /
        :meth:`Block.drop_all_ops`, and plain :meth:`detach` (a transient
        state during moves) clears ``parent``.
        """
        return self.parent is not None and not self.erased

    def parent_op(self) -> Optional["Operation"]:
        if self.parent is not None and self.parent.parent is not None:
            return self.parent.parent.parent
        return None

    def parent_region(self) -> Optional["Region"]:
        return self.parent.parent if self.parent is not None else None

    def ancestors(self) -> Iterator["Operation"]:
        op = self.parent_op()
        while op is not None:
            yield op
            op = op.parent_op()

    def is_ancestor_of(self, other: "Operation") -> bool:
        if other is self:
            return True
        return any(a is self for a in other.ancestors())

    def is_before_in_block(self, other: "Operation") -> bool:
        """True if ``self`` precedes ``other`` in their shared block.

        O(1) amortised: compares the lazily maintained block order keys
        (renumbered only when insertions exhaust the key gap).
        """
        if self.parent is not other.parent or self.parent is None:
            raise ValueError("operations are not in the same block")
        self.parent._ensure_order()
        return self._order < other._order

    def move_before(self, other: "Operation") -> None:
        self.detach()
        other.parent.insert_before(self, other)

    def move_after(self, other: "Operation") -> None:
        self.detach()
        other.parent.insert_after(self, other)

    def detach(self) -> None:
        """Remove from the parent block without touching uses (O(1))."""
        if self.parent is not None:
            self.parent._unlink(self)

    def erase(self, *, allow_uses: bool = False) -> None:
        """Erase this operation (and, recursively, its regions).

        The results must be unused unless ``allow_uses`` is set (used when a
        whole enclosing structure is being discarded).
        """
        if not allow_uses and self.results_used():
            raise ValueError(f"erasing {self.name} whose results still have uses")
        for region in self.regions:
            region.drop_all_ops()
        self.drop_operand_uses()
        self.detach()
        self.erased = True

    # -- cloning -------------------------------------------------------------
    def clone(self, mapper: Optional[IRMapping] = None) -> "Operation":
        """Deep-clone this operation (including nested regions).

        Operand values and successor blocks are remapped through ``mapper``;
        values absent from the mapping are reused as-is (they are defined
        outside the cloned IR).
        """
        global _mutations
        _mutations += 1
        mapper = mapper if mapper is not None else IRMapping()
        return _clone_op(self, mapper.value_map, mapper.block_map)

    # -- traversal -------------------------------------------------------------
    def walk(self) -> Iterator["Operation"]:
        """Pre-order walk of this op and every op nested in its regions.

        Robust against erasure of the op just yielded (the next link is
        captured before descending), without copying block contents.
        """
        yield self
        for region in self.regions:
            for block in region.blocks:
                op = block.first_op
                while op is not None:
                    next_op = op.next_op
                    yield from op.walk()
                    op = next_op

    def walk_postorder(self) -> Iterator["Operation"]:
        """Post-order walk: every nested op is yielded before its parent."""
        for region in self.regions:
            for block in region.blocks:
                op = block.first_op
                while op is not None:
                    next_op = op.next_op
                    yield from op.walk_postorder()
                    op = next_op
        yield self

    # -- verification -----------------------------------------------------------
    def verify_(self) -> None:
        """Op-specific verification hook; subclasses override."""

    def __str__(self):
        from .printer import print_op

        return print_op(self)

    def __repr__(self):  # pragma: no cover - debugging helper
        return f"<{self.name} at {hex(id(self))}>"


def _build_like(
    cls,
    name,
    operands,
    result_types,
    attributes,
    successors,
    num_regions,
) -> Operation:
    """Construct an operation of class ``cls`` bypassing its custom
    ``__init__`` (used by cloning and the generic parser)."""
    op = object.__new__(cls)
    Operation.__init__(
        op,
        operands=operands,
        result_types=result_types,
        attributes=attributes,
        regions=num_regions,
        successors=successors,
        name=name,
    )
    return op


# Cloning builds ops, values, uses and block links directly: the
# constructors and the linking primitives would re-check and re-count what
# a copy of valid IR already satisfies.  The public entry points
# (:meth:`Operation.clone`, :meth:`Region.clone_into`) count one mutation
# per call.


def _clone_op(op: Operation, values: Dict, blocks: Dict) -> Operation:
    """A detached deep copy of ``op``; its results and nested blocks and
    block arguments are recorded in ``values`` / ``blocks``."""
    new = object.__new__(type(op))
    new._name = op._name
    operands = [values.get(v, v) for v in op._operands]
    new._operands = operands
    for index, value in enumerate(operands):
        value.uses.append(Use(new, index))
    results = []
    for old in op.results:
        result = object.__new__(OpResult)
        result.type = old.type
        result.uses = []
        result.name_hint = old.name_hint
        result.op = new
        result.index = old.index
        values[old] = result
        results.append(result)
    new.results = results
    new.attributes = dict(op.attributes)
    new.successors = [blocks.get(b, b) for b in op.successors]
    new.parent = None
    new.prev_op = None
    new.next_op = None
    new._order = 0
    new.erased = False
    regions = []
    for region in op.regions:
        copy = Region(parent=new)
        _clone_blocks(region, copy, values, blocks)
        regions.append(copy)
    new.regions = regions
    return new


def _clone_blocks(region: "Region", dest: "Region", values: Dict,
                  blocks: Dict) -> None:
    """Append copies of ``region``'s blocks to ``dest``.  Every block and
    its arguments are mapped before any op is copied, so forward branches
    and region-internal references remap."""
    copies = []
    for block in region.blocks:
        copy = Block()
        arguments = copy.arguments
        for old in block.arguments:
            argument = object.__new__(BlockArgument)
            argument.type = old.type
            argument.uses = []
            argument.name_hint = old.name_hint
            argument.block = copy
            argument.index = old.index
            values[old] = argument
            arguments.append(argument)
        blocks[block] = copy
        copies.append(copy)
    for block, copy in zip(region.blocks, copies):
        copy.parent = dest
        dest.blocks.append(copy)
        prev = None
        order = 0
        op = block._first_op
        while op is not None:
            new = _clone_op(op, values, blocks)
            new.parent = copy
            new.prev_op = prev
            new._order = order
            if prev is None:
                copy._first_op = new
            else:
                prev.next_op = new
            prev = new
            order += _ORDER_STRIDE
            op = op.next_op
        copy._last_op = prev
        copy._num_ops = len(block)


class Block:
    """A straight-line sequence of operations with block arguments.

    Operations are stored as an intrusive doubly-linked list rooted at
    :attr:`first_op`/:attr:`last_op`; see the module docstring for the
    invariants.  Iterating a block (``for op in block``) captures each next
    link before yielding, so erasing or detaching the *current* op while
    iterating is safe.
    """

    def __init__(self, arg_types: Sequence[Type] = ()):
        self.arguments: List[BlockArgument] = []
        self.parent: Optional[Region] = None
        self._first_op: Optional[Operation] = None
        self._last_op: Optional[Operation] = None
        self._num_ops: int = 0
        #: False once an insertion exhausted the order-key gap between two
        #: neighbours; :meth:`_ensure_order` renumbers lazily.
        self._order_valid: bool = True
        for t in arg_types:
            self.add_argument(t)

    # -- arguments ----------------------------------------------------------
    def add_argument(self, type: Type, name_hint: Optional[str] = None) -> BlockArgument:
        global _mutations
        _mutations += 1
        arg = BlockArgument(type, self, len(self.arguments))
        arg.name_hint = name_hint
        self.arguments.append(arg)
        return arg

    # -- intrusive list plumbing ---------------------------------------------
    def _link(
        self,
        op: Operation,
        prev: Optional[Operation],
        next: Optional[Operation],
    ) -> None:
        """Splice ``op`` between ``prev`` and ``next`` (either may be None)."""
        if op.parent is not None:
            raise ValueError(
                f"inserting {op.name} which is still attached to a block "
                "(detach it first)"
            )
        if op.erased:
            raise ValueError(f"inserting erased operation {op.name}")
        global _mutations
        _mutations += 1
        op.parent = self
        op.prev_op = prev
        op.next_op = next
        if prev is not None:
            prev.next_op = op
        else:
            self._first_op = op
        if next is not None:
            next.prev_op = op
        else:
            self._last_op = op
        self._num_ops += 1
        # Order-key maintenance: bisect the neighbour gap; renumber lazily
        # once a gap is exhausted.
        if prev is None and next is None:
            op._order = 0
        elif prev is None:
            op._order = next._order - _ORDER_STRIDE
        elif next is None:
            op._order = prev._order + _ORDER_STRIDE
        else:
            op._order = (prev._order + next._order) // 2
            if op._order == prev._order:
                self._order_valid = False

    def _unlink(self, op: Operation) -> None:
        """Remove ``op`` from the list (O(1)); clears its links and parent."""
        global _mutations
        _mutations += 1
        if op.prev_op is not None:
            op.prev_op.next_op = op.next_op
        else:
            self._first_op = op.next_op
        if op.next_op is not None:
            op.next_op.prev_op = op.prev_op
        else:
            self._last_op = op.prev_op
        op.prev_op = None
        op.next_op = None
        op.parent = None
        self._num_ops -= 1

    def _ensure_order(self) -> None:
        """Renumber order keys if an insertion invalidated them (O(n), but
        amortised away: each renumber buys ~log2 stride local insertions)."""
        if self._order_valid:
            return
        order = 0
        op = self._first_op
        while op is not None:
            op._order = order
            order += _ORDER_STRIDE
            op = op.next_op
        self._order_valid = True

    # -- operations ----------------------------------------------------------
    @property
    def first_op(self) -> Optional[Operation]:
        return self._first_op

    @property
    def last_op(self) -> Optional[Operation]:
        return self._last_op

    @property
    def is_empty(self) -> bool:
        return self._first_op is None

    def __len__(self) -> int:
        return self._num_ops

    def __iter__(self) -> Iterator[Operation]:
        op = self._first_op
        while op is not None:
            next_op = op.next_op
            yield op
            op = next_op

    def __reversed__(self) -> Iterator[Operation]:
        op = self._last_op
        while op is not None:
            prev_op = op.prev_op
            yield op
            op = prev_op

    @property
    def operations(self) -> List[Operation]:
        """List snapshot of the block's operations (O(n)).

        Compatibility/debugging surface over the intrusive list; mutations on
        the returned list do **not** affect the block.  Hot paths should use
        iteration, :attr:`first_op`/:attr:`last_op` or the O(1) insertion
        methods instead.
        """
        return list(self)

    def append(self, op: Operation) -> Operation:
        self._link(op, self._last_op, None)
        return op

    def prepend(self, op: Operation) -> Operation:
        self._link(op, None, self._first_op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        """Insert ``op`` at position ``index`` (O(index); compatibility
        shim — prefer the anchor-based O(1) methods)."""
        if index >= self._num_ops:
            return self.append(op)
        anchor = self._first_op
        for _ in range(index):
            anchor = anchor.next_op
        return self.insert_before(op, anchor)

    def insert_before(self, op: Operation, anchor: Operation) -> Operation:
        """Insert ``op`` immediately before ``anchor`` (O(1))."""
        if anchor.parent is not self:
            raise ValueError("insertion anchor is not in this block")
        self._link(op, anchor.prev_op, anchor)
        return op

    def insert_after(self, op: Operation, anchor: Operation) -> Operation:
        """Insert ``op`` immediately after ``anchor`` (O(1))."""
        if anchor.parent is not self:
            raise ValueError("insertion anchor is not in this block")
        self._link(op, anchor, anchor.next_op)
        return op

    def take_ops_from(self, source: "Block") -> None:
        """Move every operation of ``source`` to the end of this block,
        preserving order (single pass, no list copies)."""
        op = source._first_op
        while op is not None:
            next_op = op.next_op
            source._unlink(op)
            self.append(op)
            op = next_op

    @property
    def terminator(self) -> Optional[Operation]:
        from .traits import IsTerminator

        if self._last_op is not None and self._last_op.has_trait(IsTerminator):
            return self._last_op
        return None

    def successors(self) -> List["Block"]:
        term = self.terminator
        return list(term.successors) if term is not None else []

    def predecessors(self) -> List["Block"]:
        """Blocks in the same region whose terminator targets this block."""
        if self.parent is None:
            return []
        preds = []
        for block in self.parent.blocks:
            if self in block.successors():
                preds.append(block)
        return preds

    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent is not None else None

    def drop_all_ops(self) -> None:
        global _mutations
        _mutations += 1
        op = self._first_op
        while op is not None:
            next_op = op.next_op
            for region in op.regions:
                region.drop_all_ops()
            op.drop_operand_uses()
            op.parent = None
            op.prev_op = None
            op.next_op = None
            op.erased = True
            op = next_op
        self._first_op = None
        self._last_op = None
        self._num_ops = 0
        self._order_valid = True

    def erase(self) -> None:
        """Erase this block and all its operations from the parent region
        (the mutation is counted by :meth:`drop_all_ops`)."""
        self.drop_all_ops()
        if self.parent is not None:
            self.parent.blocks.remove(self)
            self.parent = None

    def walk(self) -> Iterator[Operation]:
        op = self._first_op
        while op is not None:
            next_op = op.next_op
            yield from op.walk()
            op = next_op

    # -- invariant checking -----------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the intrusive-list invariants (used by tests; O(n)).

        Raises ValueError describing the first violated invariant.
        """
        count = 0
        prev: Optional[Operation] = None
        op = self._first_op
        if op is not None and op.prev_op is not None:
            raise ValueError("first_op has a dangling prev_op link")
        while op is not None:
            if op.parent is not self:
                raise ValueError(f"{op.name}: parent does not point at block")
            if op.erased:
                raise ValueError(f"{op.name}: erased op is still linked")
            if op.prev_op is not prev:
                raise ValueError(f"{op.name}: prev_op link is inconsistent")
            if prev is not None and prev.next_op is not op:
                raise ValueError(f"{op.name}: next_op link is inconsistent")
            count += 1
            prev = op
            op = op.next_op
        if prev is not self._last_op:
            raise ValueError("last_op does not terminate the chain")
        if count != self._num_ops:
            raise ValueError(
                f"cached op count {self._num_ops} != actual {count}"
            )
        if self._order_valid:
            previous_order: Optional[int] = None
            for linked in self:
                if previous_order is not None and linked._order <= previous_order:
                    raise ValueError("order keys are not strictly increasing")
                previous_order = linked._order

    def __repr__(self):  # pragma: no cover - debugging helper
        return f"<block with {self._num_ops} ops>"


class Region:
    """A single-entry list of blocks nested inside an operation."""

    def __init__(self, parent: Optional[Operation] = None):
        self.blocks: List[Block] = []
        self.parent: Optional[Operation] = parent

    # -- blocks ----------------------------------------------------------------
    def add_block(self, block: Optional[Block] = None) -> Block:
        global _mutations
        _mutations += 1
        block = block if block is not None else Block()
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry_block(self) -> Optional[Block]:
        return self.blocks[0] if self.blocks else None

    @property
    def empty(self) -> bool:
        return not self.blocks

    def single_block(self) -> Block:
        if len(self.blocks) != 1:
            raise ValueError(f"expected a single-block region, got {len(self.blocks)}")
        return self.blocks[0]

    # -- bulk operations ----------------------------------------------------------
    def drop_all_ops(self) -> None:
        for block in self.blocks:
            block.drop_all_ops()
            block.parent = None
        self.blocks = []

    def clone_into(self, dest: "Region", mapper: Optional[IRMapping] = None) -> None:
        """Clone the blocks of this region into ``dest`` (appending)."""
        global _mutations
        _mutations += 1
        mapper = mapper if mapper is not None else IRMapping()
        _clone_blocks(self, dest, mapper.value_map, mapper.block_map)

    def walk(self) -> Iterator[Operation]:
        for block in list(self.blocks):
            yield from block.walk()

    def op_count(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self):  # pragma: no cover - debugging helper
        return f"<region with {len(self.blocks)} blocks>"
