"""Fingerprint-keyed incremental rgn-opt recompilation.

Recompiling a module where one function changed should not re-run the rgn
optimisation pipeline on the unchanged functions.  The
:class:`~repro.backend.pipeline.CompilationSession` keeps a cache of
optimised per-function rgn IR keyed by

* the **pipeline fingerprint** (hash of the canonical pipeline spec, see
  :func:`repro.rewrite.registry.pipeline_fingerprint`) — two option sets
  that optimise differently never share entries, and

* the **function fingerprint** (:func:`function_fingerprint`) — a
  structural key of the function body built on
  :class:`~repro.transforms.region_gvn.RegionFingerprinter`.

Cross-compile comparability is the delicate part: the fingerprinter's
:class:`~repro.transforms.region_gvn.ValueNumbering` hands out *opaque*
numbers to impure values in encounter order, so fingerprints taken with a
fresh numbering are only meaningful within one request stream — two
structurally different functions could collide when nested regions
reference different outer values that happen to receive the same
encounter-order number.  :func:`function_fingerprint` therefore pre-seeds
**every** value of the function with its position in a deterministic
pre-order walk before fingerprinting: equal fingerprints then imply
position-for-position structurally identical bodies.  Functions whose
bodies fall outside the fingerprintable subset (multi-block nested
regions) fall back to the printed text as the key — always sound, merely
slower to compute.

The cached value is a detached clone of the optimised ``func.func``; a hit
splices a fresh clone into the module in place of the unoptimised
function, which yields byte-identical IR to re-running the pipeline on the
function that populated the entry, because every pass in the rgn pipeline
is a :class:`~repro.rewrite.pass_manager.FunctionPass` (no cross-function
state) and clones preserve name hints.  Fingerprints deliberately ignore
SSA *name hints* (they carry no semantics, and a session's shared lowering
context renumbers them as unrelated code changes), so after a hit the
spliced function keeps the hint spelling of the compile that populated the
entry — identical IR modulo ``%``-name cosmetics, bit-identical execution.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from ..dialects.builtin import ModuleOp
from ..ir.printer import print_op
from ..telemetry import get_tracer
from ..transforms.region_gvn import RegionFingerprinter, ValueNumbering


def _preseed_positional(func, numbering: ValueNumbering) -> None:
    """Assign every value defined in ``func`` its pre-order position."""
    position = 0

    def seed_block(block) -> None:
        nonlocal position
        for arg in block.arguments:
            numbering.preset(arg, ("pos", position))
            position += 1
        for op in block:
            for result in op.results:
                numbering.preset(result, ("pos", position))
                position += 1
            for region in op.regions:
                for inner in region.blocks:
                    seed_block(inner)

    for region in func.regions:
        for block in region.blocks:
            seed_block(block)


def function_fingerprint(func) -> Tuple:
    """Structural cache key of one function (body + attributes).

    Equal keys imply structurally identical functions; see the module
    docstring for why the value numbering is positionally pre-seeded.
    """
    attrs = tuple(sorted((k, str(v)) for k, v in func.attributes.items()))
    numbering = ValueNumbering()
    _preseed_positional(func, numbering)
    body = RegionFingerprinter(numbering).fingerprint(func.body)
    if body is None:
        return ("text", attrs, print_op(func))
    return ("body", attrs, body)


def function_fingerprint_digest(func) -> str:
    """Compact digest of :func:`function_fingerprint` (the stored key).

    The structural key nests tuples of interned strings and ints, so its
    ``repr`` is deterministic; hashing it keeps cache keys O(1)-sized
    instead of retaining the whole structure per entry.
    """
    key = function_fingerprint(func)
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def run_pipeline_on_functions(funcs, pipeline) -> None:
    """Run a function-pass pipeline on selected functions, in place.

    The functions are detached into one scratch module for the duration of
    a single ``pipeline.run`` (pass managers take modules, and per-run
    bookkeeping is cheaper paid once than once per function), then
    re-inserted at their original positions.  Legal because the verifier
    performs no symbol resolution and every pass in the rgn pipeline is a
    ``FunctionPass``.
    """
    detached = []
    for func in funcs:
        # Anchors may themselves be detached later in this loop; reverse
        # re-insertion below restores each anchor before it is needed.
        detached.append((func, func.parent, func.next_op))
        func.detach()
    scratch = ModuleOp()
    for func, _, _ in detached:
        scratch.append(func)
    try:
        pipeline.run(scratch)
    finally:
        for func, block, anchor in reversed(detached):
            func.detach()
            if anchor is not None:
                block.insert_before(func, anchor)
            else:
                block.append(func)


def run_incremental_rgn_opt(module, pipeline, session, pipeline_hash: str) -> None:
    """Optimise ``module`` function-by-function through the session cache.

    Functions whose (pipeline, body) fingerprint is cached are replaced by
    a clone of their previously optimised form; the pipeline re-runs only
    on the misses — batched through one scratch module.  Hit/miss counts
    publish as ``session.incremental.*`` (see
    :meth:`CompilationSession.rgn_opt_cached`).
    """
    tracer = get_tracer()
    misses = []
    for func in list(module.functions()):
        if func.is_declaration:
            continue
        key = (pipeline_hash, function_fingerprint_digest(func))
        cached = session.rgn_opt_cached(key)
        if cached is not None:
            with tracer.span(
                "incremental:hit", category="session", func=func.sym_name
            ):
                replacement = cached.clone()
                func.parent.insert_before(replacement, func)
                func.erase()
        else:
            misses.append((func, key))
    if not misses:
        return
    with tracer.span(
        "incremental:miss",
        category="session",
        funcs=",".join(func.sym_name for func, _ in misses),
    ):
        run_pipeline_on_functions([func for func, _ in misses], pipeline)
        for func, key in misses:
            session.rgn_opt_store(key, func.clone())
