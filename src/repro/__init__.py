"""repro — a reproduction of *Lambda the Ultimate SSA* (CGO 2022).

The package implements, in pure Python, every subsystem the paper relies on:

* ``repro.ir`` — a mini-MLIR: SSA values, operations, blocks, nested regions,
  attributes, types, a verifier, a textual printer/parser, traits and
  dominance analysis.
* ``repro.dialects`` — the ``func``/``arith``/``cf`` substrate
  dialects and the paper's ``lp`` and ``rgn`` dialects.
* ``repro.rewrite`` — pattern rewriting, the greedy rewrite driver and a pass
  manager.
* ``repro.transforms`` — classical SSA passes (CSE, DCE, canonicalisation,
  inlining, constant folding) and the paper's region optimisations
  (dead-region elimination, global region numbering, case elimination,
  common-branch elimination).
* ``repro.lean`` — a mini-LEAN functional frontend.
* ``repro.lambda_pure`` / ``repro.lambda_rc`` — the λpure / λrc intermediate
  representations, pattern-match compilation with join points, lambda
  lifting, the λpure simplifier and reference-count insertion.
* ``repro.runtime`` — a simulated LEAN runtime (boxed objects, closures, big
  integers, arrays, reference counting).
* ``repro.backend`` — the baseline (λrc → C-like) and new (λrc → lp → rgn →
  CFG) backends and the pipeline drivers.
* ``repro.interp`` — interpreters with a deterministic cost model.
* ``repro.eval`` — benchmark programs and the Figure 9/10/11 harness.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
