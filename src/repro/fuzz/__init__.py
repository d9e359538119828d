"""Typed program generation + full-matrix differential fuzzing.

Three pieces (see ``docs/FUZZING.md``):

* :mod:`repro.fuzz.generator` — hypothesis strategies drawing well-typed,
  terminating mini-LEAN programs over the surface AST,
* :mod:`repro.fuzz.differential` — the matrix executor asserting value,
  heap-balance and metric-identity contracts across every pipeline
  configuration,
* :mod:`repro.fuzz.corpus` — the checked-in shrunk-counterexample corpus
  replayed by the regression tests.

``python -m repro.fuzz`` runs a seeded, budgeted fuzz session (the CI
smoke / deep-fuzz entry point).
"""

from ..lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".corpus": (
        "DEFAULT_CORPUS_DIR", "corpus_name", "load_corpus",
        "save_counterexample",
    ),
    ".differential": (
        "DifferentialFailure", "MatrixConfig", "MatrixReport", "full_matrix",
        "run_matrix", "smoke_matrix",
    ),
    ".generator": ("typed_programs",),
})
