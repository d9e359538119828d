"""Canonicalisation: the union of all local simplification patterns.

Mirrors MLIR's ``-canonicalize``: constant folding, case elimination (with
the case-of-known-constructor fold), common-branch elimination and dead
region elimination are bundled into **one** greedy fixpoint — a single
pattern *drain* seeded once per function — instead of one fixpoint per
pattern family.  The rgn optimisation pipeline
(:func:`repro.backend.pipeline.rgn_pipeline_spec`, built by
:func:`~repro.backend.pipeline.build_spec_pipeline`) drives this drain
with the worklist engine, so an op is queued once and every follow-up match
comes from rewriter notifications rather than a re-seed per pass.

This is the only way a pattern family runs: ``canonicalize{ablate=...}``
drops families from the drain (the ablation benchmarks), and
``CanonicalizePass(canonicalization_patterns(...))`` or a hand-picked
pattern list narrows it for targeted use.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..rewrite.driver import ENGINES, PatternSet, apply_patterns_greedily
from ..rewrite.pass_manager import FunctionPass
from ..rewrite.pattern import RewritePattern
from ..rewrite.registry import PassOption, register_pass
from .case_elimination import case_elimination_patterns
from .common_branch import common_branch_patterns
from .constant_fold import constant_fold_patterns
from .dead_region import dead_region_patterns


def canonicalization_patterns(
    *,
    constant_fold: bool = True,
    case_elimination: bool = True,
    common_branch: bool = True,
    dead_region: bool = True,
) -> List[RewritePattern]:
    """The canonicalisation pattern union, per family.

    This is the single source of truth for what "canonicalisation" means;
    the spec option ``canonicalize{ablate=...}`` maps onto the keyword
    toggles.
    """
    patterns: List[RewritePattern] = []
    if constant_fold:
        patterns.extend(constant_fold_patterns())
    if case_elimination:
        patterns.extend(case_elimination_patterns())
    if common_branch:
        patterns.extend(common_branch_patterns())
    if dead_region:
        patterns.extend(dead_region_patterns())
    return patterns


#: Ablation choice -> the keyword toggle of :func:`canonicalization_patterns`
#: it switches off.
ABLATABLE_FAMILIES = {
    "constant-fold": "constant_fold",
    "case-elim": "case_elimination",
    "common-branch": "common_branch",
    "dead-region": "dead_region",
}


@register_pass
class CanonicalizePass(FunctionPass):
    """Drive the canonicalisation drain to fixpoint.

    ``patterns`` narrows the drain to a subset (``canonicalize{ablate=...}``
    passes the families it keeps); by default every registered
    canonicalisation pattern participates.  The patterns are indexed once
    per pass and applied per function with the configured engine; the
    driver statistics (applications, match attempts, worklist pushes,
    per-pattern applications) become the pass-manager counters.

    A failed fixpoint — non-convergence, or an injected ``driver.worklist``
    / ``pass.canonicalize`` fault — propagates to the pass manager's
    crash-bundle path (see ``docs/RESILIENCE.md``).
    """

    name = "canonicalize"

    SPEC_OPTIONS = (
        PassOption(
            "ablate",
            "drop one pattern family from the drain",
            repeatable=True,
            choices=tuple(ABLATABLE_FAMILIES),
        ),
        PassOption(
            "engine",
            "rewrite engine driving the greedy fixpoint",
            choices=ENGINES,
            default="worklist",
        ),
    )

    @classmethod
    def from_spec_options(cls, options):
        toggles = {
            ABLATABLE_FAMILIES[choice]: False
            for choice in options.get("ablate", ())
        }
        return cls(
            canonicalization_patterns(**toggles),
            engine=options.get("engine", ["worklist"])[-1],
        )

    def __init__(
        self,
        patterns: Optional[Sequence[RewritePattern]] = None,
        *,
        engine: str = "worklist",
    ):
        super().__init__()
        self.engine = engine
        self.patterns: List[RewritePattern] = (
            canonicalization_patterns() if patterns is None else list(patterns)
        )
        self.pattern_set = PatternSet(self.patterns)

    def run_on_function(self, func) -> None:
        result = apply_patterns_greedily(
            func,
            self.pattern_set,
            engine=self.engine,
            strict=self.strict_convergence,
            fault_site=f"pass.{self.name}",
        )
        self.statistics.bump("applications", result.applications)
        self.statistics.bump_meter("match-attempts", result.match_attempts)
        self.statistics.bump_meter("worklist-pushes", result.worklist_pushes)
        if result.prefilter_skips:
            self.statistics.bump_meter("prefilter-skips", result.prefilter_skips)
        # Per-pattern application counts, as meters so the already-counted
        # "applications" rewrite total is not double-counted.
        for pattern_name, count in result.per_pattern.items():
            self.statistics.bump_meter(pattern_name, count)
