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

The individual passes (:class:`~repro.transforms.constant_fold.
ConstantFoldPass` etc.) remain available for targeted use and for the
ablation benchmarks, which shrink the drain's pattern set instead of
removing pipeline stages.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..rewrite.driver import ENGINE_OPTION, PatternRewritePass
from ..rewrite.pattern import RewritePattern
from ..rewrite.registry import PassOption, register_pass
from .case_elimination import case_elimination_patterns
from .common_branch import common_branch_patterns
from .constant_fold import constant_fold_patterns
from .dce import eliminate_dead_code
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
    the backend pipeline maps its ablation flags onto the keyword toggles.
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
#: it switches off.  Also consumed by the backend pipeline when translating
#: its ablation flags into a pipeline spec.
ABLATABLE_FAMILIES = {
    "constant-fold": "constant_fold",
    "case-elim": "case_elimination",
    "common-branch": "common_branch",
    "dead-region": "dead_region",
}


@register_pass
class CanonicalizePass(PatternRewritePass):
    """Drive the canonicalisation drain to fixpoint, optionally followed by
    DCE.

    ``patterns`` narrows the drain to a subset (the ablation benchmarks pass
    the enabled pattern families); by default every registered
    canonicalisation pattern participates.  ``run_dce`` controls the
    trailing dead-code sweep — the backend pipeline disables it because it
    schedules one final DCE pass itself.
    """

    name = "canonicalize"

    SPEC_OPTIONS = (
        PassOption(
            "ablate",
            "drop one pattern family from the drain",
            repeatable=True,
            choices=tuple(ABLATABLE_FAMILIES),
        ),
        ENGINE_OPTION,
        PassOption(
            "dce",
            "run a dead-code sweep after the drain converges",
            choices=("true", "false"),
            default="false",
        ),
    )

    @classmethod
    def from_spec_options(cls, options):
        toggles = {
            ABLATABLE_FAMILIES[choice]: False
            for choice in options.get("ablate", ())
        }
        patterns = canonicalization_patterns(**toggles) if toggles else None
        return cls(
            patterns,
            engine=options.get("engine", [None])[-1],
            run_dce=options.get("dce", ["false"])[-1] == "true",
        )

    def __init__(
        self,
        patterns: Optional[Sequence[RewritePattern]] = None,
        *,
        engine: Optional[str] = None,
        run_dce: bool = True,
    ):
        super().__init__(engine=engine)
        self._patterns = list(patterns) if patterns is not None else None
        self.run_dce = run_dce

    def patterns(self) -> List[RewritePattern]:
        if self._patterns is not None:
            return list(self._patterns)
        return canonicalization_patterns()

    def run_on_function(self, func) -> None:
        self.apply(func)
        if self.run_dce:
            erased = eliminate_dead_code(func)
            self.statistics.bump("ops-erased", erased)
