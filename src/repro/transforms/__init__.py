"""IR transformation passes.

Classical SSA passes
    * :class:`~repro.transforms.dce.DeadCodeEliminationPass`
    * :class:`~repro.transforms.cse.CSEPass`
    * :class:`~repro.transforms.canonicalize.CanonicalizePass`

Region passes (the paper's contribution, §IV-B)
    * :class:`~repro.transforms.region_gvn.RegionGVNPass`
    * case, common-branch and dead region elimination, and constant
      folding: pattern families of the ``canonicalize`` drain
      (:mod:`~repro.transforms.case_elimination`,
      :mod:`~repro.transforms.common_branch`,
      :mod:`~repro.transforms.dead_region`,
      :mod:`~repro.transforms.constant_fold`), selected with
      :func:`~repro.transforms.canonicalize.canonicalization_patterns`
    * region inlining: ``rgn.run`` of a single-use ``rgn.val``
      (:class:`~repro.transforms.case_elimination.InlineRunOfKnownRegion`,
      in the case-elimination family)
"""

from .canonicalize import CanonicalizePass, canonicalization_patterns
from .case_elimination import case_elimination_patterns
from .common_branch import common_branch_patterns
from .constant_fold import constant_fold_patterns
from .cse import CSEPass
from .dce import DeadCodeEliminationPass, eliminate_dead_code
from .dead_region import dead_region_patterns
from .region_gvn import (
    RegionFingerprinter,
    RegionGVNPass,
    ValueNumbering,
    region_value_number,
)

__all__ = [
    "CanonicalizePass",
    "canonicalization_patterns",
    "case_elimination_patterns",
    "common_branch_patterns",
    "constant_fold_patterns",
    "CSEPass",
    "DeadCodeEliminationPass",
    "eliminate_dead_code",
    "dead_region_patterns",
    "RegionFingerprinter",
    "RegionGVNPass",
    "ValueNumbering",
    "region_value_number",
]
