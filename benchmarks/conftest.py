"""Shared fixtures for the benchmark-suite tests."""

import pytest

from repro.eval.benchmarks import benchmark_sources

#: Reduced problem sizes so that the full benchmark matrix stays fast while
#: preserving each workload's character.  ``python -m repro.eval.figures
#: --sizes ...`` is the full-size view.
SMALL_SIZES = {
    "binarytrees": {"depth": 5},
    "binarytrees-int": {"depth": 5},
    "const_fold": {"depth": 3, "reps": 3},
    "deriv": {"reps": 3},
    "digits": {"reps": 5, "span": 8},
    "filter": {"length": 30},
    "qsort": {"size": 16},
    "rbmap_checkpoint": {"inserts": 15},
    "unionfind": {"elements": 20, "unions": 15},
}


@pytest.fixture(scope="session")
def sources():
    return benchmark_sources(SMALL_SIZES)
