"""Figure 10: speedup of the rgn optimisations over the λrc simplifier.

Three pipeline variants per benchmark: (a) λpure simplifier + no rgn
optimisation, (b) no simplifier + rgn optimisations, (c) neither.  The paper
reports geomean parity (1.0x) between (a) and (b); variant (c) should never
beat (b).
"""

import pytest

from repro.backend import PipelineOptions, run_mlir, run_reference
from repro.eval.benchmarks import BENCHMARK_NAMES
from repro.eval.harness import geometric_mean

VARIANTS = ("simplifier", "rgn", "none")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_variant_pipeline(sources, name, variant):
    source = sources[name]
    expected = run_reference(source)
    options = PipelineOptions.variant(variant)
    options.verify_each = False
    result = run_mlir(source, options, check_heap=False)
    assert result.value == expected


def test_figure10_speedups_within_parity_band(sources):
    rgn_speedups = []
    none_speedups = []
    for name in BENCHMARK_NAMES:
        source = sources[name]
        costs = {}
        for variant in VARIANTS:
            options = PipelineOptions.variant(variant)
            options.verify_each = False
            result = run_mlir(source, options)
            costs[variant] = result.metrics.total_cost()
        rgn_speedups.append(costs["simplifier"] / costs["rgn"])
        none_speedups.append(costs["simplifier"] / costs["none"])
    # Paper: rgn vs simplifier hovers around 1.0x (0.95-1.05), and the
    # unoptimised variant is never better than the rgn-optimised one.
    assert 0.85 <= geometric_mean(rgn_speedups) <= 1.15
    for rgn_s, none_s in zip(rgn_speedups, none_speedups):
        assert rgn_s >= none_s - 1e-9
