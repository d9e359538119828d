"""Ablation study: toggle each rgn optimisation individually.

Not a figure in the paper, but DESIGN.md calls out the design choice of
splitting the region optimisations into separate passes; these cases check
that every ablation still compiles and runs the benchmark suite.
"""

import pytest

from repro.backend import MlirCompiler, PipelineOptions
from repro.eval.benchmarks import BENCHMARK_NAMES
from repro.interp.cfg_interp import CfgInterpreter

ABLATIONS = {
    "full": {},
    "no-region-gvn": {"enable_region_gvn": False},
    "no-case-elimination": {"enable_case_elimination": False},
    "no-common-branch": {"enable_common_branch_elimination": False},
    "no-dead-region": {"enable_dead_region_elimination": False},
    "no-cse": {"enable_cse": False},
}


def _options(overrides):
    options = PipelineOptions(verify_each=False)
    for key, value in overrides.items():
        setattr(options, key, value)
    return options


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
@pytest.mark.parametrize("name", BENCHMARK_NAMES[:4])
def test_ablation_compile_and_run(sources, name, ablation):
    artifacts = MlirCompiler(_options(ABLATIONS[ablation])).compile(sources[name])
    result = CfgInterpreter(artifacts.cfg_module).run_main(check_heap=False)
    assert result.value is not None


def test_ablations_preserve_semantics(sources):
    source = sources["rbmap_checkpoint"]
    values = set()
    for overrides in ABLATIONS.values():
        artifacts = MlirCompiler(_options(overrides)).compile(source)
        values.add(CfgInterpreter(artifacts.cfg_module).run_main().value)
    assert len(values) == 1
