"""Execution-engine guard: the bytecode VM vs the tree-walking oracles.

Asserts the acceptance criteria of the execution-engine work:

* differential — on the benchmark suite both engines produce identical
  results, execution metrics and heap statistics (the figure suite is
  diffed, so "identical" means byte-identical figures),
* efficiency — on the largest benchmark (by executed cost) the VM cuts
  execution wall time at least 2x versus the tree-walker, and (VM 2.0)
  superinstruction fusion shrinks the executed instruction stream (the
  VM's speed is measured by the perfbench ``exec`` workload),
* scale — the ``large`` tier is roughly an order of magnitude more work
  than the default tier, and the ``xlarge`` tier (another ~10x, funded
  by VM 2.0) runs under the VM with unchanged observables.
"""

import time

import pytest

from repro.backend.pipeline import CompilationSession, MlirCompiler
from repro.eval.benchmarks import (
    DEFAULT_SIZES,
    LARGE_SIZES,
    SIZE_TIERS,
    XLARGE_SIZES,
    benchmark_sources,
)
from repro.eval.harness import measurement_options, oracle_options
from repro.interp.bytecode import VirtualMachine, compile_cfg_module
from repro.interp.cfg_interp import CfgInterpreter


def run_seconds(engine) -> float:
    """Wall time of one ``run_main`` of an engine built beforehand."""
    start = time.perf_counter()
    engine.run_main()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def compiled_suite(sources):
    """Every benchmark compiled once (default pipeline, reduced sizes, the
    verifier on after every pass)."""
    session = CompilationSession()
    compiler = MlirCompiler(oracle_options("default"), session=session)
    return {
        name: compiler.compile(source).cfg_module
        for name, source in sources.items()
    }


class TestEngineDifferential:
    def test_identical_results_metrics_and_heap_stats(self, compiled_suite):
        for name, module in compiled_suite.items():
            tree = CfgInterpreter(module).run_main()
            vm = VirtualMachine(compile_cfg_module(module)).run_main()
            assert vm.value == tree.value, name
            assert vm.metrics.counts == tree.metrics.counts, name
            assert vm.heap_stats == tree.heap_stats, name


class TestExecutionSpeed:
    def test_vm_beats_tree_2x_on_largest_benchmark(self):
        """≥2x wall-time cut on the suite's largest benchmark (by cost).

        Uses the full default sizes (not the reduced benchmark sizes): the
        guard protects the figure-suite execution phase, which runs at
        default sizes.  Best-of-two timings keep a loaded CI runner from
        flaking the ratio; the observed speedup is 3.5-5x.
        """
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)
        modules = {
            name: compiler.compile(source).cfg_module
            for name, source in benchmark_sources(DEFAULT_SIZES).items()
        }
        costs = {
            name: VirtualMachine(compile_cfg_module(module))
            .run_main()
            .metrics.total_cost()
            for name, module in modules.items()
        }
        largest = max(costs, key=costs.get)
        module = modules[largest]
        bytecode = compile_cfg_module(module)
        tree_seconds = min(run_seconds(CfgInterpreter(module)) for _ in range(2))
        vm_seconds = min(run_seconds(VirtualMachine(bytecode)) for _ in range(2))
        assert vm_seconds > 0
        ratio = tree_seconds / vm_seconds
        assert ratio >= 2.0, (
            f"{largest}: tree {tree_seconds * 1e3:.1f}ms vs "
            f"vm {vm_seconds * 1e3:.1f}ms — speedup {ratio:.2f}x < 2x"
        )

    def test_bytecode_compilation_is_cheap(self):
        """Translating to bytecode must stay well under one execution."""
        source = benchmark_sources(
            {"rbmap_checkpoint": DEFAULT_SIZES["rbmap_checkpoint"]}
        )["rbmap_checkpoint"]
        module = MlirCompiler(measurement_options("default")).compile(source).cfg_module
        start = time.perf_counter()
        bytecode = compile_cfg_module(module)
        compile_seconds = time.perf_counter() - start
        execute_seconds = run_seconds(VirtualMachine(bytecode))
        assert compile_seconds < execute_seconds, (
            f"bytecode compile {compile_seconds * 1e3:.1f}ms exceeds "
            f"execution {execute_seconds * 1e3:.1f}ms"
        )


class TestVm2Speed:
    """VM 2.0: superinstruction fusion on the direct-threaded VM."""

    def test_fusion_shrinks_the_dynamic_instruction_stream(self):
        """Superinstructions must collapse a meaningful share of executed
        instructions on the fusion-friendly workloads (~30% observed).
        The threaded VM derives ``opcode_counts`` from its site tables."""
        name = "rbmap_checkpoint"
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)
        source = benchmark_sources({name: DEFAULT_SIZES[name]})[name]
        module = compiler.compile(source).cfg_module

        def executed(**kwargs):
            vm = VirtualMachine(session.bytecode_for(module, **kwargs))
            vm.run_main()
            return sum(vm.opcode_counts)

        fused = executed()
        unfused = executed(superinstructions=False)
        assert fused <= 0.8 * unfused, (fused, unfused)


class TestLargeSizeTier:
    def test_tier_registry(self):
        assert SIZE_TIERS["default"] is DEFAULT_SIZES
        assert SIZE_TIERS["large"] is LARGE_SIZES
        assert SIZE_TIERS["xlarge"] is XLARGE_SIZES
        assert set(LARGE_SIZES) == set(DEFAULT_SIZES)
        assert set(XLARGE_SIZES) == set(DEFAULT_SIZES)

    def test_large_tier_runs_under_the_vm(self):
        # One representative large benchmark end-to-end, and its cost must
        # dwarf the default tier's (the tier exists to scale the workload).
        name = "rbmap_checkpoint"
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)

        def cost(sizes):
            source = benchmark_sources({name: sizes[name]})[name]
            module = compiler.compile(source).cfg_module
            result = VirtualMachine(session.bytecode_for(module)).run_main()
            return result.metrics.total_cost()

        assert cost(LARGE_SIZES) >= 5 * cost(DEFAULT_SIZES)


class TestXlargeSizeTier:
    def test_xlarge_tier_scales_past_large(self):
        name = "rbmap_checkpoint"
        session = CompilationSession()
        compiler = MlirCompiler(measurement_options("default"), session=session)

        def cost(sizes):
            source = benchmark_sources({name: sizes[name]})[name]
            module = compiler.compile(source).cfg_module
            result = VirtualMachine(session.bytecode_for(module)).run_main()
            return result.metrics.total_cost()

        assert cost(XLARGE_SIZES) >= 5 * cost(LARGE_SIZES)

    def test_xlarge_identity_across_engines(self):
        """One xlarge benchmark end-to-end on the tree oracle and the
        threaded VM, fused and unfused: unchanged values, metrics and heap
        statistics.
        Uses the cheapest xlarge benchmark so the tree-walker stays
        affordable."""
        name = "filter"
        session = CompilationSession()
        compiler = MlirCompiler(oracle_options("default"), session=session)
        source = benchmark_sources({name: XLARGE_SIZES[name]})[name]
        module = compiler.compile(source).cfg_module
        tree = CfgInterpreter(module).run_main()
        fused = VirtualMachine(session.bytecode_for(module)).run_main()
        unfused = VirtualMachine(
            session.bytecode_for(module, superinstructions=False)
        ).run_main()
        for vm_result in (fused, unfused):
            assert vm_result.value == tree.value
            assert vm_result.metrics.counts == tree.metrics.counts
            assert vm_result.heap_stats == tree.heap_stats
