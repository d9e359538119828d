"""Tests for fingerprint-keyed incremental rgn-opt recompilation.

The contract under test (see :mod:`repro.backend.incremental`):

* recompiling unchanged source through a session re-runs the rgn
  pipeline on **no** function (all hits, byte-identical output),
* recompiling with one function changed re-runs it on **only** that
  function (exactly one miss),
* fingerprints are structural — positional pre-seeding keeps functions
  whose nested regions reference *different* outer values apart, while
  cosmetic SSA name hints don't cause spurious misses,
* cache entries are keyed by the pipeline fingerprint too, so different
  option sets never share optimised IR,
* the cache is FIFO-bounded and its traffic publishes as
  ``session.incremental.*``,
* the cache is opt-in: a compile with default options never touches it.
"""

import re

import pytest

from repro.backend.incremental import (
    function_fingerprint,
    function_fingerprint_digest,
)
from repro.backend.pipeline import (
    CompilationSession,
    MlirCompiler,
    PipelineOptions,
)
from repro.dialects import lp, rgn
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp
from repro.ir import Builder, FunctionType, InsertionPoint, box
from repro.telemetry import telemetry_session

SOURCE = """
def add (a b : Nat) : Nat := a + b

def double (n : Nat) : Nat := add n n

def main : Nat := double (add 4 17)
"""

#: Same module with only ``double``'s body changed.
CHANGED = SOURCE.replace("add n n", "add n (add n 0)")


def incremental_stats(session):
    return {
        key.removeprefix("incremental_"): session.stats[key]
        for key in ("incremental_hits", "incremental_misses", "incremental_entries")
    }


def make_compiler(session, **overrides):
    overrides.setdefault("incremental_rgn_opt", True)
    options = PipelineOptions(capture_ir=("rgn-opt",), **overrides)
    return MlirCompiler(options, session=session)


def anonymize(text):
    """IR text with every SSA/block name replaced — hint-blind comparison."""
    return re.sub(r"[%^][A-Za-z0-9_$.\-]+", "%_", text)


class TestIncrementalRecompilation:
    def test_first_compile_misses_every_function(self):
        session = CompilationSession()
        make_compiler(session).compile(SOURCE)
        assert incremental_stats(session) == {
            "hits": 0, "misses": 3, "entries": 3,
        }

    def test_recompile_hits_every_function_byte_identically(self):
        session = CompilationSession()
        compiler = make_compiler(session)
        first = compiler.compile(SOURCE).captured_ir["rgn-opt"]
        second = compiler.compile(SOURCE).captured_ir["rgn-opt"]
        assert incremental_stats(session) == {
            "hits": 3, "misses": 3, "entries": 3,
        }
        assert first == second

    def test_one_function_changed_reruns_only_that_function(self):
        session = CompilationSession()
        compiler = make_compiler(session)
        compiler.compile(SOURCE)
        before = incremental_stats(session)
        compiler.compile(CHANGED)
        after = incremental_stats(session)
        # add and main are unchanged (hits); only double re-optimises.
        assert after["hits"] - before["hits"] == 2
        assert after["misses"] - before["misses"] == 1

    def test_incremental_output_matches_non_incremental(self):
        def compile_pair(incremental):
            session = CompilationSession()
            compiler = make_compiler(session, incremental_rgn_opt=incremental)
            compiler.compile(SOURCE)
            return compiler.compile(CHANGED).captured_ir["rgn-opt"]

        # A hit restores the hint spelling of the compile that populated
        # the entry, so the comparison is hint-blind; the IR structure
        # (ops, operands, attributes, types) must agree exactly.
        assert anonymize(compile_pair(True)) == anonymize(compile_pair(False))

    def test_session_output_matches_sessionless_compile(self):
        session = CompilationSession()
        compiler = make_compiler(session)
        compiler.compile(SOURCE)
        cached = compiler.compile(SOURCE).captured_ir["rgn-opt"]
        fresh = MlirCompiler(
            PipelineOptions(capture_ir=("rgn-opt",))
        ).compile(SOURCE).captured_ir["rgn-opt"]
        assert cached == fresh

    def test_incremental_results_still_execute_correctly(self):
        session = CompilationSession()
        compiler = make_compiler(session)
        compiler.compile(SOURCE)
        assert compiler.run(SOURCE).value == 42
        assert compiler.run(CHANGED).value == 42
        assert incremental_stats(session)["hits"] > 0

    def test_disabling_incremental_bypasses_the_cache(self):
        session = CompilationSession()
        compiler = make_compiler(session, incremental_rgn_opt=False)
        compiler.compile(SOURCE)
        compiler.compile(SOURCE)
        assert incremental_stats(session) == {
            "hits": 0, "misses": 0, "entries": 0,
        }

    def test_different_pipeline_specs_do_not_share_entries(self):
        session = CompilationSession()
        make_compiler(session).compile(SOURCE)
        # The rescan engine reads canonicalize{engine=rescan}: another spec.
        rescan = make_compiler(session, rewrite_engine="rescan")
        rescan.compile(SOURCE)
        # Same source, different pipeline fingerprint: all misses again.
        assert incremental_stats(session) == {
            "hits": 0, "misses": 6, "entries": 6,
        }

    def test_metrics_publish_under_telemetry(self):
        with telemetry_session() as telemetry:
            session = CompilationSession()
            compiler = make_compiler(session)
            compiler.compile(SOURCE)
            compiler.compile(SOURCE)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["session.incremental.hits"] == 3
        assert snapshot["session.incremental.misses"] == 3

    def test_default_compile_skips_the_cache(self):
        with telemetry_session() as telemetry:
            MlirCompiler(session=CompilationSession()).compile(SOURCE)
        spans = [span.name for span in telemetry.tracer.all_spans()]
        assert "phase:rgn-opt" in spans
        assert not any(name.startswith("incremental:") for name in spans)
        assert not any(
            key.startswith("session.incremental.")
            for key in telemetry.metrics.snapshot()
        )

    def test_fifo_bound(self):
        session = CompilationSession()
        session.RGN_OPT_CACHE_LIMIT = 2
        session.rgn_opt_store(("p", "a"), object())
        session.rgn_opt_store(("p", "b"), object())
        session.rgn_opt_store(("p", "c"), object())
        assert incremental_stats(session)["entries"] == 2
        assert session.rgn_opt_cached(("p", "a")) is None  # evicted first
        assert session.rgn_opt_cached(("p", "c")) is not None


def _func_with_region_returning(module, name, arg_index):
    """``func(a, b)`` holding a region whose body returns one argument."""
    func = FuncOp(name, FunctionType([box, box], [box]))
    module.append(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    val = builder.create(rgn.ValOp)
    inner = Builder(InsertionPoint.at_end(val.body_block))
    inner.create(lp.ReturnOp, func.arguments[arg_index])
    builder.create(rgn.RunOp, val.result())
    return func


class TestFunctionFingerprint:
    def test_identical_functions_share_a_fingerprint(self):
        module = ModuleOp()
        f = _func_with_region_returning(module, "f", 0)
        g = _func_with_region_returning(module, "g", 0)
        f_key = function_fingerprint(f)
        g_key = function_fingerprint(g)
        # Bodies identical; only the sym_name attribute differs.
        assert f_key[0] == g_key[0] == "body"
        assert f_key[2] == g_key[2]
        assert function_fingerprint_digest(f) != function_fingerprint_digest(g)

    def test_regions_over_different_outer_values_differ(self):
        # The collision positional pre-seeding exists to prevent: with a
        # fresh encounter-order numbering both nested regions would see
        # "some outer value numbered 0" and fingerprint identically, even
        # though one returns the first argument and the other the second.
        module = ModuleOp()
        f = _func_with_region_returning(module, "f", 0)
        g = _func_with_region_returning(module, "g", 1)
        assert function_fingerprint(f)[2] != function_fingerprint(g)[2]

    def test_fingerprint_is_deterministic(self):
        module = ModuleOp()
        f = _func_with_region_returning(module, "f", 0)
        assert function_fingerprint_digest(f) == function_fingerprint_digest(f)

    def test_name_hints_do_not_affect_the_fingerprint(self):
        module = ModuleOp()
        f = _func_with_region_returning(module, "f", 0)
        digest = function_fingerprint_digest(f)
        f.arguments[0].name_hint = "renamed"
        assert function_fingerprint_digest(f) == digest
