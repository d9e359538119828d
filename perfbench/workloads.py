"""The four workloads: ``cli``, ``compile``, ``exec`` and ``fuzz``.

Each workload owns a fixed list of items (one item = one operation), a
``setup`` that prepares them, ``run(item)`` that performs one operation and
checks its output, and ``traced()`` that splits the same work into layers.
Load is a closed loop with one client: one operation at a time, in one
process (``cli`` spawns one child per operation and waits for it).
"""

from __future__ import annotations

import copy
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from programs import (
    FUZZ_CANDIDATES,
    FUZZ_TARGET_CHARS,
    SRC,
    WORK,
    benchmark_programs,
    canonical,
    draw_fuzz_candidates,
    load_expected,
    select_fuzz_programs,
    small_programs,
)
from staged import (
    Counters,
    Spans,
    bytecode_text,
    op_count,
    profile_shares,
    run_vm,
    staged_baseline,
    staged_bytecode,
    staged_frontend,
    staged_matrix,
    staged_mlir,
    timed_verifier,
)

from repro.backend.pipeline import (
    BaselineCompiler,
    CompilationSession,
    MlirCompiler,
    PipelineOptions,
)
from repro.eval.benchmarks import BENCHMARK_NAMES
from repro.eval.harness import measurement_options
from repro.fuzz.differential import run_matrix
from repro.interp.bytecode import VirtualMachine, compile_cfg_module, compile_rc_program
from repro.interp.limits import DEFAULT_RECURSION_LIMIT, recursion_limit
from repro.ir.printer import print_module

COMPILE_VARIANTS = (
    "default", "simplifier", "rgn", "none", "rc-opt", "rc-opt+reuse", "baseline",
)
EXEC_VARIANTS = ("default", "rc-opt+reuse")
IMPORT_PACKAGES = (
    "backend", "interp", "dialects", "lean", "transforms", "rewrite",
    "telemetry", "resilience",
)
PROFILED_FUZZ_PROGRAMS = 6

#: Every per-layer metric: name -> (unit, better).  A workload that does
#: not exercise a layer reports 0 for it.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.compile_ms": ("ms", "lower"),
    "cli.execute_ms": ("ms", "lower"),
    **{f"import.repro.{pkg}_ms": ("ms", "lower") for pkg in IMPORT_PACKAGES},
    **{
        name + "_s": ("s", "lower")
        for name in (
            "lean.parse", "lean.typecheck", "lambda_pure.lower",
            "lambda_pure.simplify", "rc_opt.rc_insert", "rc_opt.lp_fusion",
            "backend.lp_codegen", "backend.lp_to_rgn", "backend.rgn_opt",
            "backend.rgn_to_cf",
            "backend.c_emit", "transforms.cse", "transforms.region-gvn",
            "transforms.canonicalize", "transforms.dce", "ir.verify",
            "interp.bytecode_compile", "interp.fuse", "interp.vm_run",
        )
    },
    "rewrite.match_attempts": ("count", "lower"),
    "rewrite.applications": ("count", "higher"),
    "rewrite.apply_ratio": ("ratio", "higher"),
    "ir.rgn_ops": ("count", "lower"),
    "ir.cfg_ops": ("count", "lower"),
    "bytecode.static_instrs": ("count", "lower"),
    "bytecode.fused_sites": ("count", "higher"),
    **{
        f"exec.{bench}.{variant.replace('+', '-')}_s": ("s", "lower")
        for bench in BENCHMARK_NAMES
        for variant in EXEC_VARIANTS
    },
    "vm.instructions": ("count", "lower"),
    "vm.fused_share": ("ratio", "higher"),
    "gen_cost": ("count", "lower"),
    **{
        "cost." + category: ("count", "lower")
        for category in (
            "call", "apply", "rc", "alloc_ctor", "alloc_closure", "reuse",
            "runtime_call", "branch", "proj",
        )
    },
    "heap.allocations": ("count", "lower"),
    "heap.reuses": ("count", "higher"),
    "heap.peak_live": ("count", "lower"),
    "profile.interp.bytecode": ("ratio", "lower"),
    "profile.runtime.objects": ("ratio", "lower"),
    "profile.runtime.builtins": ("ratio", "lower"),
    "profile.runtime.closures": ("ratio", "lower"),
    "profile.c_builtins": ("ratio", "lower"),
    "fuzz.reference_s": ("s", "lower"),
    "fuzz.tree_exec_s": ("s", "lower"),
    "fuzz.vm_exec_s": ("s", "lower"),
    "fuzz.baseline_compile_s": ("s", "lower"),
    "fuzz.mlir_compile_s": ("s", "lower"),
    "fuzz.configs_per_program": ("count", "lower"),
    "session.frontend_hit_ratio": ("ratio", "higher"),
    "session.incremental_hit_ratio": ("ratio", "higher"),
    "trace_overhead_frac": ("ratio", "lower"),
}

#: Span names whose summed self time is reported as ``<name>_s``.
_LAYER_SPANS = tuple(
    name[:-2] for name, (unit, _) in PER_LAYER.items()
    if unit == "s" and not name.startswith(("exec.", "fuzz."))
)
#: Span names whose summed total time is reported as ``<name>_s``.
_FUZZ_SPANS = (
    "fuzz.reference", "fuzz.tree_exec", "fuzz.vm_exec",
    "fuzz.baseline_compile", "fuzz.mlir_compile",
)
#: Counters reported as they are counted.
_COUNTERS = (
    "rewrite.match_attempts", "rewrite.applications", "ir.rgn_ops",
    "ir.cfg_ops", "bytecode.static_instrs", "bytecode.fused_sites",
    "vm.instructions", "gen_cost", "heap.allocations", "heap.reuses",
    "heap.peak_live",
) + tuple(name for name in PER_LAYER if name.startswith("cost."))


class BenchFailure(Exception):
    """An operation's output disagreed with its expected value."""


def expect(pid: str, value, expected: Dict[str, object]) -> None:
    if canonical(value) != expected[pid]:
        raise BenchFailure(f"{pid}: value {value!r} != expected {expected[pid]!r}")


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Traced:
    """What a traced pass collects: spans, counts, failures, extras."""

    def __init__(self):
        self.spans = Spans()
        self.counters = Counters()
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.session_stats: Dict[str, int] = {}
        self.untraced_wall = 0.0
        self.traced_wall = 0.0
        self.attempted = 0

    def guard(self, label: str, body, span: str = "op") -> None:
        """Run one traced operation; count, never raise, its failure."""
        self.attempted += 1
        try:
            with self.spans.span(span):
                body()
        except Exception as error:  # noqa: BLE001 - counted, the run goes on
            self.failures.append(f"{label}: {type(error).__name__}: {error}")

    def pair(self, index: int, label: str, real, staged, span: str = "op") -> None:
        """Run one operation untraced (``real``) and traced (``staged``) back
        to back, so both see the same host load; which goes first
        alternates, so neither gains from the other's warm caches."""
        steps = [lambda: self.untraced(label, real), lambda: self.guard(label, staged, span)]
        for step in steps if index % 2 == 0 else steps[::-1]:
            step()

    def untraced(self, label: str, body) -> None:
        """Time one real operation; count, never raise, its failure."""
        self.attempted += 1
        self.spans.paused = True
        start = time.perf_counter()
        try:
            body()
        except Exception as error:  # noqa: BLE001 - counted, the run goes on
            self.failures.append(f"{label}: {type(error).__name__}: {error}")
        finally:
            self.untraced_wall += time.perf_counter() - start
            self.spans.paused = False

    def add_sessions(self, sessions) -> None:
        for session in sessions:
            for key, value in session.stats.items():
                self.session_stats[key] = self.session_stats.get(key, 0) + value

    def per_layer(self) -> Dict[str, float]:
        metrics = {name: 0.0 for name in PER_LAYER}
        self_times = self.spans.self_times()
        totals = self.spans.totals()
        for name in _LAYER_SPANS:
            metrics[name + "_s"] = self_times.get(name, 0.0)
        for name in _FUZZ_SPANS:
            metrics[name + "_s"] = totals.get(name, 0.0)
        counts = self.counters.values
        for name in _COUNTERS:
            metrics[name] = counts.get(name, 0)
        metrics["rewrite.apply_ratio"] = _ratio(
            counts.get("rewrite.applications", 0), counts.get("rewrite.match_attempts", 0)
        )
        metrics["vm.fused_share"] = _ratio(
            counts.get("vm.fused", 0), counts.get("vm.instructions", 0)
        )
        stats = self.session_stats
        metrics["session.frontend_hit_ratio"] = _ratio(
            stats.get("hits", 0), stats.get("hits", 0) + stats.get("misses", 0)
        )
        metrics["session.incremental_hit_ratio"] = _ratio(
            stats.get("incremental_hits", 0),
            stats.get("incremental_hits", 0) + stats.get("incremental_misses", 0),
        )
        metrics["trace_overhead_frac"] = _ratio(self.traced_wall, self.untraced_wall) - 1.0
        metrics.update(self.metrics)
        return metrics

    def op_wall(self, span: str = "op") -> float:
        return self.spans.totals().get(span, 0.0)


class Workload:
    """Base class: items, setup, one checked operation, a traced split."""

    name = ""
    #: Fewest operations per run (so a tail percentile has samples above it).
    min_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.items: List = []
        self.expected: Dict[str, object] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item):
        """Perform one operation; return its deterministic signature."""
        raise NotImplementedError

    def cfg_ops(self) -> int:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def traced(self) -> Traced:
        raise NotImplementedError

    def order(self) -> List:
        items = list(self.items)
        random.Random(self.seed).shuffle(items)
        return items


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

_CHILD_SPLIT = """
import json, sys, time
start = time.perf_counter()
import repro.__main__
imported = time.perf_counter()
from repro.backend.pipeline import CompilationSession, MlirCompiler, PipelineOptions
with open(sys.argv[1], encoding="utf-8") as handle:
    source = handle.read()
compiler = MlirCompiler(PipelineOptions(), session=CompilationSession())
artifacts = compiler.compile(source)
compiled = time.perf_counter()
result = compiler.execute(artifacts.cfg_module, check_heap=True)
executed = time.perf_counter()
print(json.dumps({"import": imported - start, "compile": compiled - imported,
                  "execute": executed - compiled, "value": result.value}))
"""


def _printed(value) -> str:
    """How ``python -m repro`` prints a recorded value."""
    def as_tuple(v):
        return tuple(as_tuple(x) for x in v) if isinstance(v, list) else v
    return str(as_tuple(value))


class CliWorkload(Workload):
    name = "cli"
    min_ops = 100

    def setup(self) -> None:
        self.expected = load_expected()
        self.dir = WORK / "cli"
        pycache = WORK / "pycache"
        shutil.rmtree(pycache, ignore_errors=True)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONPYCACHEPREFIX"] = str(pycache)
        self.sources: Dict[str, str] = {}
        self.paths: Dict[str, str] = {}
        for pid, source in small_programs():
            path = self.dir / (pid.replace("/", "__") + ".lean")
            path.write_text(source, encoding="utf-8")
            self.sources[pid] = source
            self.paths[pid] = str(path)
        self.items = list(self.paths)
        # One full CLI call compiles every module it imports into the cache.
        self.run(self.items[0])

    def _child(self, args, **kwargs) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=str(self.dir),
            capture_output=True, text=True, timeout=120, **kwargs,
        )

    def run(self, pid):
        done = self._child(["-m", "repro", self.paths[pid], "--metrics"])
        if done.returncode != 0:
            raise BenchFailure(f"{pid}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        value = re.search(r"^result: (.*)$", done.stdout, re.M)
        cost = re.search(r"^\[metrics\] cost=(\d+)", done.stdout, re.M)
        if value is None or cost is None:
            raise BenchFailure(f"{pid}: unexpected output {done.stdout[-300:]!r}")
        if value.group(1) != _printed(self.expected[pid]):
            raise BenchFailure(f"{pid}: printed {value.group(1)} != {self.expected[pid]}")
        return (value.group(1), int(cost.group(1)))

    def cfg_ops(self) -> int:
        return sum(
            op_count(MlirCompiler(PipelineOptions()).compile(source).cfg_module)
            for source in self.sources.values()
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(children=True)

    def traced(self) -> Traced:
        traced = Traced()
        items = self.order()
        splits = {"import": [], "compile": [], "execute": []}
        for index, pid in enumerate(items):
            traced.pair(index, pid, lambda pid=pid: self.run(pid),
                        lambda pid=pid: self._split_child(pid, splits), "child")
        traced.traced_wall = traced.op_wall("child")

        bare = [self._timed_child(["-c", "pass"]) for _ in range(10)]
        imports: Dict[str, List[float]] = {pkg: [] for pkg in IMPORT_PACKAGES}
        for _ in range(3):
            done = self._child(["-X", "importtime", "-c", "import repro.__main__"])
            for line in done.stderr.splitlines():
                match = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*repro\.(\w+)$", line)
                if match and match.group(2) in imports:
                    imports[match.group(2)].append(int(match.group(1)) / 1e3)
        traced.metrics["cli.interpreter_ms"] = statistics.median(bare) * 1e3
        for key in splits:
            traced.metrics[f"cli.{key}_ms"] = (
                statistics.median(splits[key]) * 1e3 if splits[key] else 0.0
            )
        for pkg, values in imports.items():
            traced.metrics[f"import.repro.{pkg}_ms"] = (
                statistics.median(values) if values else 0.0
            )

        # The compile the children perform, split into layers in-process.
        with timed_verifier(traced.spans):
            for pid in items:
                traced.guard(pid, lambda pid=pid: _staged_compile_run(
                    pid, self.sources[pid], "default", self.expected, traced
                ))
        return traced

    def _split_child(self, pid, splits) -> None:
        """One cold child timing import, compile and execute apart."""
        done = self._child(["-c", _CHILD_SPLIT, self.paths[pid]])
        if done.returncode != 0:
            raise BenchFailure(done.stderr.strip()[-300:])
        split = json.loads(done.stdout.strip().splitlines()[-1])
        expect(pid, split["value"], self.expected)
        for key in splits:
            splits[key].append(split[key])

    def _timed_child(self, args) -> float:
        start = time.perf_counter()
        self._child(args, check=True)
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def _options(variant: str) -> PipelineOptions:
    """CLI-default options of a variant, with the fallback ladders off so a
    VM fault is a failure rather than a silent re-execution."""
    options = PipelineOptions() if variant == "default" else PipelineOptions.variant(variant)
    options.enable_fallbacks = False
    return options


def compile_and_run(source: str, variant: str):
    """The real entry points: compile with a fresh session, build bytecode,
    run once on the VM.  Returns (artifacts, result, bytecode, session)."""
    session = CompilationSession()
    if variant == "baseline":
        compiler = BaselineCompiler(session=session, enable_fallbacks=False)
        artifacts = compiler.compile(source)
        result = compiler.execute(artifacts.rc_program, check_heap=True)
        program = session.rc_bytecode_for(artifacts.rc_program)
    else:
        compiler = MlirCompiler(_options(variant), session=session)
        artifacts = compiler.compile(source)
        result = compiler.execute(artifacts.cfg_module, check_heap=True)
        program = session.bytecode_for(artifacts.cfg_module)
    return artifacts, result, program, session


def _staged_compile_run(pid, source, variant, expected, traced: Traced):
    """Staged twin of :func:`compile_and_run`; returns the final artifact
    (CFG module, or C text for the baseline) and the bytecode program."""
    spans, counters = traced.spans, traced.counters
    session = CompilationSession()
    traced.add_sessions([session])
    # The session hands the compiler a copy of the λpure program it caches.
    pure = copy.deepcopy(staged_frontend(source, spans))
    if variant == "baseline":
        rc, artifact = staged_baseline(pure, "naive", spans)
        program = staged_bytecode(compile_rc_program, rc, spans, counters)
    else:
        artifact = staged_mlir(pure, _options(variant), spans, counters, session)
        program = staged_bytecode(compile_cfg_module, artifact, spans, counters)
    result = run_vm(program, spans, counters, "interp.vm_run")
    expect(pid, result.value, expected)
    return artifact, program


def _texts(artifact, program) -> Tuple[str, str]:
    """Final IR (or C) text and bytecode dump, for comparing two compiles."""
    text = artifact if isinstance(artifact, str) else print_module(artifact)
    return text, bytecode_text(program)


class CompileWorkload(Workload):
    name = "compile"

    def setup(self) -> None:
        self.expected = load_expected()
        self.sources = dict(small_programs())
        self.items = [(pid, v) for pid in self.sources for v in COMPILE_VARIANTS]
        self._cfg_ops: Dict[Tuple[str, str], int] = {}
        # Warm-up: fill process-wide lazy state (pass registry, prelude
        # tables, interned types) before anything is timed.
        for source in self.sources.values():
            compile_and_run(source, "default")

    def _checked(self, item):
        """The real compile and run of ``item``, its value checked."""
        artifacts, result, program, _ = compile_and_run(self.sources[item[0]], item[1])
        expect(item[0], result.value, self.expected)
        return artifacts, result, program

    def run(self, item):
        artifacts, result, program = self._checked(item)
        ops = op_count(artifacts.cfg_module) if artifacts.cfg_module is not None else 0
        self._cfg_ops[item] = ops
        return (canonical(result.value), ops, result.metrics.total_cost(),
                program.instruction_count)

    def cfg_ops(self) -> int:
        return sum(self._cfg_ops.values())

    def traced(self) -> Traced:
        traced = Traced()
        items = self.order()
        staged_outputs = {}
        with timed_verifier(traced.spans):
            for index, item in enumerate(items):
                traced.pair(
                    index, f"{item[0]}/{item[1]}", lambda item=item: self._checked(item),
                    lambda item=item: staged_outputs.__setitem__(item, _staged_compile_run(
                        item[0], self.sources[item[0]], item[1], self.expected, traced
                    )),
                )
        traced.traced_wall = traced.op_wall()
        for item in items:
            if item not in staged_outputs:
                continue
            artifacts, _, program, _ = compile_and_run(self.sources[item[0]], item[1])
            real = artifacts.c_source if item[1] == "baseline" else artifacts.cfg_module
            if _texts(*staged_outputs[item]) != _texts(real, program):
                traced.failures.append(f"{item}: staged compile differs from the real one")
        traced.metrics.update(profile_shares(lambda: [self.run(item) for item in items]))
        return traced


# ---------------------------------------------------------------------------
# exec
# ---------------------------------------------------------------------------


class ExecWorkload(Workload):
    name = "exec"
    tier = "xlarge"

    def setup(self) -> None:
        self.expected = load_expected()
        self.sources = dict(benchmark_programs(self.tier))
        self.modules: Dict[Tuple[str, str], object] = {}
        self.programs: Dict[Tuple[str, str], object] = {}
        self.sessions = []
        for variant in EXEC_VARIANTS:
            for pid, source in self.sources.items():
                session = CompilationSession()
                self.sessions.append(session)
                module = MlirCompiler(_options(variant), session=session).compile(source).cfg_module
                self.modules[(pid, variant)] = module
                self.programs[(pid, variant)] = compile_cfg_module(module, fuse=True)
        self.items = list(self.programs)

    def _execute(self, item):
        # Freeing a long list recurses once per cell in the runtime's heap,
        # deeper than Python's default limit on xlarge rc-opt+reuse filter;
        # the limit is raised the way the tree-walkers raise it.
        with recursion_limit(DEFAULT_RECURSION_LIMIT):
            vm = VirtualMachine(self.programs[item])
            return vm, vm.run_main(check_heap=True)

    def run(self, item):
        _, result = self._execute(item)
        expect(item[0], result.value, self.expected)
        return (canonical(result.value), result.metrics.total_cost(),
                tuple(sorted(result.metrics.counts.items())),
                tuple(sorted(result.heap_stats.items())))

    def cfg_ops(self) -> int:
        return sum(op_count(module) for module in self.modules.values())

    def traced(self) -> Traced:
        traced = Traced()
        items = self.order()
        for index, item in enumerate(items):
            def body(item=item):
                with traced.spans.span("exec." + item[0].split("/", 1)[1]
                                       + "." + item[1].replace("+", "-")):
                    with recursion_limit(DEFAULT_RECURSION_LIMIT):
                        result = run_vm(self.programs[item], traced.spans,
                                        traced.counters, "interp.vm_run")
                expect(item[0], result.value, self.expected)
            traced.pair(index, f"{item[0]}/{item[1]}", lambda item=item: self.run(item), body)
        traced.traced_wall = traced.op_wall()
        totals = traced.spans.totals()
        for name in PER_LAYER:
            if name.startswith("exec."):
                traced.metrics[name] = totals.get(name[:-2], 0.0)
        traced.add_sessions(self.sessions)

        # The setup's compile, split into layers and checked against it.
        with timed_verifier(traced.spans):
            for (pid, variant), module in self.modules.items():
                def body(pid=pid, variant=variant, module=module):
                    pure = staged_frontend(self.sources[pid], traced.spans)
                    cfg_module = staged_mlir(pure, _options(variant), traced.spans,
                                             traced.counters, CompilationSession())
                    program = staged_bytecode(compile_cfg_module, cfg_module,
                                              traced.spans, traced.counters)
                    if _texts(cfg_module, program) != _texts(module, self.programs[(pid, variant)]):
                        raise BenchFailure("staged compile differs from the setup's")
                traced.guard(f"{pid}/{variant}", body, "setup")
        traced.metrics.update(profile_shares(lambda: [self._execute(item) for item in items]))
        return traced


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


class FuzzWorkload(Workload):
    name = "fuzz"
    candidates = FUZZ_CANDIDATES
    targets = FUZZ_TARGET_CHARS

    def setup(self) -> None:
        drawn = draw_fuzz_candidates(self.seed, self.candidates)
        self.sources = dict(select_fuzz_programs(drawn, self.targets))
        self.items = list(self.sources)
        # Warm-up: the smallest program through the matrix fills lazy state.
        self._report(self.items[0])

    def run(self, pid):
        _, report = self._report(pid)
        return (canonical(report.reference_value), report.configurations,
                repr(sorted(report.runs.items())))

    def _report(self, pid):
        session = CompilationSession()
        return session, run_matrix(self.sources[pid], session=session)

    def cfg_ops(self) -> int:
        total = 0
        for source in self.sources.values():
            for variant in ("rc-naive", "rc-opt", "rc-opt+reuse"):
                module = MlirCompiler(measurement_options(variant)).compile(source).cfg_module
                total += op_count(module)
        return total

    def traced(self) -> Traced:
        traced = Traced()
        items = self.order()
        reports = {}
        staged = {}
        with timed_verifier(traced.spans):
            for index, pid in enumerate(items):
                traced.pair(
                    index, pid,
                    lambda pid=pid: reports.__setitem__(pid, self._report(pid)),
                    lambda pid=pid: staged.__setitem__(pid, staged_matrix(
                        self.sources[pid], CompilationSession(), traced.spans,
                        traced.counters,
                    )),
                )
        traced.traced_wall = traced.op_wall()
        for pid in reports.keys() & staged.keys():
            reference, runs = staged[pid]
            report = reports[pid][1]
            if (canonical(reference), runs) != (canonical(report.reference_value), report.runs):
                traced.failures.append(f"{pid}: staged matrix differs from run_matrix")
        traced.add_sessions(session for session, _ in reports.values())
        configs = [report.configurations + 1 for _, report in reports.values()]
        traced.metrics["fuzz.configs_per_program"] = max(configs) if configs else 0
        profiled = items[:PROFILED_FUZZ_PROGRAMS]
        traced.metrics.update(profile_shares(lambda: [self._report(pid) for pid in profiled]))
        return traced


WORKLOADS = {
    workload.name: workload
    for workload in (CliWorkload, CompileWorkload, ExecWorkload, FuzzWorkload)
}
