"""The inputs of the four workloads and the record of their expected values.

Fixed inputs (``cli``, ``compile``, ``exec``) come from the repository's
own program generators and corpus; the ``fuzz`` inputs are drawn from
``repro.fuzz.generator.typed_programs()`` under the run's seed.  Every
fixed program's expected ``main`` value lives in ``expected.json``, made
by the λpure reference interpreter (``record_expected.py``), never by the
compiler under test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark: program files, pycache, results, traces.
WORK = HERE / ".work"
EXPECTED_PATH = HERE / "expected.json"

#: Candidates drawn per fuzz run, and the source sizes (characters) the
#: selected programs are matched to.  Generated programs vary tenfold in
#: size and matrix time follows size, so a batch matched to one fixed size
#: profile does the same amount of work under every seed, while the seed
#: still decides which programs run.  The profile spans the middle of the
#: generator's size distribution: a wider one leaves few programs near the
#: median, and the median latency would then move with the seed.
FUZZ_CANDIDATES = 160
FUZZ_TARGET_CHARS = tuple(250 + i * 600 // 31 for i in range(32))

Program = Tuple[str, str]


def small_programs() -> List[Program]:
    """``(id, source)`` of the cli/compile set: the regression suite, the
    corpus seeds and the nine benchmarks at the default tier."""
    from repro.eval.benchmarks import benchmark_sources
    from repro.eval.testsuite import regression_programs

    programs = [("suite/" + p.name, p.source) for p in regression_programs()]
    for path in sorted((ROOT / "tests" / "corpus").glob("*.lean")):
        programs.append(("corpus/" + path.stem, path.read_text(encoding="utf-8")))
    programs += [("bench/" + n, s) for n, s in benchmark_sources().items()]
    return _unique(programs)


def benchmark_programs(tier: str) -> List[Program]:
    """``(id, source)`` of the nine benchmarks at one size tier."""
    from repro.eval.benchmarks import SIZE_TIERS, benchmark_sources

    prefix = "bench/" if tier == "default" else tier + "/"
    return [(prefix + n, s) for n, s in benchmark_sources(SIZE_TIERS[tier]).items()]


def recorded_programs() -> List[Program]:
    """Every fixed program whose value ``expected.json`` records."""
    return small_programs() + benchmark_programs("xlarge")


def _unique(programs: List[Program]) -> List[Program]:
    ids = [pid for pid, _ in programs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate program ids in the benchmark input set")
    return programs


def canonical(value) -> object:
    """A value in the form it takes in ``expected.json`` (tuples -> lists)."""
    return json.loads(json.dumps(value))


def load_expected() -> Dict[str, object]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["values"]


def reference_values(programs: List[Program]) -> Dict[str, object]:
    """Expected ``main`` values from the λpure reference interpreter."""
    from repro.backend.pipeline import run_reference

    return {pid: canonical(run_reference(source)) for pid, source in programs}


def draw_fuzz_candidates(seed: int, count: int = FUZZ_CANDIDATES) -> List[str]:
    """Printed sources of ``count`` programs drawn under ``seed``, the way
    ``python -m repro.fuzz`` draws one seeded batch."""
    from hypothesis import HealthCheck, given, seed as hypothesis_seed, settings

    from repro.fuzz.generator import typed_programs
    from repro.lean.printer import print_program

    drawn: List[str] = []

    @hypothesis_seed(seed)
    @settings(
        max_examples=count,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        print_blob=False,
    )
    @given(program=typed_programs())
    def collect(program):
        drawn.append(print_program(program))

    collect()
    return sorted(set(drawn))


def select_fuzz_programs(
    candidates: List[str], targets=FUZZ_TARGET_CHARS
) -> List[Program]:
    """Match each target size with the closest unused candidate."""
    pool = list(candidates)
    if len(pool) < len(targets):
        raise ValueError("too few fuzz candidates for the size profile")
    chosen = []
    for index, target in enumerate(targets):
        best = min(pool, key=lambda source: (abs(len(source) - target), source))
        pool.remove(best)
        chosen.append((f"fuzz/{index:02d}", best))
    return chosen
