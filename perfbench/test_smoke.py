"""Smoke test of the whole benchmark on small inputs.

Checks that every metric ``BENCHMARK.json`` names is emitted, that the
expected-values record matches the reference interpreter, and that the
staged (traced) pipeline reproduces the real compiles and fuzz matrix.
Run with ``python -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from programs import benchmark_programs, load_expected, reference_values, small_programs  # noqa: E402

SMOKE_PROGRAMS = 6


class SmokeCli(workloads.CliWorkload):
    min_ops = 1

    def setup(self):
        super().setup()
        self.items = self.items[:SMOKE_PROGRAMS]


class SmokeCompile(workloads.CompileWorkload):
    def setup(self):
        super().setup()
        keep = set(list(self.sources)[:SMOKE_PROGRAMS])
        self.items = [item for item in self.items if item[0] in keep]


class SmokeExec(workloads.ExecWorkload):
    tier = "default"


class SmokeFuzz(workloads.FuzzWorkload):
    candidates = 30
    targets = (150, 400, 700)


SMOKE = {"cli": SmokeCli, "compile": SmokeCompile, "exec": SmokeExec, "fuzz": SmokeFuzz}


def _benchmark_json():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == workloads.PER_LAYER


def test_expected_record_matches_reference():
    programs = small_programs() + benchmark_programs("default")
    recorded = load_expected()
    assert reference_values(programs) == {pid: recorded[pid] for pid, _ in programs}


@pytest.mark.parametrize("name", list(SMOKE))
def test_end_to_end_metrics(name):
    outcome = run.measure(SMOKE[name](seed=7), 0, run.Clock())
    assert outcome["failures"] == []
    assert set(outcome["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value, _ in outcome["metrics"].values())


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_split_matches_real_pipeline(name, tmp_path):
    outcome = run.traced(SMOKE[name](seed=7), tmp_path, name)
    # Staged-vs-real mismatches and wrong values are failures.
    assert outcome["failures"] == []
    assert set(outcome["metrics"]) == set(workloads.PER_LAYER)
    values = {key: value for key, (value, _) in outcome["metrics"].items()}
    assert values["ir.cfg_ops"] > 0 and values["gen_cost"] > 0
    if name == "fuzz":
        assert values["fuzz.configs_per_program"] > 0
