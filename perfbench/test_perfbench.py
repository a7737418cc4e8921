"""Tests of the benchmark itself: the tracer, the correctness gate and the
seed's effect.  Run with `python3 -m pytest perfbench -q` from the repo
root."""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from npverify import profiles, satcore, solver  # noqa: E402

GS_NP = workloads.ScenarioSet(n=4, scenarios=("gs_np",), cold_each=True)


def _traced_counters(workload, seed):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        result = workload.run_pass(seed, 0)
    finally:
        restore()
    assert result.failed == 0, result.errors
    return {name: value for name, value in spans.layer_metrics(tracer).items()
            if not name.endswith("_s")}


def test_same_seed_same_counters_and_seed_reaches_solver():
    first = _traced_counters(GS_NP, 7)
    assert first["satcore.loads"] == 1
    assert first["satcore.propagations"] > 0
    assert _traced_counters(GS_NP, 7) == first
    other = _traced_counters(GS_NP, 8)
    assert other["satcore.propagations"] != first["satcore.propagations"]


def test_compiled_backend_is_traced(monkeypatch):
    class Compiled(satcore.Solver):
        """Stands in for the compiled class, which takes the same
        positional arguments."""

    pure = _traced_counters(GS_NP, 7)
    monkeypatch.delenv("NPVERIFY_SOLVER", raising=False)
    monkeypatch.setattr(solver, "_satcore",
                        types.SimpleNamespace(Solver=Compiled))
    assert solver.default_backend() == solver.COMPILED
    assert _traced_counters(GS_NP, 7) == pure
    assert solver._satcore.Solver is Compiled


def test_descent_counters_repeat():
    descent = workloads.WORKLOADS["collapse_descent"]
    first = _traced_counters(descent, 3)
    assert first["collapse.descents"] == 86976
    assert first["collapse.steps"] == 241584
    assert _traced_counters(descent, 3) == first


def test_install_restores_the_originals():
    original = profiles.variant_pairs
    restore = spans.install(spans.Tracer())
    assert profiles.variant_pairs is not original
    restore()
    assert profiles.variant_pairs is original


def test_generator_timed_while_consumed():
    def slow_items():
        for i in range(3):
            time.sleep(0.01)
            yield i

    tracer = spans.Tracer()
    wrapped = tracer.consumed("gen", slow_items)
    outer = tracer.enter("outer")
    for _ in wrapped():
        time.sleep(0.02)
    tracer.leave(outer)
    layers = tracer.layers()
    assert tracer.counts["gen"] == 3
    assert 0.03 <= layers["gen"]["total_s"] < 0.05
    assert 0.06 <= layers["outer"]["self_s"] < 0.09
    assert layers["outer"]["total_s"] >= 0.09


def test_wrong_expectation_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED, ("sanity_sat", 4),
                        ("UNSAT", 1, 906))
    sanity = workloads.ScenarioSet(n=4, scenarios=("sanity_sat",),
                                   cold_each=True)
    result = sanity.run_pass(1, 0)
    assert result.attempted == 1
    assert result.failed == 1


def _run_command(cwd):
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return subprocess.run(
        [sys.executable, *command[1:], "--workload", "catalogue_n4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_result_line_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_command(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in spec["end_to_end"]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_command(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
