"""The benchmark's tracer (`perfbench/spans.py`) rebinds npverify names by
attribute, and its runner asks `solver.default_backend()`.  A renamed or
removed name would otherwise fail only the benchmark, so the suite binds
and restores them here."""

import importlib.util
from pathlib import Path

from npverify import cnf, profiles, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_tracer_binds_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (profiles.enumerate_np, cnf.add_scenario,
                 cnf.CnfFormula.extended)
    restore = spans.install(spans.Tracer())
    try:
        assert profiles.enumerate_np is not originals[0]
    finally:
        restore()
    assert (profiles.enumerate_np, cnf.add_scenario,
            cnf.CnfFormula.extended) == originals
    assert solver.default_backend() in (solver.PURE, solver.COMPILED)
