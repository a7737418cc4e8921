"""Timing spans around npverify's public functions, for the traced run.

`install(tracer)` rebinds module attributes (`profiles.variant_pairs`,
`collapse.sigma_total`, the solver classes, ...) to wrappers that record a
span per call and count work at the same boundary; the returned function
restores the originals.  Only the traced process installs them.

A span is (name, parent, start, end, busy).  `busy` equals end - start,
except for generators: they are timed while consumed, one `next()` at a
time, so their busy time excludes the consumer's work between items.  A
span's self time is its busy time minus the busy time of its children.
Hot helpers called millions of times (`sigma_total`, `orders.between`) are
counted, not spanned.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter

from npverify import (
    cnf, collapse, orders, profiles, rules, satcore, solver, strategyproof,
    verify,
)

_NAME, _PARENT, _START, _END, _BUSY, _CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0, 0.0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def leave(self, idx: int) -> None:
        span = self.spans[idx]
        span[_END] = time.perf_counter()
        busy = span[_END] - span[_START]
        span[_BUSY] = busy
        self.stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += busy

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: total busy time (spans nested in a span of the
        same name are not counted twice), self time, and call count."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span[_NAME],
                                 {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            parent = span[_PARENT]
            if parent < 0 or self.spans[parent][_NAME] != span[_NAME]:
                row["total_s"] += span[_BUSY]
            row["self_s"] += span[_BUSY] - span[_CHILD]
            row["calls"] += 1
        return out

    def dump(self) -> list[list]:
        return [s[:_CHILD] for s in self.spans]

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(idx)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def consumed(self, name: str, fn):
        """Wrap a generator function: one span per generator, busy only
        inside `next()` and charged to whichever span is consuming it,
        each item counted under `name`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            # The body starts at the first next(), so the parent is the
            # first consumer.
            parent = self.stack[-1] if self.stack else -1
            span = [name, parent, time.perf_counter(), 0.0, 0.0, 0.0]
            self.spans.append(span)
            idx = len(self.spans) - 1
            while True:
                self.stack.append(idx)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    self.stack.pop()
                    span[_END] = end
                    span[_BUSY] += end - start
                    if self.stack:
                        self.spans[self.stack[-1]][_CHILD] += end - start
                self.counts[name] += 1
                yield item
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


# -- what each boundary counts ------------------------------------------------

def _domain_size(tracer, args, domain):
    tracer.note_max("profiles.domain_size", len(domain))


def _base_clauses(tracer, args, formula):
    tracer.note_max("cnf.base_clauses", len(formula.clauses))


def _clauses_built(tracer, args, result):
    tracer.counts["cnf.clauses_built"] += len(args[0].clauses)


def _traced_solver_class(tracer: Tracer, cls):
    """A stand-in for solver class `cls` of either backend: construction
    (clause loading) is spanned as `satcore.load` and `solve()` as
    `satcore.solve`, and the clauses loaded and the search counters are
    counted.  The compiled class's methods cannot be rebound, so both
    backends are wrapped from outside."""
    class TracedSolver:
        def __init__(self, num_vars, clauses, *args, **kwargs):
            idx = tracer.enter("satcore.load")
            try:
                self._inner = cls(num_vars, clauses, *args, **kwargs)
            finally:
                tracer.leave(idx)
            tracer.counts["satcore.clauses_loaded"] += len(clauses)

        def solve(self):
            idx = tracer.enter("satcore.solve")
            try:
                status = self._inner.solve()
            finally:
                tracer.leave(idx)
            tracer.counts.update({f"satcore.{k}": v
                                  for k, v in self._inner.stats().items()})
            return status

        def __getattr__(self, name):
            return getattr(self._inner, name)

    return TracedSolver


def _steps(tracer, args, result):
    tracer.counts["collapse.steps"] += len(result.steps)


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a function restoring them."""
    patches = [
        (profiles, "enumerate_np",
         tracer.spanned("profiles.enumerate", profiles.enumerate_np,
                        _domain_size)),
        (profiles, "np_star",
         tracer.spanned("profiles.enumerate", profiles.np_star)),
        (profiles, "variant_pairs",
         tracer.consumed("profiles.variant_pairs", profiles.variant_pairs)),
        (cnf, "encode_base",
         tracer.spanned("cnf.encode", cnf.encode_base, _base_clauses)),
        (cnf, "add_scenario",
         tracer.spanned("cnf.constrain", cnf.add_scenario)),
        (cnf.CnfFormula, "extended",
         tracer.spanned("cnf.constrain", cnf.CnfFormula.extended)),
        (cnf, "decode_model",
         tracer.spanned("cnf.decode", cnf.decode_model)),
        (satcore, "Solver", _traced_solver_class(tracer, satcore.Solver)),
        (solver, "solve_formula",
         tracer.spanned("solver", solver.solve_formula, _clauses_built)),
        (solver, "solve_external",
         tracer.spanned("solver.external", solver.solve_external)),
        (strategyproof, "find_manipulation",
         tracer.spanned("strategyproof.oracle",
                        strategyproof.find_manipulation)),
        (verify, "run_scenario",
         tracer.spanned("verify", verify.run_scenario)),
        (collapse, "collapse_rule",
         tracer.spanned("collapse.collapse_rule", collapse.collapse_rule)),
        (collapse, "reduce_to_contiguous",
         tracer.spanned("collapse.descent", collapse.reduce_to_contiguous,
                        _steps)),
        (collapse, "sigma_total",
         tracer.counted("collapse.sigma_calls", collapse.sigma_total)),
        (collapse, "sigma",
         tracer.counted("collapse.sigma_calls", collapse.sigma)),
        (orders, "between",
         tracer.counted("orders.between_calls", orders.between)),
        (rules, "range_of",
         tracer.spanned("rules.range_of", rules.range_of)),
    ]
    if solver._satcore is not None:
        # The compiled backend is built: `solver.default_backend()` picks it.
        patches.append((solver, "_satcore", types.SimpleNamespace(
            Solver=_traced_solver_class(tracer, solver._satcore.Solver))))
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)

    def restore():
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, except trace.overhead_frac."""
    layers = tracer.layers()
    counts = tracer.counts

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def own(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    base = tracer.maxima.get("cnf.base_clauses", 0)
    loaded = counts["satcore.clauses_loaded"]
    return {
        "profiles.enumerate_s": total("profiles.enumerate"),
        "profiles.domain_size": tracer.maxima.get("profiles.domain_size", 0),
        "profiles.variant_pairs_s": total("profiles.variant_pairs"),
        "profiles.variant_pairs": counts["profiles.variant_pairs"],
        "cnf.encode_s": total("cnf.encode"),
        "cnf.base_clauses": base,
        "cnf.constrain_s": total("cnf.constrain"),
        "cnf.clauses_built": counts["cnf.clauses_built"],
        "satcore.loads": calls("satcore.load"),
        "satcore.load_s": total("satcore.load"),
        "satcore.clauses_loaded": loaded,
        "satcore.reload_ratio": loaded / base if base else 0.0,
        "satcore.solve_s": total("satcore.solve"),
        "satcore.propagations": counts["satcore.propagations"],
        "satcore.conflicts": counts["satcore.conflicts"],
        "satcore.decisions": counts["satcore.decisions"],
        "satcore.learned": counts["satcore.learned"],
        "solver.self_s": own("solver"),
        "solver.external_checks": calls("solver.external"),
        "solver.external_s": total("solver.external"),
        "cnf.decode_s": total("cnf.decode"),
        "strategyproof.oracle_s": total("strategyproof.oracle"),
        "strategyproof.witnesses": calls("strategyproof.oracle"),
        "verify.self_s": own("verify"),
        "collapse.collapse_rule_s": total("collapse.collapse_rule"),
        "collapse.descent_s": total("collapse.descent"),
        "collapse.descents": calls("collapse.descent"),
        "collapse.steps": counts["collapse.steps"],
        "collapse.sigma_calls": counts["collapse.sigma_calls"],
        "orders.between_calls": counts["orders.between_calls"],
        "rules.range_of_s": total("rules.range_of"),
    }
