"""The benchmark's workloads and the expected results that gate them.

Every workload is a closed loop: one client making sequential calls into
the public API of npverify in this process.  A pass is one traversal of a
workload's items; `run_pass(k)` runs pass k and checks each result against
the hand-written table below, never against npverify's own expectations.

The workload seed reaches the program only as inputs: the solver's
branching seed for the SAT workloads, the visiting order of the profiles
for the descent.  Pass k of a run derives its own seed from the workload
seed and k, so a run is reproducible and its passes differ.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from dataclasses import dataclass, field

from npverify import collapse, rules, verify

# (scenario, n) -> (verdict, instances, domain size).  Hand-written from the
# paper's theorems and the domain counts; not read from npverify.
EXPECTED = {
    ("gs_np", 4): ("UNSAT", 1, 906),
    ("sanity_sat", 4): ("SAT", 1, 906),
    ("nrange_part1", 4): ("UNSAT", 1, 906),
    ("nrange_full", 4): ("UNSAT", 3, 906),
    ("nrange_part2", 4): ("UNSAT", 1, 906),
    ("example1_exists", 4): ("SAT", 1, 906),
    ("lemma4_3", 4): ("UNSAT", 526, 906),
    ("lemma4_4", 4): ("UNSAT", 4, 906),
    ("lemma4_5", 4): ("UNSAT", 1, 906),
}

# Criterion 6: both dictators over every fused pair of NP(3, 4).
DESCENT_DOMAIN = (3, 4)
DESCENT_DOMAIN_SIZE = 3624
DESCENT_VOTERS = (0, 2)
DESCENT_PAIRS = tuple(itertools.permutations(range(4), 2))


def pass_seed(seed: int, k: int) -> int:
    """Nonzero branching seed for pass k (the solver ignores seed 0)."""
    return random.Random(f"npverify-bench:{seed}:{k}").randrange(1, 2**31)


def reset_caches() -> None:
    """Drop npverify's memoised domains and encodings, so the next call
    pays enumeration and encoding as a fresh `npverify scenario run` does."""
    for obj in vars(verify).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    gc.collect()


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    item_s: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


@dataclass(frozen=True)
class ScenarioSet:
    """Catalogue scenarios run through `verify.run_scenario` at one n.

    With `cold_each`, the caches are dropped before every scenario, as one
    CLI invocation per scenario would see them; otherwise once per pass, as
    the acceptance suite runs the lemma sweeps in one process.
    """

    n: int
    scenarios: tuple[str, ...]
    cold_each: bool

    def setup(self) -> list[verify.Scenario]:
        return [verify.scenario(name, self.n) for name in self.scenarios]

    def run_pass(self, seed: int, k: int) -> PassResult:
        result = PassResult()
        branch = pass_seed(seed, k)
        for i, scn in enumerate(self.setup()):
            if self.cold_each or i == 0:
                reset_caches()
            verdict, count, size = EXPECTED[(scn.name, self.n)]
            result.attempted += count
            start = time.perf_counter()
            try:
                report = verify.run_scenario(scn, seed=branch,
                                             differential=False)
            except Exception as exc:  # any raised error is a failed item
                result.wall_s += time.perf_counter() - start
                result.fail(count, f"{scn.name}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            result.wall_s += elapsed
            result.item_s[scn.name] = elapsed
            problem = _check_report(report, verdict, count, size)
            if problem:
                result.fail(count, f"{scn.name} (seed {branch}): {problem}")
        return result


def _check_report(report: verify.Report, verdict: str, count: int,
                  size: int) -> str | None:
    got = (report.outcome, len(report.instances), report.domain_size)
    if got != (verdict, count, size):
        return f"got {got}, expected {(verdict, count, size)}"
    if not report.expectation_met:
        return "expectation not met"
    if verdict == "SAT" and any(r.witness is None for r in report.instances
                                if r.outcome == "SAT"):
        return "SAT instance without a verified witness"
    return None


@dataclass(frozen=True)
class Descent:
    """Acceptance criterion 6: collapse both dictators over every fused
    pair of NP(3, 4) and walk every profile down to the contiguous
    subdomain, sigma strictly decreasing to 0."""

    def setup(self) -> None:
        return None

    def run_pass(self, seed: int, k: int) -> PassResult:
        result = PassResult()
        rng = random.Random(pass_seed(seed, k))
        reset_caches()
        start = time.perf_counter()
        source = verify.np_domain(*DESCENT_DOMAIN)
        if len(source) != DESCENT_DOMAIN_SIZE:
            result.fail(len(DESCENT_PAIRS) * len(DESCENT_VOTERS)
                        * DESCENT_DOMAIN_SIZE,
                        f"NP(3,4) has {len(source)} profiles")
            result.wall_s = time.perf_counter() - start
            return result
        order = list(source)
        for w, z in DESCENT_PAIRS:
            spec = collapse.make_spec(source, w, z)
            for voter in DESCENT_VOTERS:
                rng.shuffle(order)
                result.attempted += len(order)
                _descend_all(result, source, spec, voter, order)
        result.wall_s = time.perf_counter() - start
        return result


def _descend_all(result: PassResult, source, spec, voter: int,
                 order) -> None:
    where = f"wz=({spec.w},{spec.z}) voter={voter}"
    rule = rules.dictator(source, voter)
    collapsed, report = collapse.collapse_rule(rule, spec)
    if not report.ok:
        result.fail(len(order), f"collapse not well defined at {where}")
        return
    if rules.range_of(collapsed).attained != frozenset(range(3)):
        result.fail(len(order), f"collapsed range not full at {where}")
        return
    for r in order:
        try:
            descent = collapse.reduce_to_contiguous(rule, r, spec)
        except Exception as exc:  # any raised error is a failed item
            result.fail(1, f"{where}: {type(exc).__name__}: {exc}")
            continue
        sigmas = [step.sigma for step in descent.steps]
        if (not descent.ok or sigmas[-1] != 0
                or any(a <= b for a, b in zip(sigmas, sigmas[1:]))):
            result.fail(1, f"{where}: descent failed, sigmas {sigmas}")


WORKLOADS = {
    # Search dominates (gs_np, nrange_full); the only workload whose SAT
    # witnesses reach decoding and the manipulation oracle.
    "catalogue_n4": ScenarioSet(
        n=4, cold_each=True,
        scenarios=("gs_np", "sanity_sat", "nrange_part1", "nrange_full",
                   "nrange_part2", "example1_exists", "lemma4_4",
                   "lemma4_5")),
    # 531 reloads of one 34k-clause base, no decisions: clause loading
    # dominates.
    "lemma_sweep": ScenarioSet(
        n=4, cold_each=False,
        scenarios=("lemma4_3", "lemma4_4", "lemma4_5")),
    # collapse and orders only; no SAT at all.
    "collapse_descent": Descent(),
}
