"""Scenario catalogue: the range theorems and lemmas as SAT instances,
the fixed profile lists they quantify over, and the runner that solves,
cross-checks witnesses and reports.

Each scenario expands to one or more CNF instances over the relevant
domain.  An expected-UNSAT scenario passes when every instance is
unsatisfiable (universally quantified lemmas iterate all qualifying
profiles, one instance each; the instances of a sweep are assumptions over
one shared base formula, so one solver session answers the whole sweep);
an expected-SAT scenario passes when some instance has a model, and every
model is decoded and re-checked against the manipulation oracle, the
scenario's own constraints and the instance's assumptions, recomputed from
scratch.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

from . import cnf, profiles, solver, strategyproof
from .errors import (
    ContractError,
    ParameterError,
    ScenarioError,
    TextFormatError,
)
from .profiles import Domain, Profile
from .rules import Rule

X, Y, Z = 0, 1, 2

# Part of the cache key: change it whenever the cached payload changes.
_CODE_VERSION = "npverify-0.1.0-cache2"


@lru_cache(maxsize=None)
def np_domain(n: int, m: int) -> Domain:
    return profiles.enumerate_np(n, m)


@lru_cache(maxsize=None)
def np_star_domain(n: int, m: int) -> Domain:
    return profiles.np_star(np_domain(n, m))


def np_star_indices(n: int, m: int) -> tuple[int, ...]:
    base = np_domain(n, m)
    return tuple(base.index_of(p) for p in np_star_domain(n, m))


# -- profile lists ----------------------------------------------------------

_XYZ = (X, Y, Z)
_XZY = (X, Z, Y)
_YXZ = (Y, X, Z)
_YZX = (Y, Z, X)
_ZXY = (Z, X, Y)
_ZYX = (Z, Y, X)


def build_list_part1(n: int) -> dict[str, Profile]:
    """The three profiles feeding the two-alternative range argument."""
    if n < 3:
        raise ParameterError("profile lists need n >= 3")
    mid = n - 3  # voters strictly between the named head and the last two
    lists = {
        "L1": (_XYZ,) * (n - 2) + (_ZYX, _XYZ),
        "L2": (_ZXY,) + (_XZY,) * mid + (_YXZ, _XZY),
        "L3": (_XZY,) * (n - 2) + (_YXZ, _ZXY),
    }
    for name, profile in lists.items():
        if not profiles.is_np(profile):
            raise ContractError(f"list profile {name} left the domain")
    return lists


_SWAP_YZ = (0, 2, 1)


def build_list_part2(n: int) -> dict[str, Profile]:
    """The twelve profiles of the one-alternative range argument: the base
    list, its y/z interchange, and the variant that replaces zyx with yzx
    for the middle block (voters 3..n-2; empty when n = 4)."""
    if n < 4:
        raise ParameterError("the twelve-profile list needs n >= 4")
    mid = n - 4
    base = {
        "L1": (_YXZ, _YXZ) + (_YZX,) * mid + (_YZX, _ZXY),
        "L2": (_ZYX, _YXZ) + (_YZX,) * mid + (_XYZ, _YXZ),
        "L3": (_YZX, _YXZ) + (_YZX,) * mid + (_XZY, _YXZ),
        "L4": (_YXZ, _YXZ) + (_YZX,) * mid + (_XYZ, _ZYX),
    }
    out = dict(base)
    for name, profile in base.items():
        starred = profiles.relabel_profile(profile, _SWAP_YZ)
        out[name + "*"] = starred
        double = tuple(
            _YZX if 2 <= i < n - 2 and v == _ZYX else v
            for i, v in enumerate(starred))
        out[name + "**"] = double
    for name, profile in out.items():
        if not profiles.is_np(profile):
            raise ContractError(f"list profile {name} left the domain")
    return out


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One SAT question: `base` with the literals `assumptions` held true.
    Instances of one sweep share the same `base` object; `constraints`
    are what a decoded witness must satisfy."""

    tag: str
    base: cnf.CnfFormula
    assumptions: tuple[int, ...]
    constraints: tuple[cnf.ScenarioConstraint, ...]

    @cached_property
    def formula(self) -> cnf.CnfFormula:
        """The complete formula: `base` plus one unit clause per
        assumption (for export and the external check)."""
        if not self.assumptions:
            return self.base
        return self.base.extended((lit,) for lit in self.assumptions)


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int
    m: int
    expected: str | None  # "SAT", "UNSAT", or None for exploratory
    description: str

    def instances(self):
        """Iterable of CNF instances (lazy for the big lemma sweeps)."""
        return _BUILDERS[self.name](self)

    def domain(self) -> Domain:
        return np_domain(self.n, self.m)


def _base_formula(scn: Scenario) -> cnf.CnfFormula:
    return _encoded_base(scn.n, scn.m)


@lru_cache(maxsize=None)
def _encoded_base(n: int, m: int) -> cnf.CnfFormula:
    return cnf.encode_base(np_domain(n, m))


def _with(formula: cnf.CnfFormula,
          constraints: list[cnf.ScenarioConstraint],
          tag: str) -> Instance:
    for c in constraints:
        formula = cnf.add_scenario(formula, c)
    return Instance(tag=tag, base=formula, assumptions=(),
                    constraints=tuple(constraints))


def _all_indices(scn: Scenario) -> tuple[int, ...]:
    return tuple(range(len(scn.domain())))


def _full_range(scn: Scenario) -> list[cnf.ScenarioConstraint]:
    idx = _all_indices(scn)
    return [cnf.Attains(a, idx) for a in range(scn.m)]


def _build_gs_np(scn: Scenario) -> list[Instance]:
    domain = scn.domain()
    constraints = _full_range(scn)
    constraints += [cnf.NotDictator(v, frozenset(range(scn.m)), domain)
                    for v in range(scn.n)]
    return [_with(_base_formula(scn), constraints, "gs")]


def _build_sanity_sat(scn: Scenario) -> list[Instance]:
    return [_with(_base_formula(scn), _full_range(scn), "full-range")]


def _build_nrange_part1(scn: Scenario) -> list[Instance]:
    star = np_star_indices(scn.n, scn.m)
    constraints = [
        cnf.RangeSubset(frozenset({Y, Z}), star),
        cnf.Attains(Y, star),
        cnf.Attains(Z, star),
        cnf.Attains(X, _all_indices(scn)),
    ]
    return [_with(_base_formula(scn), constraints, "range-yz")]


def _build_nrange_part2(scn: Scenario) -> list[Instance]:
    star = np_star_indices(scn.n, scn.m)
    idx = _all_indices(scn)
    constraints = [
        cnf.RangeSubset(frozenset({X}), star),
        cnf.Attains(Y, idx),
        cnf.Attains(Z, idx),
    ]
    return [_with(_base_formula(scn), constraints, "range-x")]


def _build_nrange_full(scn: Scenario) -> list[Instance]:
    # Three formulas, not one shared base with an assumption per NP*
    # profile: as assumptions the exclusions are not level-0 facts, and the
    # search more than triples (80 -> 261 conflicts at n=4, no seed).
    star = np_star_indices(scn.n, scn.m)
    letters = "xyz"
    out = []
    for alt in range(scn.m):
        constraints = _full_range(scn) + [cnf.Excludes(alt, star)]
        out.append(_with(_base_formula(scn), constraints,
                         f"never-{letters[alt]}-on-star"))
    return out


def _build_example1_exists(scn: Scenario) -> list[Instance]:
    star = np_star_indices(scn.n, scn.m)
    constraints = [
        cnf.RangeSubset(frozenset({X}), star),
        cnf.Attains(Y, _all_indices(scn)),
    ]
    return [_with(_base_formula(scn), constraints, "two-valued")]


def _build_lemma4_2(scn: Scenario):
    """One instance per qualifying profile (a head voter ranks x on top),
    assuming the profile does not pick x (under exactly-one: it picks y or
    z); all must be UNSAT."""
    domain = scn.domain()
    star = np_star_indices(scn.n, scn.m)
    range_x = cnf.RangeSubset(frozenset({X}), star)
    base = cnf.add_scenario(_base_formula(scn), range_x)
    head = range(scn.n - 2)
    found = False
    for i, p in enumerate(domain):
        if any(p[v][0] == X for v in head):
            found = True
            yield Instance(
                tag=f"u={profiles.encode_profile(p)}", base=base,
                assumptions=(-base.var(i, X),), constraints=(range_x,))
    if not found:
        raise ScenarioError("no qualifying profile for lemma4_2")


def _build_lemma4_3(scn: Scenario):
    """One instance per profile where a head voter ranks y at the bottom,
    asserting y is picked there; all must be UNSAT."""
    domain = scn.domain()
    star = np_star_indices(scn.n, scn.m)
    range_x = cnf.RangeSubset(frozenset({X}), star)
    base = cnf.add_scenario(_base_formula(scn), range_x)
    head = range(scn.n - 2)
    found = False
    for i, p in enumerate(domain):
        if any(p[v][-1] == Y for v in head):
            found = True
            yield Instance(
                tag=f"u={profiles.encode_profile(p)}", base=base,
                assumptions=(base.var(i, Y),),
                constraints=(range_x, cnf.Fix(i, Y)))
    if not found:
        raise ScenarioError("no qualifying profile for lemma4_3")


def _carries_x(scn: Scenario, tag: str, fixed: Profile,
               target: Profile) -> Instance:
    """x at `fixed` but not at `target`, as assumptions over the plain
    base."""
    domain = scn.domain()
    base = _base_formula(scn)
    i, k = domain.index_of(fixed), domain.index_of(target)
    return Instance(tag=tag, base=base,
                    assumptions=(base.var(i, X), -base.var(k, X)),
                    constraints=(cnf.Fix(i, X),))


def _build_lemma4_4(scn: Scenario) -> list[Instance]:
    lists = build_list_part2(scn.n)
    return [_carries_x(scn, f"j={j}", lists[f"L{j}**"], lists[f"L{j}*"])
            for j in (1, 2, 3, 4)]


def _build_lemma4_5(scn: Scenario) -> list[Instance]:
    lists = build_list_part2(scn.n)
    return [_carries_x(scn, "L3**->L2**", lists["L3**"], lists["L2**"])]


_BUILDERS = {
    "gs_np": _build_gs_np,
    "sanity_sat": _build_sanity_sat,
    "nrange_part1": _build_nrange_part1,
    "nrange_part2": _build_nrange_part2,
    "nrange_full": _build_nrange_full,
    "example1_exists": _build_example1_exists,
    "lemma4_2": _build_lemma4_2,
    "lemma4_3": _build_lemma4_3,
    "lemma4_4": _build_lemma4_4,
    "lemma4_5": _build_lemma4_5,
}

_DEFAULT_N = {
    "gs_np": 3,
    "sanity_sat": 3,
    "nrange_part1": 3,
    "nrange_part2": 4,
    "nrange_full": 3,
    "example1_exists": 4,
    "lemma4_2": 4,
    "lemma4_3": 4,
    "lemma4_4": 4,
    "lemma4_5": 4,
}

_EXPECTED = {
    "gs_np": "UNSAT",
    "sanity_sat": "SAT",
    "nrange_part1": "UNSAT",
    "nrange_part2": "UNSAT",
    "nrange_full": "UNSAT",
    "example1_exists": "SAT",
    "lemma4_2": "UNSAT",
    "lemma4_3": "UNSAT",
    "lemma4_4": "UNSAT",
    "lemma4_5": "UNSAT",
}

_DESCRIPTIONS = {
    "gs_np": "no strategy-proof full-range rule avoids dictatorship",
    "sanity_sat": "strategy-proof full-range rules exist (dictators)",
    "nrange_part1": "two-alternative range on the agreeing subdomain "
                    "excludes full range",
    "nrange_part2": "one-alternative range on the agreeing subdomain "
                    "excludes full range",
    "nrange_full": "full range passes down to the agreeing subdomain",
    "example1_exists": "a two-valued rule collapsing to one value on the "
                       "agreeing subdomain exists",
    "lemma4_2": "a head voter with x on top forces x",
    "lemma4_3": "y is never chosen while a head voter has y at bottom",
    "lemma4_4": "x carries from each double-starred to its starred profile",
    "lemma4_5": "x carries from L3** to L2**",
}


def scenario(name: str, n: int | None = None) -> Scenario:
    if name not in _BUILDERS:
        raise ScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_BUILDERS))}")
    n = _DEFAULT_N[name] if n is None else n
    if n < 3:
        # The theorems assume n >= 3; on NP(2, 3) a non-dictatorial
        # strategy-proof rule exists, so gs_np would report a false
        # counterexample.
        raise ParameterError(
            f"scenario {name!r} needs n >= 3 voters, got n={n}")
    expected = _EXPECTED[name]
    if name == "example1_exists" and n <= 3:
        expected = None  # stated for n > 3 only; run and record
    return Scenario(name=name, n=n, m=3, expected=expected,
                    description=_DESCRIPTIONS[name])


def list_scenarios() -> list[Scenario]:
    return [scenario(name) for name in sorted(_BUILDERS)]


# -- runner ------------------------------------------------------------------


@dataclass
class InstanceResult:
    tag: str
    outcome: str  # "SAT" / "UNSAT"
    stats: dict[str, int] = field(default_factory=dict)
    witness: Rule | None = None
    external_agrees: bool | None = None


EXTERNAL_NOT_REQUESTED = "skipped(not requested)"
EXTERNAL_NOT_FOUND = "skipped(not found)"


@dataclass
class Report:
    scenario: Scenario
    outcome: str  # "SAT" / "UNSAT" / "MIXED"
    expectation_met: bool | None
    instances: list[InstanceResult]
    domain_size: int
    wall_time: float
    cached: bool = False
    # Which external check ran: "agree k/n", "skipped(not requested)" or
    # "skipped(not found)".
    external: str = EXTERNAL_NOT_REQUESTED

    def render(self) -> str:
        scn = self.scenario
        status = ("ok" if self.expectation_met
                  else "recorded" if self.expectation_met is None
                  else "EXPECTATION VIOLATED")
        lines = [f"scenario {scn.name} (n={scn.n}, m={scn.m}): "
                 f"{self.outcome} expected={scn.expected or 'none'} [{status}]"
                 f" instances={len(self.instances)}"
                 f" domain={self.domain_size}"
                 f" time={self.wall_time:.2f}s"
                 + (" (cached)" if self.cached else "")]
        conflicts = sum(r.stats.get("conflicts", 0) for r in self.instances)
        decisions = sum(r.stats.get("decisions", 0) for r in self.instances)
        lines.append(f"  conflicts={conflicts} decisions={decisions}")
        for r in self.instances:
            if r.outcome == "SAT" and r.witness is not None:
                lines.append(f"  instance {r.tag}: SAT, witness verified")
            elif len(self.instances) <= 8:
                lines.append(f"  instance {r.tag}: {r.outcome}")
        lines.append(f"  external={self.external}")
        return "\n".join(lines)

    def structured(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "n": self.scenario.n,
            "m": self.scenario.m,
            "outcome": self.outcome,
            "expected": self.scenario.expected,
            "expectation_met": self.expectation_met,
            "instances": len(self.instances),
            "domain_size": self.domain_size,
            "wall_time": round(self.wall_time, 3),
            "cached": self.cached,
            "external": self.external,
        }


def _verify_witness(instance: Instance, model: cnf.Model,
                    domain: Domain) -> Rule:
    rule = cnf.decode_model(model, instance.base, domain)
    witness = strategyproof.find_manipulation(rule)
    if witness is not None:
        raise ContractError(
            f"decoded witness is manipulable: {witness.render(domain)}")
    for constraint in instance.constraints:
        if not constraint.check(rule):
            raise ContractError(
                f"decoded witness violates scenario constraint {constraint}")
    for lit in instance.assumptions:
        i, alt = instance.base.profile_alt(abs(lit))
        if (rule.table[i] == alt) != (lit > 0):
            raise ContractError(
                f"decoded witness violates assumption {lit}")
    return rule


def run_scenario(scn: Scenario | str, n: int | None = None,
                 seed: int | None = None,
                 differential: bool | None = None,
                 export_dimacs: str | None = None,
                 cache_dir: str | None = None) -> Report:
    """Build, solve and cross-check one scenario.

    differential: None = use the external solver when one is discoverable,
    True = require it, False = skip it.
    """
    if isinstance(scn, str):
        scn = scenario(scn, n)
    start = time.monotonic()
    external = None
    if differential is not False:
        external = solver.find_external_solver()
        if differential is True and external is None:
            raise ScenarioError(
                "differential check requested but no external solver found; "
                "build tools/extsolver or set NPVERIFY_EXT_SOLVER")
    if external is not None:
        external_check = "run"
    elif differential is False:
        external_check = EXTERNAL_NOT_REQUESTED
    else:
        external_check = EXTERNAL_NOT_FOUND
    # A cached report stands in only for a run making the same external
    # check, and never for an export, which must write its files.
    cache_path = None
    if cache_dir is not None:
        cache_path = _cache_path(cache_dir, scn, seed, external_check)
        cached = None if export_dimacs else _cache_load(cache_path, scn)
        if cached is not None:
            return cached

    domain = scn.domain()
    results = []
    session = None
    for idx, instance in enumerate(scn.instances()):
        if session is None or session.formula is not instance.base:
            session = None  # free the old core before loading the next
            session = solver.Session(instance.base, seed=seed)
        res = session.solve(instance.assumptions)
        outcome = "SAT" if res.status else "UNSAT"
        record = InstanceResult(tag=instance.tag, outcome=outcome,
                                stats=res.stats)
        if res.status:
            record.witness = _verify_witness(instance, res.model, domain)
        if export_dimacs:
            path = Path(export_dimacs)
            if idx > 0:
                path = path.with_name(f"{path.stem}-{idx:04d}{path.suffix}")
            path.write_text(cnf.export_dimacs(instance.formula))
        if external is not None:
            ext = solver.solve_external(instance.formula, external)
            record.external_agrees = ext.status == res.status
            if ext.status and not res.status:
                raise ContractError(
                    f"external solver found {instance.tag} SAT where the "
                    "built-in solver reported UNSAT")
        results.append(record)

    outcomes = {r.outcome for r in results}
    overall = outcomes.pop() if len(outcomes) == 1 else "MIXED"
    met = None if scn.expected is None else overall == scn.expected
    if any(r.external_agrees is False for r in results):
        met = False
    external_status = external_check
    if external is not None:
        agreed = sum(bool(r.external_agrees) for r in results)
        external_status = f"agree {agreed}/{len(results)}"
    report = Report(scenario=scn, outcome=overall, expectation_met=met,
                    instances=results, domain_size=len(domain),
                    wall_time=time.monotonic() - start,
                    external=external_status)
    if cache_path is not None:
        _cache_store(cache_path, report)
    return report


def enumerate_models(scn: Scenario | str, k: int, n: int | None = None,
                     seed: int | None = None) -> list[Rule]:
    """Up to k distinct satisfying rules of a (single-instance) scenario,
    each blocked after extraction and oracle-verified."""
    if isinstance(scn, str):
        scn = scenario(scn, n)
    instances = list(scn.instances())
    if len(instances) != 1:
        raise ScenarioError("model enumeration works on single-instance "
                            "scenarios")
    instance = instances[0]
    domain = scn.domain()
    base = instance.base
    session = solver.Session(base, seed=seed)
    out: list[Rule] = []
    while len(out) < k:
        res = session.solve(instance.assumptions)
        if not res.status:
            break
        rule = _verify_witness(instance, res.model, domain)
        out.append(rule)
        session.add_clause(
            [-base.var(i, a) for i, a in enumerate(rule.table)])
    return out


# -- result cache ------------------------------------------------------------


def _cache_path(cache_dir: str, scn: Scenario, seed: int | None,
                external_check: str) -> Path:
    digest = hashlib.sha256()
    digest.update(_CODE_VERSION.encode())
    digest.update(f"{scn.name}|{scn.n}|{scn.m}|{scn.expected}|{seed}|"
                  f"{external_check}".encode())
    return Path(cache_dir) / f"{scn.name}-{digest.hexdigest()[:16]}.json"


def _cache_load(path: Path, scn: Scenario) -> Report | None:
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        return Report(
            scenario=scn,
            outcome=data["outcome"],
            expectation_met=data["expectation_met"],
            instances=[InstanceResult(tag=t, outcome=o)
                       for t, o in data["instances"]],
            domain_size=data["domain_size"],
            wall_time=data["wall_time"],
            cached=True,
            external=data["external"])
    except (ValueError, KeyError, TypeError) as exc:
        raise TextFormatError(
            f"malformed cache file {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _cache_store(path: Path, report: Report) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "outcome": report.outcome,
        "expectation_met": report.expectation_met,
        "instances": [(r.tag, r.outcome) for r in report.instances],
        "domain_size": report.domain_size,
        "wall_time": report.wall_time,
        "external": report.external,
    }
    # Write through a rename, so an interrupted run leaves no partial file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
