"""Scenario catalogue: the range theorems and lemmas as SAT instances,
the fixed profile lists they quantify over, and the runner that solves,
cross-checks witnesses and reports.

Each scenario expands to one or more CNF instances over the relevant
domain.  An expected-UNSAT scenario passes when every instance is
unsatisfiable (universally quantified lemmas iterate all qualifying
profiles, one instance each; the instances of a sweep are assumptions over
one shared formula, so one solver session answers the whole sweep, and
every formula of a domain layers its scenario clauses on the one encoded
base, whose solver index every session shares);
an expected-SAT scenario passes when some instance has a model, and every
model is decoded and re-checked against the manipulation oracle, the
scenario's own constraints (which the formula carries) and the instance's
assumptions, recomputed from scratch.  A question leaves the process as
one formula: the DIMACS export and the external check both read the
instance's complete formula, its base with one unit clause per assumption
as its last clauses.

A report's verdict and external status are read from its instance records,
which are all that the cache stores; a cache hit builds no instance.
"""

from __future__ import annotations

import errno
import json
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from functools import lru_cache
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


@lru_cache(maxsize=None)
def np_domain(n: int, m: int) -> Domain:
    return profiles.enumerate_np(n, m)


@lru_cache(maxsize=None)
def np_star_indices(n: int, m: int) -> tuple[int, ...]:
    base = np_domain(n, m)
    return tuple(base.index_of(p) for p in profiles.np_star(base))


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
    `base` is the encoded base of the domain with the scenario clauses
    layered on top, never a copy of the base; instances of one sweep share
    the same `base` object, whose `constraints` are what a decoded witness
    must satisfy."""

    tag: str
    base: cnf.CnfFormula
    assumptions: tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int  # the catalogue entry holds the default voter count
    expected: str | None  # "SAT", "UNSAT", or None for exploratory
    description: str
    recipe: Recipe = field(compare=False, repr=False)
    m: int = 3

    def instances(self) -> list[Instance]:
        """The scenario's CNF instances, in solve order."""
        return self.recipe(self)

    def domain(self) -> Domain:
        return np_domain(self.n, self.m)


Recipe = Callable[[Scenario], list[Instance]]


@lru_cache(maxsize=None)
def _encoded_base(n: int, m: int) -> cnf.CnfFormula:
    return cnf.encode_base(np_domain(n, m))


def _all_indices(scn: Scenario) -> tuple[int, ...]:
    return tuple(range(len(scn.domain())))


def _full_range(scn: Scenario) -> list[cnf.ScenarioConstraint]:
    idx = _all_indices(scn)
    return [cnf.Attains(a, idx) for a in range(scn.m)]


def _constrained(scn: Scenario, tag: str,
                 constraints: Iterable[cnf.ScenarioConstraint]) -> Instance:
    """The base with `constraints` added as clauses, in order."""
    return Instance(tag=tag,
                    base=cnf.add_scenario(_encoded_base(scn.n, scn.m),
                                          *constraints),
                    assumptions=())


def _single(tag: str, constraints) -> Recipe:
    """A one-instance scenario: `constraints(scn, star, every)` gives its
    constraints, where `star` indexes NP* and `every` the whole domain."""
    def recipe(scn: Scenario) -> list[Instance]:
        star = np_star_indices(scn.n, scn.m)
        return [_constrained(scn, tag,
                             constraints(scn, star, _all_indices(scn)))]
    return recipe


def _nrange_full(scn: Scenario) -> list[Instance]:
    # Three formulas, not one shared base with an assumption per NP*
    # profile: as assumptions the exclusions are not level-0 facts, and the
    # search more than triples (80 -> 261 conflicts at n=4, no seed).
    star = np_star_indices(scn.n, scn.m)
    alts = frozenset(range(scn.m))
    return [_constrained(scn, f"never-{'xyz'[alt]}-on-star",
                         _full_range(scn)
                         + [cnf.RangeSubset(alts - {alt}, star)])
            for alt in range(scn.m)]


def _sweep(qualifies, alt: int, sign: int) -> Recipe:
    """One instance per profile where some head voter's ordering
    `qualifies`, over the base with range {x} on NP*, assuming the profile
    picks `alt` (sign 1) or does not (sign -1); all must be UNSAT."""
    def recipe(scn: Scenario) -> list[Instance]:
        star = np_star_indices(scn.n, scn.m)
        range_x = cnf.RangeSubset(frozenset({X}), star)
        base = cnf.add_scenario(_encoded_base(scn.n, scn.m), range_x)
        head = range(scn.n - 2)
        out = [Instance(tag=f"u={profiles.encode_profile(p)}", base=base,
                        assumptions=(sign * base.var(i, alt),))
               for i, p in enumerate(scn.domain())
               if any(qualifies(p[v]) for v in head)]
        if not out:
            raise ScenarioError(f"no qualifying profile for {scn.name}")
        return out
    return recipe


def _carries_x(triples: tuple[tuple[str, str, str], ...]) -> Recipe:
    """For each (tag, fixed, target) of the twelve-profile list: x at
    `fixed` but not at `target`, as assumptions over the plain base."""
    def recipe(scn: Scenario) -> list[Instance]:
        lists = build_list_part2(scn.n)
        domain = scn.domain()
        base = _encoded_base(scn.n, scn.m)
        out = []
        for tag, fixed, target in triples:
            i = domain.index_of(lists[fixed])
            k = domain.index_of(lists[target])
            out.append(Instance(tag=tag, base=base,
                                assumptions=(base.var(i, X), -base.var(k, X))))
        return out
    return recipe


_CATALOGUE: dict[str, Scenario] = {scn.name: scn for scn in (
    Scenario(
        "gs_np", 3, "UNSAT",
        "no strategy-proof full-range rule avoids dictatorship",
        _single("gs", lambda scn, star, every: _full_range(scn) + [
            cnf.NotDictator(v, scn.domain()) for v in range(scn.n)])),
    Scenario(
        "sanity_sat", 3, "SAT",
        "strategy-proof full-range rules exist (dictators)",
        _single("full-range", lambda scn, star, every: _full_range(scn))),
    Scenario(
        "nrange_part1", 3, "UNSAT",
        "two-alternative range on the agreeing subdomain excludes full range",
        _single("range-yz", lambda scn, star, every: [
            cnf.RangeSubset(frozenset({Y, Z}), star),
            cnf.Attains(Y, star),
            cnf.Attains(Z, star),
            cnf.Attains(X, every)])),
    Scenario(
        "nrange_part2", 4, "UNSAT",
        "one-alternative range on the agreeing subdomain excludes full range",
        _single("range-x", lambda scn, star, every: [
            cnf.RangeSubset(frozenset({X}), star),
            cnf.Attains(Y, every),
            cnf.Attains(Z, every)])),
    Scenario(
        "nrange_full", 3, "UNSAT",
        "full range passes down to the agreeing subdomain",
        _nrange_full),
    Scenario(
        "example1_exists", 4, "SAT",
        "a two-valued rule collapsing to one value on the agreeing "
        "subdomain exists",
        _single("two-valued", lambda scn, star, every: [
            cnf.RangeSubset(frozenset({X}), star),
            cnf.Attains(Y, every)])),
    Scenario(
        "lemma4_2", 4, "UNSAT", "a head voter with x on top forces x",
        _sweep(lambda ordering: ordering[0] == X, X, -1)),
    Scenario(
        "lemma4_3", 4, "UNSAT",
        "y is never chosen while a head voter has y at bottom",
        _sweep(lambda ordering: ordering[-1] == Y, Y, 1)),
    Scenario(
        "lemma4_4", 4, "UNSAT",
        "x carries from each double-starred to its starred profile",
        _carries_x(tuple((f"j={j}", f"L{j}**", f"L{j}*")
                         for j in (1, 2, 3, 4)))),
    Scenario(
        "lemma4_5", 4, "UNSAT", "x carries from L3** to L2**",
        _carries_x((("L3**->L2**", "L3**", "L2**"),))),
)}


def scenario(name: str, n: int | None = None) -> Scenario:
    if name not in _CATALOGUE:
        raise ScenarioError(
            f"unknown scenario {name!r}; "
            f"known: {', '.join(sorted(_CATALOGUE))}")
    entry = _CATALOGUE[name]
    n = entry.n if n is None else n
    if n < 3:
        # The theorems assume n >= 3; on NP(2, 3) a non-dictatorial
        # strategy-proof rule exists, so gs_np would report a false
        # counterexample.
        raise ParameterError(
            f"scenario {name!r} needs n >= 3 voters, got n={n}")
    if name == "example1_exists" and n <= 3:
        # Stated for n > 3 only; run and record.
        return replace(entry, n=n, expected=None)
    return replace(entry, n=n)


def list_scenarios() -> list[Scenario]:
    return [_CATALOGUE[name] for name in sorted(_CATALOGUE)]


# -- runner ------------------------------------------------------------------


# The statuses each check records: "oracle" is "ok" for a verified witness;
# "external" agrees, disagrees or says why the external solver did not run.
_STATUSES = {"oracle": ("ok",),
             "external": ("agree", "disagree", "not requested", "not found")}


@dataclass
class InstanceResult:
    tag: str
    outcome: str  # "SAT" / "UNSAT"
    stats: dict[str, int] = field(default_factory=dict)
    witness: Rule | None = None
    # check name -> one of its _STATUSES; cached with the report
    checks: dict[str, str] = field(default_factory=dict)


@dataclass
class Report:
    scenario: Scenario
    instances: list[InstanceResult]
    domain_size: int
    wall_time: float
    cached: bool = False

    @property
    def outcome(self) -> str:  # "SAT" / "UNSAT" / "MIXED"
        outcomes = {r.outcome for r in self.instances}
        return outcomes.pop() if len(outcomes) == 1 else "MIXED"

    @property
    def expectation_met(self) -> bool | None:
        """None for an exploratory scenario; False whenever the external
        solver disagreed on some instance."""
        if "disagree" in {r.checks["external"] for r in self.instances}:
            return False
        expected = self.scenario.expected
        return None if expected is None else self.outcome == expected

    @property
    def external(self) -> str:
        """"agree k/n" when the external solver re-checked the instances,
        else "skipped(not requested)" or "skipped(not found)"."""
        checks = [r.checks["external"] for r in self.instances]
        if checks[0] in ("not requested", "not found"):
            return f"skipped({checks[0]})"
        return f"agree {checks.count('agree')}/{len(checks)}"

    def rows(self):
        """`(key, value, sentence)` rows for `cli._emit`: the eleven keyed
        facts, and a header sentence, a counter sentence and one sentence
        per instance of interest."""
        scn = self.scenario
        status = ("ok" if self.expectation_met
                  else "recorded" if self.expectation_met is None
                  else "EXPECTATION VIOLATED")
        header = (f"scenario {scn.name} (n={scn.n}, m={scn.m}): "
                  f"{self.outcome} expected={scn.expected or 'none'} "
                  f"[{status}] instances={len(self.instances)}"
                  f" domain={self.domain_size} time={self.wall_time:.2f}s"
                  + (" (cached)" if self.cached else ""))
        rows = [("scenario", scn.name, header), ("n", scn.n, None),
                ("m", scn.m, None), ("outcome", self.outcome, None),
                ("expected", scn.expected, None),
                ("expectation_met", self.expectation_met, None),
                ("instances", len(self.instances), None),
                ("domain_size", self.domain_size, None),
                ("wall_time", round(self.wall_time, 3), None),
                ("cached", self.cached, None)]
        conflicts = sum(r.stats.get("conflicts", 0) for r in self.instances)
        decisions = sum(r.stats.get("decisions", 0) for r in self.instances)
        rows.append((None, None,
                     f"  conflicts={conflicts} decisions={decisions}"))
        for r in self.instances:
            if r.outcome == "SAT" and r.checks.get("oracle") == "ok":
                rows.append((None, None,
                             f"  instance {r.tag}: SAT, witness verified"))
            elif len(self.instances) <= 8:
                rows.append((None, None, f"  instance {r.tag}: {r.outcome}"))
        rows.append(("external", self.external, f"  external={self.external}"))
        return rows


def _verify_witness(instance: Instance, model: cnf.Model,
                    domain: Domain) -> Rule:
    rule = cnf.decode_model(model, instance.base, domain)
    witness = strategyproof.find_manipulation(rule)
    if witness is not None:
        raise ContractError(
            f"decoded witness is manipulable: {witness.render(domain)}")
    for constraint in instance.base.constraints:
        if not constraint.check(rule):
            raise ContractError(
                f"decoded witness violates scenario constraint {constraint}")
    for lit in instance.assumptions:
        i, alt = instance.base.profile_alt(abs(lit))
        if (rule.table[i] == alt) != (lit > 0):
            raise ContractError(
                f"decoded witness violates assumption {lit}")
    return rule


def run_scenario(scn: Scenario | str, *, seed: int | None = None,
                 differential: bool | None = None,
                 export_dimacs: str | None = None,
                 cache_dir: str | None = None) -> Report:
    """Build, solve and cross-check one scenario; a name runs at the
    scenario's default n, and `scenario(name, n)` at another.

    differential: None = use the external solver when one is discoverable,
    True = require it, False = skip it.
    """
    if isinstance(scn, str):
        scn = scenario(scn)
    start = time.monotonic()
    external, external_check = None, "not requested"
    if differential is not False:
        external = solver.find_external_solver()
        if differential is True and external is None:
            raise ScenarioError(
                "differential check requested but no external solver found; "
                "build tools/extsolver or set NPVERIFY_EXT_SOLVER")
        external_check = "not found" if external is None else "run"
    if export_dimacs:
        # Checked before solving, so a path that cannot take the file, in
        # a missing directory or naming a directory, fails at once.
        export_path = Path(export_dimacs)
        if not export_path.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "no such directory",
                                    str(export_path.parent))
        if export_path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "is a directory",
                                    export_dimacs)
    # A cached report answers only the same external check by the same
    # solver, and never an export, which must write its files.
    cache_path = None
    if cache_dir is not None:
        # Made before solving, so an unusable directory fails at once.
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        cache_path = _cache_path(cache_dir, scn, seed, external_check,
                                 external)
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
        if export_dimacs or external is not None:
            # The question as it leaves the process: one formula whose
            # last clauses are the assumptions.
            formula = instance.base.extended(
                (lit,) for lit in instance.assumptions)
        if export_dimacs:
            path = export_path
            if idx > 0:
                path = path.with_name(f"{path.stem}-{idx:04d}{path.suffix}")
            with path.open("w") as fh:
                cnf.export_dimacs(formula, fh)
        if external is None:
            check = external_check
        else:
            sat = solver.solve_external(formula, external)
            if sat and not res.status:
                raise ContractError(
                    f"external solver found {instance.tag} SAT where the "
                    "built-in solver reported UNSAT")
            check = "agree" if sat == res.status else "disagree"
        record = InstanceResult(tag=instance.tag,
                                outcome="SAT" if res.status else "UNSAT",
                                stats=res.stats, checks={"external": check})
        if res.status:
            record.witness = _verify_witness(instance, res.model, domain)
            record.checks["oracle"] = "ok"
        results.append(record)

    report = Report(scenario=scn, instances=results, domain_size=len(domain),
                    wall_time=time.monotonic() - start)
    if cache_path is not None:
        _cache_store(cache_path, report)
    return report


def enumerate_models(scn: Scenario | str, k: int) -> list[Rule]:
    """Up to k distinct satisfying rules of a (single-instance) scenario,
    each blocked after extraction and oracle-verified."""
    if isinstance(scn, str):
        scn = scenario(scn)
    instances = scn.instances()
    if len(instances) != 1:
        raise ScenarioError("model enumeration works on single-instance "
                            "scenarios")
    instance = instances[0]
    domain = scn.domain()
    base = instance.base
    session = solver.Session(base)
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

# The Report fields a cache file holds; `instances` as (tag, outcome,
# stats, checks) lists, from which a cached report reads its verdict.
_CACHED_FIELDS = ("instances", "domain_size", "wall_time")


def _cache_path(cache_dir: str, scn: Scenario, seed: int | None,
                external_check: str, external: str | None) -> Path:
    """Keyed on exactly the inputs of a report's records: the source bytes
    of every module of the package, which fix every formula, tag and
    assumption; the scenario's name, n and m; the seed; the external
    check; and, when the check runs, the bytes of the external solver.
    No formula is read, so a hit builds none."""
    # Imported here, the one place that hashes: hashlib loads OpenSSL,
    # about 3.6 MB resident that a run without a cache never uses.
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.name}|{len(source)}|".encode())
        digest.update(source)
    # The core ignores seed 0, so it shares the unseeded key.
    digest.update(f"{scn.name}|{scn.n}|{scn.m}|{seed or None}|"
                  f"{external_check}".encode())
    if external is not None:
        digest.update(b"|" + Path(external).read_bytes())
    return Path(cache_dir) / f"{scn.name}-{digest.hexdigest()[:16]}.json"


def _cache_load(path: Path, scn: Scenario) -> Report | None:
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        fields = {key: data[key] for key in _CACHED_FIELDS}
        fields["instances"] = [
            InstanceResult(tag=t, outcome=o, stats=dict(s), checks=dict(c))
            for t, o, s, c in fields["instances"]]
        if type(fields["domain_size"]) is not int or type(
                fields["wall_time"]) not in (int, float):
            raise ValueError("a domain size or wall time of the wrong type")
        if not fields["instances"] or any(
                type(r.tag) is not str or r.outcome not in ("SAT", "UNSAT")
                or "external" not in r.checks
                or any(type(key) is not str or type(value) is not int
                       for key, value in r.stats.items())
                or any(status not in _STATUSES.get(check, ())
                       for check, status in r.checks.items())
                for r in fields["instances"]):
            raise ValueError("no records, or one that no run writes")
        return Report(scenario=scn, cached=True, **fields)
    except (ValueError, KeyError, TypeError) as exc:
        raise TextFormatError(
            f"malformed cache file {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _cache_store(path: Path, report: Report) -> None:
    payload = {key: getattr(report, key) for key in _CACHED_FIELDS}
    payload["instances"] = [(r.tag, r.outcome, r.stats, r.checks)
                            for r in report.instances]
    # Write through a rename, so an interrupted run leaves no partial file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
