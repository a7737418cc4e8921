"""Propositional encoding of "a strategy-proof rule with extra properties
exists on this domain", plus DIMACS export.

Variables: one per (profile, alternative) pair, numbered
``index * m + alternative + 1`` over the domain's canonical profile index,
so formulas are reproducible across runs.  The base encoding states that
every profile picks exactly one alternative and that no voter can gain by
switching to any variant; scenario constraints are appended on top.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable

from . import orders, profiles
from .errors import (
    EncodingViolationError,
    ScenarioError,
    TextFormatError,
)
from .orders import Ordering
from .profiles import Domain
from .rules import Rule

Clause = tuple[int, ...]


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[Clause, ...]
    m: int
    domain_size: int

    def var(self, profile_index: int, alt: int) -> int:
        if not (0 <= profile_index < self.domain_size and 0 <= alt < self.m):
            raise EncodingViolationError(
                f"no variable for profile {profile_index}, alternative {alt}")
        return profile_index * self.m + alt + 1

    def profile_alt(self, var: int) -> tuple[int, int]:
        if not 1 <= var <= self.num_vars:
            raise EncodingViolationError(f"variable {var} out of range")
        return (var - 1) // self.m, (var - 1) % self.m

    def extended(self, extra: Iterable[Clause]) -> "CnfFormula":
        return CnfFormula(self.num_vars, self.clauses + tuple(extra),
                          self.m, self.domain_size)


Model = dict[int, bool]


def encode_base(domain: Domain) -> CnfFormula:
    """Exactly-one per profile plus both directions of the
    strategy-proofness constraint for every h-variant pair."""
    m = domain.m
    clauses: list[Clause] = []
    # Profile i's variables are base + 0 .. base + m - 1, base = i * m + 1.
    alt_pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    for base in range(1, len(domain) * m + 1, m):
        clauses.append(tuple(range(base, base + m)))
        clauses.extend([(-base - a, -base - b) for a, b in alt_pairs])

    # A pair's clauses depend only on the deviating voter's two orderings;
    # each side's template is a list of (a, b) offsets: "this side picks a
    # while the other picks b" is forbidden.
    templates: dict[tuple[Ordering, Ordering], tuple[list, list]] = {}

    def template(p: Ordering, q: Ordering) -> tuple[list, list]:
        rank_p = orders.rank_table(m)[p]
        sides = []
        for ordering, from_j in ((p, False), (q, True)):
            # voter would deviate from this side to the other to trade a for b
            offsets = []
            for pos_b in range(m):
                for pos_a in range(pos_b + 1, m):
                    a, b = ordering[pos_a], ordering[pos_b]
                    # from j to i, this repeats the i-to-j clause for (b, a)
                    # exactly when p ranks a above b
                    if not from_j or rank_p[b] < rank_p[a]:
                        offsets.append((a, b))
            sides.append(offsets)
        templates[p, q] = tuple(sides)
        return templates[p, q]

    # No clause recurs across pairs: its two variables name the pair.
    members = domain.profiles
    for i, j, voter in profiles.variant_pairs(domain):
        p, q = members[i][voter], members[j][voter]
        forward, backward = templates.get((p, q)) or template(p, q)
        neg_i, neg_j = -(i * m + 1), -(j * m + 1)
        clauses.extend([(neg_i - a, neg_j - b) for a, b in forward])
        clauses.extend([(neg_j - a, neg_i - b) for a, b in backward])
    return CnfFormula(num_vars=len(domain) * m, clauses=tuple(clauses),
                      m=domain.m, domain_size=len(domain))


# -- scenario constraints -------------------------------------------------


@dataclass(frozen=True)
class Attains:
    """`alt` is selected somewhere among the profile `indices`."""

    alt: int
    indices: tuple[int, ...]

    def clauses(self, f: CnfFormula) -> list[Clause]:
        return [tuple(f.var(i, self.alt) for i in self.indices)]

    def check(self, rule: Rule) -> bool:
        return any(rule.table[i] == self.alt for i in self.indices)


@dataclass(frozen=True)
class RangeSubset:
    """Selections among the profile `indices` stay inside `alts`."""

    alts: frozenset[int]
    indices: tuple[int, ...]

    def clauses(self, f: CnfFormula) -> list[Clause]:
        if not self.alts:
            raise ScenarioError("empty declared range")
        out = []
        for i in self.indices:
            for a in range(f.m):
                if a not in self.alts:
                    out.append((-f.var(i, a),))
        return out

    def check(self, rule: Rule) -> bool:
        return all(rule.table[i] in self.alts for i in self.indices)


@dataclass(frozen=True)
class NotDictator:
    """Some profile selects an alternative other than the voter's top."""

    voter: int
    domain: Domain = field(repr=False, compare=False)

    def clauses(self, f: CnfFormula) -> list[Clause]:
        lits = []
        for i, p in enumerate(self.domain):
            top = p[self.voter][0]
            lits.extend(f.var(i, a) for a in range(f.m) if a != top)
        return [tuple(lits)]

    def check(self, rule: Rule) -> bool:
        return any(rule.table[i] != p[self.voter][0]
                   for i, p in enumerate(self.domain))


ScenarioConstraint = Attains | RangeSubset | NotDictator


def add_scenario(f: CnfFormula,
                 *constraints: ScenarioConstraint) -> CnfFormula:
    """`f` plus the clauses of each constraint, in order: one copy of the
    clause tuple however many constraints there are."""
    return f.extended(clause for c in constraints for clause in c.clauses(f))


# -- DIMACS export and model import ---------------------------------------


def export_dimacs(f: CnfFormula) -> str:
    out = io.StringIO()
    out.write(f"p cnf {f.num_vars} {len(f.clauses)}\n")
    for clause in f.clauses:
        out.write(" ".join(str(lit) for lit in clause))
        out.write(" 0\n")
    return out.getvalue()


def _int_token(tok: str, what: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise TextFormatError(
            f"bad {what} {tok!r} at line {lineno}") from None


def import_model(text: str, f: CnfFormula) -> Model:
    """Parse solver ``v``-lines into a variable assignment."""
    model: Model = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line.startswith("v"):
            continue
        for tok in line[1:].split():
            lit = _int_token(tok, "model literal", lineno)
            if lit == 0:
                continue
            var = abs(lit)
            if not 1 <= var <= f.num_vars:
                raise TextFormatError(f"model literal {lit} out of range")
            model[var] = lit > 0
    if len(model) < f.num_vars:
        missing = f.num_vars - len(model)
        raise TextFormatError(f"model leaves {missing} variables unassigned")
    return model


def decode_model(model: Model, f: CnfFormula, domain: Domain) -> Rule:
    """Read the selected alternative per profile out of a satisfying
    model; a profile with no or several true variables indicates a broken
    solver or model and is rejected."""
    table = []
    for i in range(f.domain_size):
        chosen = [a for a in range(f.m) if model[f.var(i, a)]]
        if len(chosen) != 1:
            raise EncodingViolationError(
                f"profile {i} has {len(chosen)} selected alternatives")
        table.append(chosen[0])
    return Rule(domain, table, label="decoded")


def rule_assignment(rule: Rule, f: CnfFormula) -> Model:
    """The model corresponding to a table rule (for completeness checks)."""
    model: Model = {}
    for i, value in enumerate(rule.table):
        for a in range(f.m):
            model[f.var(i, a)] = a == value
    return model


def satisfies(model: Model, f: CnfFormula) -> bool:
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in f.clauses)
