"""Propositional encoding of "a strategy-proof rule with extra properties
exists on this domain", plus DIMACS export.

Variables: one per (profile, alternative) pair, numbered
``index * m + alternative + 1`` over the domain's canonical profile index,
so formulas are reproducible across runs.  The base encoding states that
every profile picks exactly one alternative and that no voter can gain by
switching to any variant; scenario constraints are appended on top.

The encoded base is never held as clauses.  `encode_base` returns a
store whose clauses are the `BaseWalk` of the encoding, which yields
each profile's exactly-one group and each variant pair's clause
template, and two readers walk it: `satcore` writes the clauses straight
into the solver index of the base, and iterating the walk yields them as
tuples, in the same order, to whatever reads the clauses (the export
and the external check).  A run that only solves never iterates it, and
nothing the size of the base outlives a reader.

Scenario clauses are layered on the base, not copied with it: a store
may sit on a plain `base` store, and its clauses are then those of the
base followed by its own, a tuple of clause tuples.  `CnfFormula.extended`
on a plain formula makes the plain store the base of the result; on a
layered one it copies only the clauses above the base.  So every
scenario formula of one domain shares the one encoded base, `satcore`
writes that base once into a read-only index for every session opened
on it (`solver.Session`) and loads the clauses above it one by one, and
`export_dimacs` streams the base, then the clauses above it, straight to
the handle.  A question leaves the process as one formula: an instance's
assumptions become its last clauses, one unit each, by `extended`, and
`export_dimacs`, `satisfies` and the external check read only that
formula.  `add_scenario` records the constraints it layers in the
formula's `constraints`, which is what a decoded witness must satisfy.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import IO, Iterable, Sequence

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


class ClauseStore:
    """Clauses in order: `own`, a tuple of clause tuples, or the
    `BaseWalk` of an encoded base.  A store with a `base` (a plain store,
    shared and never copied) holds the clauses of `base` first, then
    those of `own`.  `index` is left to `solver`, which keeps the core's
    read-only load of a plain store there, so it lives exactly as long as
    the store."""

    __slots__ = ("own", "base", "index")

    def __init__(self, own: "tuple[Clause, ...] | BaseWalk",
                 base: "ClauseStore | None" = None):
        if base is not None and base.base is not None:
            raise ValueError("a store's base must be a plain store")
        self.own = own
        self.base = base
        self.index = None

    @classmethod
    def of(cls, clauses: Iterable[Sequence[int]]) -> "ClauseStore":
        """A plain store holding `clauses` (sequences of nonzero
        literals), with one int object for each literal it holds: a
        scenario layer's long clauses repeat the same variables."""
        ints = {}
        intern = ints.setdefault
        own = tuple([tuple([intern(lit, lit) for lit in clause])
                     for clause in clauses])
        if any(0 in clause for clause in own):
            raise ValueError("literal 0 out of range")
        return cls(own)

    @property
    def walk(self) -> "BaseWalk | None":
        """The walk of an encoded base, which `satcore` writes its index
        from; None for any other store."""
        return self.own if isinstance(self.own, BaseWalk) else None

    def __len__(self) -> int:
        return len(self.own) + (0 if self.base is None else len(self.base))

    def __iter__(self):
        if self.base is None:
            return iter(self.own)
        return chain(self.base.own, self.own)

    def __add__(self, other: "ClauseStore") -> "ClauseStore":
        """`self` followed by the plain store `other`, on the base of
        `self`, or on `self` itself when it is plain: no base is copied."""
        if self.base is None:
            return ClauseStore(other.own, base=self)
        return ClauseStore(self.own + other.own, base=self.base)


@dataclass(frozen=True)
class CnfFormula:
    clauses: ClauseStore
    m: int
    domain_size: int
    # The scenario constraints whose clauses `add_scenario` layered here.
    constraints: tuple["ScenarioConstraint", ...] = ()

    @property
    def num_vars(self) -> int:  # one per (profile, alternative) pair
        return self.domain_size * self.m

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
        """This formula followed by the clauses `extra`, layered on its
        base store rather than copying it; the constraints are kept."""
        return CnfFormula(self.clauses + ClauseStore.of(extra),
                          self.m, self.domain_size, self.constraints)


# A truth value per variable, indexed by variable; entry 0 is unused.
Model = list[bool]


def encode_base(domain: Domain) -> CnfFormula:
    """Exactly-one per profile plus both directions of the
    strategy-proofness constraint for every h-variant pair, as the walk
    of the encoding: nothing is written until a session or a reader of
    the clauses walks it."""
    return CnfFormula(ClauseStore(BaseWalk(domain)), domain.m, len(domain))


class BaseWalk:
    """The base encoding of `domain`, walked once per reader: `satcore`
    writes it into a solver index, and iteration yields its clauses as
    tuples, both in the same order.  `len()` is the clause count, walked
    without writing the clauses on first use and kept from then on.

    Profile i's variables are base + 0 .. base + m - 1, for base =
    i * m + 1 in `groups`; its clauses are the group itself (at least
    one) and, for each (a, b) of `alt_pairs`, -(base + a) -(base + b)
    (at most one).  After every group, `pairs()` yields each variant
    pair's clauses as a template: see there."""

    __slots__ = ("domain", "m", "groups", "alt_pairs", "_count")

    def __init__(self, domain: Domain):
        self.domain = domain
        self.m = m = domain.m
        self.groups = range(1, len(domain) * m + 1, m)
        self.alt_pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        self._count = None

    def pairs(self):
        """Yield (i, j, forward, backward) per h-variant pair of profiles
        i and j, in `profiles.variant_pairs` order.  With neg_i = -(i * m
        + 1) and neg_j likewise, the pair's clauses are neg_i - a, neg_j -
        b for each (a, b) of `forward`, then neg_j - a, neg_i - b for each
        (a, b) of `backward`.  One item per pair, not per clause: the
        readers inline the loop over a template."""
        m = self.m
        # A pair's clauses depend only on the deviating voter's two
        # orderings; each side's template is a list of (a, b) offsets:
        # "this side picks a while the other picks b" is forbidden.
        templates: dict[tuple[Ordering, Ordering], tuple[list, list]] = {}

        def template(p: Ordering, q: Ordering) -> tuple[list, list]:
            rank_p = orders.rank_table(m)[p]
            sides = []
            for ordering, from_j in ((p, False), (q, True)):
                # voter would deviate from this side to the other to
                # trade a for b
                offsets = []
                for pos_b in range(m):
                    for pos_a in range(pos_b + 1, m):
                        a, b = ordering[pos_a], ordering[pos_b]
                        # from j to i, this repeats the i-to-j clause for
                        # (b, a) exactly when p ranks a above b
                        if not from_j or rank_p[b] < rank_p[a]:
                            offsets.append((a, b))
                sides.append(offsets)
            templates[p, q] = tuple(sides)
            return templates[p, q]

        # No clause recurs across pairs: its two variables name the pair.
        members = self.domain.profiles
        for i, j, voter in profiles.variant_pairs(self.domain):
            p, q = members[i][voter], members[j][voter]
            forward, backward = templates.get((p, q)) or template(p, q)
            yield i, j, forward, backward

    def __len__(self) -> int:
        if self._count is None:
            self._count = len(self.groups) * (1 + len(self.alt_pairs)) + sum(
                len(forward) + len(backward)
                for _, _, forward, backward in self.pairs())
        return self._count

    def __iter__(self):
        m = self.m
        alt_pairs = self.alt_pairs
        for base in self.groups:
            yield tuple(range(base, base + m))
            for a, b in alt_pairs:
                yield -base - a, -base - b
        for i, j, forward, backward in self.pairs():
            neg_i, neg_j = -(i * m + 1), -(j * m + 1)
            for a, b in forward:
                yield neg_i - a, neg_j - b
            for a, b in backward:
                yield neg_j - a, neg_i - b


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
    """`f` plus the clauses of each constraint, in order, layered on the
    base store of `f` (the base is never copied), with the constraints
    added to those of `f`."""
    return replace(
        f.extended(clause for c in constraints for clause in c.clauses(f)),
        constraints=f.constraints + constraints)


# -- DIMACS export and model import ---------------------------------------


def export_dimacs(f: CnfFormula, out: IO[str] | None = None) -> str | None:
    """Write `f` in DIMACS to the text handle `out`, a line per clause as
    `f.clauses` yields it.  With no handle, return the text instead."""
    if out is None:
        text = io.StringIO()
        export_dimacs(f, text)
        return text.getvalue()
    out.write(f"p cnf {f.num_vars} {len(f.clauses)}\n")
    # Almost every clause is binary: one f-string each.
    out.writelines(f"{c[0]} {c[1]} 0\n" if len(c) == 2
                   else "".join([f"{lit} " for lit in c]) + "0\n"
                   for c in f.clauses)
    return None


def import_model(text: str, f: CnfFormula) -> Model:
    """Parse solver ``v``-lines into a variable assignment; a variable
    given with both signs is an error."""
    model: list[bool | None] = [False] + [None] * f.num_vars
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line.startswith("v"):
            continue
        for tok in line[1:].split():
            try:
                lit = int(tok)
            except ValueError:
                raise TextFormatError(
                    f"bad model literal {tok!r} at line {lineno}") from None
            if lit == 0:
                continue
            var = abs(lit)
            if not 1 <= var <= f.num_vars:
                raise TextFormatError(f"model literal {lit} out of range")
            if model[var] is None:
                model[var] = lit > 0
            elif model[var] != (lit > 0):
                raise TextFormatError(
                    f"model gives variable {var} both signs")
    missing = model.count(None)
    if missing:
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
    model = [False] * (f.num_vars + 1)
    for i, value in enumerate(rule.table):
        model[f.var(i, value)] = True
    return model


def satisfies(model: Model, f: CnfFormula) -> bool:
    """`model` satisfies every clause of `f`."""
    return all(any(model[abs(lit)] == (lit > 0) for lit in clause)
               for clause in f.clauses)
