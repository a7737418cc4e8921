"""Propositional encoding of "a strategy-proof rule with extra properties
exists on this domain", plus DIMACS export.

Variables: one per (profile, alternative) pair, numbered
``index * m + alternative + 1`` over the domain's canonical profile index,
so formulas are reproducible across runs.  The base encoding states that
every profile picks exactly one alternative and that no voter can gain by
switching to any variant; scenario constraints are appended on top.

A formula's clauses live in one `ClauseStore`: a flat ``array('i')`` of
DIMACS literals in clause order, each clause ended by a 0, as in MiniSat's
clause arena (Een & Sorensson, "An Extensible SAT-solver", SAT 2003).  It
costs 4 bytes a literal where a tuple per clause cost about 130 bytes a
binary clause (NP(4, 3)'s base retains 0.44 MB instead of 4.39 MB under
tracemalloc).  `len()` is the clause count and iteration yields each
clause as a tuple, which is how `satcore` reads every store but the
encoded base.

The encoded base is the one store that starts without its array.
`encode_base` returns the `BaseWalk` of the encoding, which yields each
profile's exactly-one group and each variant pair's clause template, and
two writers read it: `satcore` writes the clauses straight into the
solver index of the base, and `_write_dimacs` writes the array, only when
something reads the literals (export, the external check, iteration,
``==``).  A run that only solves never builds the array, and no index
parses it back.

Scenario clauses are layered on the base, not copied with it: a store
may sit on a plain `base` store, and its clauses are then those of the
base followed by its own.  `CnfFormula.extended` on a plain formula makes
the plain store the base of the result; on a layered one it copies only
the clauses above the base.  So every scenario formula of one domain
shares the one encoded base, `satcore` writes that base once into a
read-only index for every session opened on it (`solver.Session`), and
`export_dimacs` writes the base, then the clauses above it, then one unit
per assumption, straight to the handle.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass, field
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
    """Clauses in order, as one flat ``array('i')`` of DIMACS literals
    with a 0 after each clause; `count` is the number of clauses in
    `lits`.  A store with a `base` (a plain store, shared and never
    copied) holds the clauses of `base` first, then those of `lits`.
    `index` is left to `solver`, which keeps the core's read-only load of
    a plain store there, so it lives exactly as long as the store.

    The store of `encode_base` holds the `walk` of a base encoding
    instead: the walk writes its `lits` on first read, and `satcore`
    writes its index from the walk, never from `lits`.  Its count is
    known once `lits` is written; before that, `count` walks the encoding
    without writing it."""

    __slots__ = ("_lits", "_count", "base", "index", "walk")

    def __init__(self, lits: array, count: int,
                 base: "ClauseStore | None" = None):
        if base is not None and base.base is not None:
            raise ValueError("a store's base must be a plain store")
        self._lits = lits
        self._count = count
        self.base = base
        self.index = None
        self.walk = None

    @classmethod
    def of(cls, clauses: Iterable[Sequence[int]]) -> "ClauseStore":
        """A plain store holding `clauses` (sequences of nonzero
        literals)."""
        lits = array("i")
        count = 0
        for clause in clauses:
            if 0 in clause:
                raise ValueError("literal 0 out of range")
            try:
                lits.extend(clause)
            except OverflowError:
                raise ValueError(
                    f"a literal of {tuple(clause)} is out of range") from None
            lits.append(0)
            count += 1
        return cls(lits, count)

    @property
    def lits(self) -> array:
        if self._lits is None:
            self._lits, self._count = _write_dimacs(self.walk)
        return self._lits

    @property
    def count(self) -> int:
        if self._count is None:
            self._count = self.walk.count()
        return self._count

    def layers(self) -> tuple[array, ...]:
        """The literal arrays in clause order: the base's, then this
        store's own."""
        if self.base is None:
            return (self.lits,)
        return (self.base.lits, self.lits)

    def __len__(self) -> int:
        return self.count + (0 if self.base is None else self.base.count)

    def __iter__(self):
        clause = []
        for lits in self.layers():
            for lit in lits:
                if lit:
                    clause.append(lit)
                else:
                    yield tuple(clause)
                    clause = []

    def __add__(self, other: "ClauseStore") -> "ClauseStore":
        """`self` followed by the plain store `other`, on the base of
        `self`, or on `self` itself when it is plain: no base is copied."""
        if self.base is None:
            return ClauseStore(other.lits, other.count, base=self)
        return ClauseStore(self.lits + other.lits, self.count + other.count,
                           base=self.base)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClauseStore):
            return NotImplemented
        return b"".join(self.layers()) == b"".join(other.layers())


@dataclass(frozen=True)
class CnfFormula:
    clauses: ClauseStore
    m: int
    domain_size: int

    def __post_init__(self):
        # Any other sequence of clauses becomes a store on entry.
        if not isinstance(self.clauses, ClauseStore):
            object.__setattr__(self, "clauses",
                               ClauseStore.of(self.clauses))

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
        base store rather than copying it."""
        return CnfFormula(self.clauses + ClauseStore.of(extra),
                          self.m, self.domain_size)


# A truth value per variable, indexed by variable; entry 0 is unused.
Model = list[bool]

_FLUSH = 1 << 12  # entries of _write_dimacs's literal buffer
_EXPORT_CHUNK = 1 << 16  # literals per write of export_dimacs


def encode_base(domain: Domain) -> CnfFormula:
    """Exactly-one per profile plus both directions of the
    strategy-proofness constraint for every h-variant pair, as the walk
    of the encoding: nothing is written until a session or a reader of
    the literals needs it."""
    store = ClauseStore(None, None)
    store.walk = BaseWalk(domain)
    return CnfFormula(store, domain.m, len(domain))


class BaseWalk:
    """The base encoding of `domain`, walked once per writer: `satcore`
    writes it into a solver index, `_write_dimacs` into a literal array,
    and both write the same clauses in the same order.

    Profile i's variables are base + 0 .. base + m - 1, for base =
    i * m + 1 in `groups`; its clauses are the group itself (at least
    one) and, for each (a, b) of `alt_pairs`, -(base + a) -(base + b)
    (at most one).  After every group, `pairs()` yields each variant
    pair's clauses as a template: see there."""

    __slots__ = ("domain", "m", "groups", "alt_pairs")

    def __init__(self, domain: Domain):
        self.domain = domain
        self.m = m = domain.m
        self.groups = range(1, len(domain) * m + 1, m)
        self.alt_pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]

    def pairs(self):
        """Yield (i, j, forward, backward) per h-variant pair of profiles
        i and j, in `profiles.variant_pairs` order.  With neg_i = -(i * m
        + 1) and neg_j likewise, the pair's clauses are neg_i - a, neg_j -
        b for each (a, b) of `forward`, then neg_j - a, neg_i - b for each
        (a, b) of `backward`.  One item per pair, not per clause: the
        writers inline the loop over a template."""
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

    def count(self) -> int:
        """The number of clauses, walked without writing them."""
        return len(self.groups) * (1 + len(self.alt_pairs)) + sum(
            len(forward) + len(backward)
            for _, _, forward, backward in self.pairs())


def _write_dimacs(walk: BaseWalk) -> tuple[array, int]:
    """The DIMACS writer: the clauses of `walk` as a literal array, and
    their count."""
    m = walk.m
    alt_pairs = walk.alt_pairs
    lits = array("i")
    # Literals gather in `buf` and move to `lits` whenever it passes
    # _FLUSH entries, so they never sit in a list the size of the formula.
    buf: list[int] = []
    for base in walk.groups:
        buf.extend(range(base, base + m))
        buf.append(0)
        for a, b in alt_pairs:
            buf += (-base - a, -base - b, 0)
        if len(buf) > _FLUSH:
            lits.fromlist(buf)
            buf.clear()
    count = len(walk.groups) * (1 + len(alt_pairs))
    for i, j, forward, backward in walk.pairs():
        neg_i, neg_j = -(i * m + 1), -(j * m + 1)
        for a, b in forward:
            buf += (neg_i - a, neg_j - b, 0)
        for a, b in backward:
            buf += (neg_j - a, neg_i - b, 0)
        count += len(forward) + len(backward)
        if len(buf) > _FLUSH:
            lits.fromlist(buf)
            buf.clear()
    lits.fromlist(buf)
    return lits, count


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
    base store of `f`: the base is never copied."""
    return f.extended(clause for c in constraints for clause in c.clauses(f))


# -- DIMACS export and model import ---------------------------------------


def export_dimacs(f: CnfFormula, out: IO[str] | None = None,
                  assumptions: Sequence[int] = ()) -> str | None:
    """Write `f` in DIMACS to the text handle `out`, then one unit clause
    per literal of `assumptions`: each layer of `f.clauses` in turn,
    _EXPORT_CHUNK literals at a time.  With no handle, return the text
    instead."""
    if out is None:
        text = io.StringIO()
        export_dimacs(f, text, assumptions)
        return text.getvalue()
    # The layers first: writing an encoded base's literals also counts
    # them, so the header needs no walk of its own.
    layers = f.clauses.layers()
    out.write(f"p cnf {f.num_vars} {len(f.clauses) + len(assumptions)}\n")
    for lits in layers:
        for start in range(0, len(lits), _EXPORT_CHUNK):
            out.write("".join([f"{lit} " if lit else "0\n"
                               for lit in lits[start:start + _EXPORT_CHUNK]]))
    out.write("".join(f"{lit} 0\n" for lit in assumptions))
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


def satisfies(model: Model, f: CnfFormula,
              assumptions: Sequence[int] = ()) -> bool:
    """`model` satisfies every clause of `f` and every literal of
    `assumptions`."""
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in f.clauses) and all(
        model[abs(lit)] == (lit > 0) for lit in assumptions)
