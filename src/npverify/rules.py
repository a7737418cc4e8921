"""Social choice rules over a materialized domain.

A rule is total on its domain and is represented either extensionally (a
table aligned with the canonical domain index) or intensionally (dictator,
constant, the two-valued n>3 rule of `example1`, or a collapse of another
rule).  Intensional rules can always be materialized to a table, and the two
forms must agree pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import orders, profiles
from .errors import (
    InvalidAlternativeError,
    MembershipError,
    ParameterError,
    TextFormatError,
)
from .profiles import Domain, Profile


@dataclass(frozen=True)
class RangeReport:
    """Alternatives a rule attains on a domain, with one witness each."""

    attained: frozenset[int]
    witnesses: dict[int, int]  # alternative -> profile index in the queried domain


@dataclass(frozen=True)
class DictatorReport:
    """Least voter whose top-of-range is always chosen.  `degenerate` marks
    the vacuous singleton-range case, reported as voter 0 by convention."""

    voter: int
    degenerate: bool = False


class Rule:
    """A total map from a domain's profiles to alternatives."""

    def __init__(self, domain: Domain, table, label: str = "table"):
        if len(table) != len(domain):
            raise ParameterError(
                f"table has {len(table)} entries for a domain of {len(domain)}")
        for value in table:
            if not 0 <= value < domain.m:
                raise InvalidAlternativeError(f"table entry {value} out of range")
        self.domain = domain
        self.table = tuple(table)
        self.label = label

    def evaluate(self, profile: Profile) -> int:
        return self.table[self.domain.index_of(profile)]

    def __eq__(self, other):
        return (isinstance(other, Rule)
                and self.domain.profiles == other.domain.profiles
                and self.table == other.table)

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"Rule({self.label}, {self.domain.describe()})"


def from_function(domain: Domain, fn, label: str) -> Rule:
    """Materialize an intensional definition into a table rule."""
    return Rule(domain, tuple(fn(p) for p in domain), label=label)


def dictator(domain: Domain, voter: int) -> Rule:
    """Voter's top alternative is always chosen (full-range on NP)."""
    if not 0 <= voter < domain.n:
        raise ParameterError(f"voter {voter + 1} out of range 1..{domain.n}")
    return from_function(domain, lambda p: p[voter][0], label=f"dictator({voter + 1})")


def constant(domain: Domain, alt: int) -> Rule:
    if not 0 <= alt < domain.m:
        raise InvalidAlternativeError(f"alternative {alt} out of range")
    letter = orders.letters_for(domain.m)[alt]
    return from_function(domain, lambda p: alt, label=f"constant({letter})")


def example1_choice(profile: Profile) -> int:
    """Two-valued choice: y (=1) iff everyone among voters 1..n-2 and at
    least one of the last two voters ranks y above x (=0); else x."""
    head = profile[:-2]
    tail = profile[-2:]
    y_over_x = all(orders.ranks_above(v, 1, 0) for v in head)
    if y_over_x and any(orders.ranks_above(v, 1, 0) for v in tail):
        return 1
    return 0


def example1(domain: Domain) -> Rule:
    if domain.n <= 3:
        raise ParameterError("example1 is defined for n > 3 only")
    if domain.m != 3:
        raise ParameterError("example1 needs m = 3")
    return from_function(domain, example1_choice, label="example1")


def builtin(name: str, domain: Domain) -> Rule:
    """Construct a built-in rule from a CLI-style name like ``dictator:2``
    or ``constant:x`` (voters 1-based, alternatives by letter)."""
    head, _, arg = name.partition(":")
    if head == "dictator":
        try:
            voter = int(arg)
        except ValueError:
            raise ParameterError(
                f"dictator needs a voter number, got {arg!r}") from None
        return dictator(domain, voter - 1)
    if head == "constant":
        return constant(domain, orders.decode_letter(arg, domain.m))
    if head == "example1":
        return example1(domain)
    raise ParameterError(f"unknown builtin rule {name!r}")


def range_of(rule: Rule, domain: Domain | None = None) -> RangeReport:
    """Attained alternatives over `domain` (default: the rule's own domain),
    with the lowest-index witness profile for each."""
    domain = rule.domain if domain is None else domain
    witnesses: dict[int, int] = {}
    for i, p in enumerate(domain):
        value = rule.evaluate(p)
        if value not in witnesses:
            witnesses[value] = i
    return RangeReport(frozenset(witnesses), witnesses)


def is_dictatorial(rule: Rule) -> DictatorReport | None:
    """Least voter i such that the rule always picks the range's top element
    under p(i); a singleton range makes every voter qualify vacuously and is
    flagged as degenerate."""
    domain = rule.domain
    rng = sorted(range_of(rule).attained)
    if len(rng) == 1:
        return DictatorReport(voter=0, degenerate=True)
    for voter in range(domain.n):
        if all(rule.evaluate(p) == _top_of(p[voter], rng) for p in domain):
            return DictatorReport(voter=voter)
    return None


def _top_of(ordering, alts) -> int:
    best = min(alts, key=ordering.index)
    return best


def clone_collapse(rule: Rule) -> Rule:
    """The (n-1)-voter rule on NP(n-1, m) obtained by duplicating the last
    voter.

    Every lifted profile lands in NP(n, m): duplicating a voter cannot
    create a unanimous pair that was not already unanimous.
    """
    source = rule.domain
    if source.n < 3:
        raise ParameterError("clone_collapse needs n >= 3")
    target = profiles.enumerate_np(source.n - 1, source.m)

    def collapsed(p: Profile) -> int:
        lifted = p + (p[-1],)
        return rule.evaluate(lifted)

    return from_function(target, collapsed, label=f"clone_collapse[{rule.label}]")


def dump_rule(rule: Rule) -> str:
    """Rule-table file: a header, then one ``profile -> letter`` line per
    domain member in canonical order."""
    letters = orders.letters_for(rule.domain.m)
    lines = [f"n={rule.domain.n} m={rule.domain.m} kind={rule.domain.kind}"]
    for p, value in zip(rule.domain, rule.table):
        lines.append(f"{profiles.encode_profile(p)} -> {letters[value]}")
    return "\n".join(lines) + "\n"


def load_rule(text: str, domain: Domain) -> Rule:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TextFormatError("empty rule file")
    try:
        header = dict(item.split("=", 1) for item in lines[0].split())
        shape = (int(header.get("n", -1)), int(header.get("m", -1)))
    except ValueError:
        raise TextFormatError(f"malformed rule header {lines[0]!r}") from None
    if shape != (domain.n, domain.m):
        raise TextFormatError(
            f"rule file header {lines[0]!r} does not match domain "
            f"(n={domain.n}, m={domain.m})")
    table: list[int | None] = [None] * len(domain)
    for line in lines[1:]:
        try:
            enc, letter = line.split(" -> ")
        except ValueError:
            raise TextFormatError(f"malformed rule line {line!r}") from None
        profile = profiles.decode_profile(enc, domain.n, domain.m)
        if profile not in domain:
            raise MembershipError(f"unknown profile in rule file: {enc}")
        index = domain.index_of(profile)
        if table[index] is not None:
            raise TextFormatError(f"profile {enc} listed twice in rule file")
        table[index] = orders.decode_letter(letter, domain.m)
    missing = table.count(None)
    if missing:
        raise TextFormatError(f"rule file leaves {missing} profiles unassigned")
    return Rule(domain, table, label="file")
