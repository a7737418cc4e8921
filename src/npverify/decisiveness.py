"""Decisive-coalition analysis for (mostly two-valued) rules.

The adopted decisiveness test is the strong two-sided form: a coalition is
decisive for `a` against `b` when, at every domain profile where its
members unanimously rank a over b and everyone else unanimously ranks b
over a, the rule picks a.  On restricted domains some coalitions have no
such test profile at all; that outcome is surfaced as `vacuous`, never
silently folded into true.

On a domain of strict orders every profile is the test profile of exactly
one coalition, the voters who rank a over b there.  One pass over the
domain therefore decides every coalition at once: a coalition is decisive
when all its test profiles pick a, and vacuous when it has none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import orders
from .errors import InvalidPairError, SizeCapError
from .rules import Rule

DECISIVE = "decisive"
NOT_DECISIVE = "not"
VACUOUS = "vacuous"

COALITION_CAP = 12


@dataclass(frozen=True)
class Coalition:
    """A nonempty proper subset of the voters (0-based members)."""

    members: frozenset[int]

    def render(self) -> str:
        return "{" + ",".join(str(v + 1) for v in sorted(self.members)) + "}"


def _verdicts(rule: Rule, a: int, b: int) -> dict[frozenset[int], str]:
    """DECISIVE / NOT_DECISIVE for every coalition with a test profile in
    the rule's domain, from one pass; a coalition missing from the result
    is vacuous."""
    if a == b:
        raise InvalidPairError("decisiveness needs two distinct alternatives")
    rank = orders.rank_table(rule.domain.m)
    verdicts: dict[frozenset[int], str] = {}
    for p, value in zip(rule.domain, rule.table):
        members = frozenset(i for i, v in enumerate(p)
                            if rank[v][a] < rank[v][b])
        if verdicts.get(members) != NOT_DECISIVE:
            verdicts[members] = DECISIVE if value == a else NOT_DECISIVE
    return verdicts


def _subset_key(members: frozenset[int]):
    return (len(members), sorted(members))


@dataclass(frozen=True)
class DecisivenessReport:
    pair: tuple[int, int]
    verdicts: tuple[tuple[Coalition, str], ...]  # every proper coalition
    monotone: bool

    @property
    def decisive(self) -> tuple[Coalition, ...]:
        return tuple(c for c, v in self.verdicts if v == DECISIVE)

    @property
    def vacuous(self) -> tuple[Coalition, ...]:
        return tuple(c for c, v in self.verdicts if v == VACUOUS)

    @property
    def minimal(self) -> tuple[Coalition, ...]:
        decided = [c.members for c in self.decisive]
        return tuple(Coalition(c) for c in decided
                     if not any(d < c for d in decided))

    def rows(self, m: int):
        """`(key, value, sentence)` rows for `cli._emit`: the counts, then
        one verdict per coalition."""
        letters = orders.letters_for(m)
        a, b = self.pair
        pair = f"{letters[a]}>{letters[b]}"
        counts = {"decisive": len(self.decisive),
                  "minimal": len(self.minimal), "vacuous": len(self.vacuous)}
        header = ", ".join(f"{count} {key}" for key, count in counts.items())
        rows = [("pair", pair, f"pair {pair}: {header}, "
                 f"monotone={str(self.monotone).lower()}")]
        rows += [(key, count, None) for key, count in counts.items()]
        rows.append(("monotone", self.monotone, None))
        rows += [(c.render(), verdict, f"{c.render()} {pair} : {verdict}")
                 for c, verdict in self.verdicts]
        return rows


def minimal_decisive_families(rule: Rule, a: int,
                              b: int) -> DecisivenessReport:
    """Classify every nonempty proper coalition over the rule's domain,
    extract the minimal-by-inclusion decisive ones and test upward
    monotonicity (vacuous supersets do not falsify it)."""
    n = rule.domain.n
    if n > COALITION_CAP:
        raise SizeCapError(
            f"coalition enumeration capped at n <= {COALITION_CAP}")
    table = _verdicts(rule, a, b)
    verdicts = {members: table.get(members, VACUOUS)
                for size in range(1, n)
                for members in map(frozenset,
                                   itertools.combinations(range(n), size))}
    monotone = not any(
        c < sup and verdicts[sup] == NOT_DECISIVE
        for c, v in verdicts.items() if v == DECISIVE
        for sup in verdicts)
    ordered = sorted(verdicts, key=_subset_key)
    return DecisivenessReport(
        pair=(a, b),
        verdicts=tuple((Coalition(c), verdicts[c]) for c in ordered),
        monotone=monotone)
