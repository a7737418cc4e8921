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

from . import orders, profiles, rules
from .errors import InvalidPairError, ParameterError, SizeCapError
from .profiles import Domain
from .rules import Rule

DECISIVE = "decisive"
NOT_DECISIVE = "not"
VACUOUS = "vacuous"

COALITION_CAP = 12


@dataclass(frozen=True)
class Coalition:
    """A nonempty proper subset of the voters (0-based members)."""

    members: frozenset[int]

    @staticmethod
    def of(*voters: int) -> "Coalition":
        return Coalition(frozenset(voters))

    def render(self) -> str:
        return "{" + ",".join(str(v + 1) for v in sorted(self.members)) + "}"


def _verdicts(rule: Rule, domain: Domain, a: int,
              b: int) -> dict[frozenset[int], str]:
    """DECISIVE / NOT_DECISIVE for every coalition with a test profile in
    `domain`, from one pass; a coalition missing from the result is
    vacuous."""
    if a == b:
        raise InvalidPairError("decisiveness needs two distinct alternatives")
    rank = orders.rank_table(domain.m)
    verdicts: dict[frozenset[int], str] = {}
    for p in domain:
        value = rule.evaluate(p)
        members = frozenset(i for i, v in enumerate(p)
                            if rank[v][a] < rank[v][b])
        if verdicts.get(members) != NOT_DECISIVE:
            verdicts[members] = DECISIVE if value == a else NOT_DECISIVE
    return verdicts


def is_decisive(rule: Rule, domain: Domain, coalition: Coalition,
                a: int, b: int) -> str:
    """DECISIVE / NOT_DECISIVE / VACUOUS for `a` against `b`."""
    members = coalition.members
    if not members or not members <= set(range(domain.n)):
        raise ParameterError(
            f"coalition {coalition.render()} is not a nonempty subset "
            f"of the {domain.n} voters")
    return _verdicts(rule, domain, a, b).get(members, VACUOUS)


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

    def render(self, m: int) -> str:
        letters = orders.letters_for(m)
        a, b = self.pair
        pair = f"{letters[a]}>{letters[b]}"
        out = [f"pair {pair}: {len(self.decisive)} decisive, "
               f"{len(self.minimal)} minimal, {len(self.vacuous)} vacuous, "
               f"monotone={str(self.monotone).lower()}"]
        for coalition, verdict in self.verdicts:
            out.append(f"{coalition.render()} {pair} : {verdict}")
        return "\n".join(out)


def minimal_decisive_families(rule: Rule, domain: Domain,
                              a: int, b: int) -> DecisivenessReport:
    """Classify every nonempty proper coalition, extract the
    minimal-by-inclusion decisive ones and test upward monotonicity
    (vacuous supersets do not falsify it)."""
    n = domain.n
    if n > COALITION_CAP:
        raise SizeCapError(
            f"coalition enumeration capped at n <= {COALITION_CAP}")
    table = _verdicts(rule, domain, a, b)
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


@dataclass(frozen=True)
class TransferItem:
    name: str
    hypothesis: bool
    conclusion: str
    holds: bool


@dataclass(frozen=True)
class TransferReport:
    coalition: Coalition
    pair: tuple[int, int]
    items: tuple[TransferItem, ...]

    @property
    def all_hold(self) -> bool:
        return all(item.holds for item in self.items)

    def render(self) -> str:
        lines = [f"transfer check for C={self.coalition.render()}"]
        for item in self.items:
            tag = "ok" if item.holds else "FAIL"
            hyp = "hypothesis holds" if item.hypothesis else "vacuous"
            lines.append(f"  item {item.name}: {hyp}, {item.conclusion} [{tag}]")
        return "\n".join(lines)


def transfer_check(rule: Rule, coalition: Coalition, a: int,
                   b: int) -> TransferReport:
    """Check, for this rule, the four transfer statements between
    decisiveness for the clone-collapsed rule and for the rule restricted
    to the agreeing-last-two-voters subdomain.

    The coalition must sit inside voters 1..n-2.  Vacuous conclusions
    count as non-falsifying (the restricted domain offered no test
    profile) and stay visible in the per-item records.
    """
    source = rule.domain
    n = source.n
    if not coalition.members:
        raise ParameterError("transfer_check needs a nonempty coalition")
    if not coalition.members <= set(range(n - 2)):
        raise ParameterError(
            f"coalition {coalition.render()} must sit inside voters "
            f"1..{n - 2}")
    gstar = rules.clone_collapse(rule)
    # The empty and the full coalition are missing from both tables, so
    # they read as vacuous: their test profile would be Pareto-dominated,
    # and neither NP(n-1, m) nor NP* holds such a profile.
    collapsed = _verdicts(gstar, gstar.domain, a, b)
    restricted = _verdicts(rule, profiles.np_star(source), a, b)

    def smaller_decisive(table, members, joined=frozenset()) -> bool:
        """Some proper subset of `members`, joined with `joined`, is
        decisive in `table`."""
        return any(table.get(frozenset(sub) | joined) == DECISIVE
                   for size in range(len(members))
                   for sub in itertools.combinations(sorted(members), size))

    C = coalition.members
    C_ext = C | {n - 2}  # voter n-1 of the (n-1)-voter collapsed rule
    clones = frozenset({n - 2, n - 1})  # voters n-1 and n of the full rule
    items = []

    hyp1 = collapsed.get(C) == DECISIVE
    con1 = restricted.get(C, VACUOUS)
    items.append(TransferItem("1 (decisiveness transfers)", hyp1, con1,
                              holds=not hyp1 or con1 != NOT_DECISIVE))

    hyp2 = hyp1 and not smaller_decisive(collapsed, C)
    con2_ok = not hyp2 or (con1 != NOT_DECISIVE
                           and not smaller_decisive(restricted, C))
    items.append(TransferItem("2 (minimality transfers)", hyp2,
                              "holds" if con2_ok else "fails", con2_ok))

    hyp3 = collapsed.get(C_ext) == DECISIVE
    con3 = restricted.get(C | clones, VACUOUS)
    items.append(TransferItem("3 (clone pair transfers)", hyp3, con3,
                              holds=not hyp3 or con3 != NOT_DECISIVE))

    hyp4 = hyp3 and not smaller_decisive(collapsed, C_ext)
    con4_ok = not hyp4 or not smaller_decisive(restricted, C, clones)
    items.append(TransferItem("4 (no smaller clone pair)", hyp4,
                              "holds" if con4_ok else "fails", con4_ok))

    return TransferReport(coalition=coalition, pair=(a, b),
                          items=tuple(items))
