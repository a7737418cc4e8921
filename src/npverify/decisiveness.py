"""Decisive-coalition analysis for (mostly two-valued) rules.

The adopted decisiveness test is the strong two-sided form: a coalition is
decisive for `a` against `b` when, at every domain profile where its
members unanimously rank a over b and everyone else unanimously ranks b
over a, the rule picks a.  On restricted domains some coalitions have no
such test profile at all; that outcome is surfaced as `vacuous`, never
silently folded into true.
"""

from __future__ import annotations

import itertools
import warnings
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


def is_decisive(rule: Rule, domain: Domain, coalition: Coalition,
                a: int, b: int) -> str:
    """DECISIVE / NOT_DECISIVE / VACUOUS for `a` against `b`."""
    if a == b:
        raise InvalidPairError("decisiveness needs two distinct alternatives")
    members = coalition.members
    if not members or not members <= set(range(domain.n)):
        raise ParameterError(
            f"coalition {coalition.render()} is not a nonempty subset "
            f"of the {domain.n} voters")
    # the full coalition has no two-sided test profile on a domain that
    # excludes unanimity; it falls out as vacuous below
    attained = rules.range_of(rule, domain).attained
    if not attained <= {a, b}:
        warnings.warn(
            f"rule range {sorted(attained)} is not contained in the tested "
            f"pair ({a}, {b}); decisiveness is intended for two-valued rules",
            stacklevel=2)
    found = False
    for p in domain:
        if all(orders.ranks_above(p[i], a, b) if i in members
               else orders.ranks_above(p[i], b, a)
               for i in range(domain.n)):
            found = True
            if rule.evaluate(p) != a:
                return NOT_DECISIVE
    return DECISIVE if found else VACUOUS


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
    verdicts: dict[frozenset[int], str] = {}
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            members = frozenset(combo)
            verdicts[members] = is_decisive(rule, domain, Coalition(members),
                                            a, b)
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
    star = profiles.np_star(source)
    gstar = rules.clone_collapse(rule)

    def dec(r: Rule, d: Domain, members: frozenset[int]) -> str:
        if not members or not members < set(range(d.n)):
            return VACUOUS  # no proper-coalition test exists
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return is_decisive(r, d, Coalition(members), a, b)

    def minimally(r: Rule, d: Domain, members: frozenset[int]) -> bool:
        if dec(r, d, members) != DECISIVE:
            return False
        return not any(
            dec(r, d, frozenset(sub)) == DECISIVE
            for size in range(1, len(members))
            for sub in itertools.combinations(sorted(members), size))

    C = coalition.members
    items = []

    hyp1 = dec(gstar, gstar.domain, C) == DECISIVE
    con1 = dec(rule, star, C)
    items.append(TransferItem("1 (decisiveness transfers)", hyp1, con1,
                              holds=not hyp1 or con1 != NOT_DECISIVE))

    hyp2 = minimally(gstar, gstar.domain, C)
    con2_ok = (not hyp2) or (
        dec(rule, star, C) != NOT_DECISIVE
        and not any(dec(rule, star, frozenset(sub)) == DECISIVE
                    for size in range(1, len(C))
                    for sub in itertools.combinations(sorted(C), size)))
    items.append(TransferItem("2 (minimality transfers)", hyp2,
                              "holds" if con2_ok else "fails", con2_ok))

    C_ext = C | {n - 2}          # voter n-1 of the (n-1)-voter collapsed rule
    C_full = C | {n - 2, n - 1}  # voters n-1 and n of the full rule
    hyp3 = dec(gstar, gstar.domain, C_ext) == DECISIVE
    con3 = dec(rule, star, C_full)
    items.append(TransferItem("3 (clone pair transfers)", hyp3, con3,
                              holds=not hyp3 or con3 != NOT_DECISIVE))

    hyp4 = minimally(gstar, gstar.domain, C_ext)
    con4_ok = (not hyp4) or not any(
        dec(rule, star, frozenset(sub) | {n - 2, n - 1}) == DECISIVE
        for size in range(0, len(C))
        for sub in itertools.combinations(sorted(C), size))
    items.append(TransferItem("4 (no smaller clone pair)", hyp4,
                              "holds" if con4_ok else "fails", con4_ok))

    return TransferReport(coalition=coalition, pair=(a, b),
                          items=tuple(items))
