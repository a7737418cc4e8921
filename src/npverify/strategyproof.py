"""Manipulation detection and strategy-proofness certification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import orders, profiles
from .profiles import Domain, Profile
from .rules import Rule


@dataclass(frozen=True)
class ManipulationWitness:
    """Voter `voter` gains at profile `at` by reporting as in `via`."""

    at: int
    via: int
    voter: int
    outcome_at: int
    outcome_via: int

    def render(self, domain: Domain) -> str:
        letters = orders.letters_for(domain.m)
        return (f"voter {self.voter + 1} manipulates at "
                f"{profiles.encode_profile(domain.profiles[self.at])} via "
                f"{profiles.encode_profile(domain.profiles[self.via])}: "
                f"g={letters[self.outcome_at]} -> g={letters[self.outcome_via]}")


def find_manipulation(rule: Rule) -> ManipulationWitness | None:
    """First manipulation in canonical order (lowest profile index, then
    voter, then variant), or None iff the rule is strategy-proof on its
    domain.  Each unordered variant pair is visited once and checked in
    both directions."""
    domain = rule.domain
    table = rule.table
    for i, j, voter in profiles.variant_pairs(domain):
        gi, gj = table[i], table[j]
        if gi == gj:
            continue
        p, q = domain.profiles[i], domain.profiles[j]
        if orders.ranks_above(p[voter], gj, gi):
            return ManipulationWitness(at=i, via=j, voter=voter,
                                       outcome_at=gi, outcome_via=gj)
        if orders.ranks_above(q[voter], gi, gj):
            return ManipulationWitness(at=j, via=i, voter=voter,
                                       outcome_at=gj, outcome_via=gi)
    return None


@dataclass(frozen=True)
class PropagationResult:
    """Candidate alternatives per profile after closing the assignments
    under the two-sided variant constraints."""

    candidates: tuple[frozenset[int], ...]
    contradiction: int | None  # profile index whose candidate set emptied

    @property
    def forced(self) -> dict[int, int]:
        return {i: next(iter(c)) for i, c in enumerate(self.candidates)
                if len(c) == 1}


def forced_value_propagation(domain: Domain,
                             assignments: Mapping[int, int]) -> PropagationResult:
    """Close a partial rule under strategy-proofness between h-variants.

    Works over candidate sets: alternative b survives at q only while some
    candidate a at a variant p keeps the pair (a, b) manipulation-free in
    both directions.  Monotone (candidates only shrink) and idempotent at
    the fixed point; an emptied set is reported as a contradiction, not
    raised.
    """
    m = domain.m
    full = frozenset(range(m))
    cands: list[frozenset[int]] = [full] * len(domain)
    for idx, alt in assignments.items():
        cands[idx] = cands[idx] & {alt}
        if not cands[idx]:
            return PropagationResult(tuple(cands), contradiction=idx)

    neighbours: dict[int, list[tuple[int, int]]] = {}
    for i, j, voter in profiles.variant_pairs(domain):
        neighbours.setdefault(i, []).append((j, voter))
        neighbours.setdefault(j, []).append((i, voter))

    def allowed(a: int, b: int, p: Profile, q: Profile, voter: int) -> bool:
        if a == b:
            return True
        return not (orders.ranks_above(p[voter], b, a)
                    or orders.ranks_above(q[voter], a, b))

    work = list(range(len(domain)))
    in_work = [True] * len(domain)
    while work:
        i = work.pop()
        in_work[i] = False
        p = domain.profiles[i]
        for j, voter in neighbours.get(i, ()):
            q = domain.profiles[j]
            kept = frozenset(
                b for b in cands[j]
                if any(allowed(a, b, p, q, voter) for a in cands[i]))
            if kept != cands[j]:
                cands[j] = kept
                if not kept:
                    return PropagationResult(tuple(cands), contradiction=j)
                if not in_work[j]:
                    work.append(j)
                    in_work[j] = True
    return PropagationResult(tuple(cands), contradiction=None)
