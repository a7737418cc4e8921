"""Profiles and the Non-Paretian domains.

A profile is a tuple of orderings, one per voter.  Domains are materialized,
deduplicated and canonically indexed (lexicographic over voter orderings) so
that profile indices, and therefore CNF variable numbers, are reproducible
across runs.  Voters are 0-based internally; all user-facing text is 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import orders
from .errors import (
    DomainKindError,
    MembershipError,
    ParameterError,
    SizeCapError,
    TextFormatError,
)
from .orders import Ordering

Profile = tuple[Ordering, ...]

NP = "NP"
NP_STAR = "NP_STAR"
NP_WZ = "NP_WZ"
CUSTOM = "CUSTOM"

DEFAULT_RAW_CAP = 5_000_000


@dataclass(frozen=True)
class Domain:
    """A finite, canonically indexed set of profiles of one shape (n, m)."""

    profiles: tuple[Profile, ...]
    n: int
    m: int
    kind: str = CUSTOM
    wz: tuple[int, int] | None = None
    _index: dict[Profile, int] = field(
        default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self):
        index = {p: i for i, p in enumerate(self.profiles)}
        if len(index) != len(self.profiles):
            raise ParameterError("duplicate profiles in domain")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def __contains__(self, profile: Profile) -> bool:
        return profile in self._index

    def lookup(self, profile: Profile) -> int | None:
        """The index of `profile`, or None when it is not a member."""
        return self._index.get(profile)

    def index_of(self, profile: Profile) -> int:
        try:
            return self._index[profile]
        except KeyError:
            raise MembershipError(
                f"profile {encode_profile(profile)} not in this domain"
            ) from None

    def describe(self) -> str:
        tag = self.kind
        if self.kind == NP_WZ and self.wz is not None:
            letters = orders.letters_for(self.m)
            tag = f"NP_WZ({letters[self.wz[0]]},{letters[self.wz[1]]})"
        return f"{tag}(n={self.n}, m={self.m}, size={len(self)})"


def is_np(profile: Profile) -> bool:
    """True iff no ordered pair of alternatives is Pareto-dominated."""
    m = len(profile[0])
    if len(profile) == 1:
        return m == 1
    rank = orders.rank_table(m)
    rows = [rank[v] for v in profile]
    for a in range(m):
        for b in range(a + 1, m):
            above = {row[a] < row[b] for row in rows}
            if len(above) != 2:
                return False
    return True


def enumerate_np(n: int, m: int) -> Domain:
    """All profiles over (n, m) in which no alternative Pareto-dominates
    another, canonically indexed."""
    if n < 2:
        raise ParameterError(f"need at least 2 voters, got n={n}")
    if m < 1:
        raise ParameterError(f"need at least 1 alternative, got m={m}")
    universe = orders.all_orderings(m)
    raw = len(universe) ** n
    if raw > DEFAULT_RAW_CAP:
        raise SizeCapError(f"(m!)^n = {raw} raw profiles exceeds the cap "
                           f"of {DEFAULT_RAW_CAP}")
    members = tuple(p for p in itertools.product(universe, repeat=n)
                    if is_np(p))
    return Domain(members, n=n, m=m, kind=NP)


def np_star(domain: Domain) -> Domain:
    """The subdomain on which the last two voters agree."""
    if domain.kind != NP:
        raise DomainKindError(f"np_star needs an NP domain, got {domain.kind}")
    if domain.n < 3:
        raise ParameterError("np_star needs n >= 3")
    members = tuple(p for p in domain if p[-2] == p[-1])
    return Domain(members, n=domain.n, m=domain.m, kind=NP_STAR)


def variants(domain: Domain, profile: Profile, voter: int) -> tuple[Profile, ...]:
    """All domain members that differ from `profile` exactly at `voter`
    (0-based), excluding `profile` itself."""
    domain.index_of(profile)
    out = []
    for ordering in orders.all_orderings(domain.m):
        if ordering == profile[voter]:
            continue
        q = profile[:voter] + (ordering,) + profile[voter + 1:]
        if q in domain:
            out.append(q)
    return tuple(out)


def variant_pairs(domain: Domain):
    """Yield (p_index, q_index, voter) for every unordered h-variant pair,
    each exactly once, in canonical order: p_index ascending, then voter,
    then q's ordering at `voter` in `orders.all_orderings` order, keeping
    only q_index > p_index.

    One pass per voter buckets the profiles by what the other voters
    report; a profile's h-variants at that voter are the rest of its
    bucket, which is sorted by the voter's ordering."""
    members = domain.profiles
    # bucket_of[voter][i]: profile i's bucket at `voter`, itself included
    bucket_of: list[list[list[int]]] = []
    for voter in range(domain.n):
        buckets: dict[Profile, list[int]] = {}
        for i, p in enumerate(members):
            buckets.setdefault(p[:voter] + p[voter + 1:], []).append(i)
        row: list = [None] * len(members)  # each profile is in one bucket
        for bucket in buckets.values():
            bucket.sort(key=lambda k: members[k][voter])
            for i in bucket:
                row[i] = bucket
        bucket_of.append(row)
    for i in range(len(members)):
        for voter, row in enumerate(bucket_of):
            for j in row[i]:
                if j > i:
                    yield i, j, voter


def relabel_profile(profile: Profile, perm) -> Profile:
    """Rename alternatives consistently across all voters."""
    return tuple(orders.relabel(v, perm) for v in profile)


def encode_profile(profile: Profile) -> str:
    """Voter orderings as letter strings joined by ``|``."""
    return "|".join(orders.encode_ordering(v) for v in profile)


def decode_profile(text: str, n: int, m: int) -> Profile:
    parts = text.split("|")
    if len(parts) != n:
        raise TextFormatError(
            f"profile text has {len(parts)} voters, expected {n}")
    out = []
    offset = 0
    for part in parts:
        try:
            out.append(orders.decode_ordering(part, m))
        except TextFormatError as exc:
            pos = offset if exc.position is None else offset + exc.position
            raise TextFormatError(str(exc), position=pos) from None
        offset += len(part) + 1
    return tuple(out)


def dump_domain(domain: Domain) -> str:
    """One profile per line; line number - 1 is the canonical index."""
    return "".join(encode_profile(p) + "\n" for p in domain)
