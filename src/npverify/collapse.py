"""Fusing a contiguous pair of alternatives into one.

Machinery: the subdomain where two chosen alternatives w, z sit adjacent in
every ordering; extension of a reduced profile back to that subdomain; the
collapsed rule (w, z become a single fresh alternative); the per-voter
"how far apart are w and z" statistic sigma; and the sigma-descent that
walks any profile down to the contiguous subdomain without changing the
selected alternative (or, when the winner is w or z itself, keeping the
winner inside {w, z}).

The descent follows a fixed case ladder.  The ladder only proposes
candidate steps; each step is checked once, in `_checked_step` (domain
membership, value condition, strictly smaller sigma), so a wrong branch
can only cause a reported failure, never a wrong result.  A spec holds
the sigma of every source profile, computed once when it is made, and,
by profile index, the checked rest of the descent from every profile
that the rule last descended under it has passed; a descent from a
profile with a known rest is one lookup.  Each profile is searched at
most once per rule: a pass of acceptance criterion 6 (86,976 descents,
154,608 moves) runs 72,288 step searches.  Rank comparisons and bracket sizes are read from
`orders.rank_table`, and the candidate orderings of a bracket move are
memoised per input, so a descent scans no ordering and permutes no
segment more than once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from . import orders, profiles
from .errors import ContractError, InvalidPairError, MembershipError, ParameterError
from .orders import Ordering
from .profiles import Domain, Profile
from .rules import Rule


def sigma(profile: Profile, a: int, b: int) -> tuple[int, ...]:
    """Per-voter counts of alternatives strictly between `a` and `b`."""
    if a == b:
        raise InvalidPairError("sigma needs two distinct alternatives")
    rank = orders.rank_table(len(profile[0]))
    return tuple(abs(rank[v][a] - rank[v][b]) - 1 for v in profile)


def sigma_total(profile: Profile, a: int, b: int) -> int:
    if a == b:
        raise InvalidPairError("sigma needs two distinct alternatives")
    rank = orders.rank_table(len(profile[0]))
    total = 0
    for v in profile:
        rv = rank[v]
        total += abs(rv[a] - rv[b]) - 1
    return total


def contiguous_domain(source: Domain, w: int, z: int) -> Domain:
    """Members of `source` in which w and z are adjacent for every voter."""
    if w == z:
        raise InvalidPairError("contiguous pair must be distinct")
    members = tuple(p for p in source if sigma_total(p, w, z) == 0)
    return Domain(members, n=source.n, m=source.m, kind=profiles.NP_WZ,
                  wz=(w, z))


@dataclass(frozen=True)
class CollapseSpec:
    """Bookkeeping for fusing source alternatives w, z into one fresh
    target alternative.  Kept source alternatives map to target indices in
    increasing order; the fused alternative takes the last target index."""

    w: int
    z: int
    source: Domain
    target: Domain
    x_star: int
    to_target: dict[int, int] = field(compare=False)
    to_source: dict[int, int] = field(compare=False)
    # sigma of (w, z) by source profile index, for every rule
    sigmas: tuple[int, ...] = field(compare=False, repr=False)
    # The ladder of the rule last descended under this spec, with the
    # descent tails it has checked; set and replaced by
    # `reduce_to_contiguous`.
    _descent: _Descent | None = field(default=None, init=False,
                                      compare=False, repr=False)

    def describe(self) -> str:
        src_letters = orders.letters_for(self.source.m)
        tgt_letters = orders.letters_for(self.target.m)
        legend = ", ".join(
            f"{src_letters[s]}->{tgt_letters[t]}"
            for s, t in sorted(self.to_target.items()))
        return (f"collapse {src_letters[self.w]},{src_letters[self.z]} -> "
                f"{tgt_letters[self.x_star]} ({legend})")


def make_spec(source: Domain, w: int, z: int) -> CollapseSpec:
    if w == z:
        raise InvalidPairError("w and z must be distinct")
    if not (0 <= w < source.m and 0 <= z < source.m):
        raise ParameterError("w or z outside the source universe")
    target = profiles.enumerate_np(source.n, source.m - 1)
    kept = sorted(set(range(source.m)) - {w, z})
    to_target = {a: i for i, a in enumerate(kept)}
    to_source = {i: a for a, i in to_target.items()}
    return CollapseSpec(w=w, z=z, source=source, target=target,
                        x_star=source.m - 2, to_target=to_target,
                        to_source=to_source,
                        sigmas=tuple(sigma_total(p, w, z) for p in source))


def collapse_profile(r: Profile, spec: CollapseSpec) -> Profile:
    """Project a contiguous-pair profile onto the target universe: the
    (w, z) block becomes the fused alternative, everything else keeps its
    relative order."""
    if sigma_total(r, spec.w, spec.z) != 0:
        raise MembershipError("profile does not have w and z contiguous")
    out = []
    for voter in r:
        seq = []
        for a in voter:
            if a == spec.z:
                continue
            seq.append(spec.x_star if a == spec.w else spec.to_target[a])
        out.append(tuple(seq))
    return tuple(out)


def extend_profile(p: Profile, spec: CollapseSpec) -> tuple[Profile, ...]:
    """All source-domain profiles that restrict to `p`: the fused
    alternative's slot carries the (w, z) block in either internal order,
    everything else keeps its relative order, and the result must avoid
    Pareto domination.  The block may order differently per voter."""
    spec.target.index_of(p)
    per_voter: list[tuple[Ordering, Ordering]] = []
    for voter in p:
        wz_first = []
        zw_first = []
        for a in voter:
            if a == spec.x_star:
                wz_first.extend((spec.w, spec.z))
                zw_first.extend((spec.z, spec.w))
            else:
                wz_first.append(spec.to_source[a])
                zw_first.append(spec.to_source[a])
        per_voter.append((tuple(wz_first), tuple(zw_first)))
    out = []
    for combo in itertools.product(*per_voter):
        if combo in spec.source:
            out.append(combo)
    return tuple(out)


@dataclass(frozen=True)
class CollapseReport:
    disagreements: tuple[tuple[int, tuple[int, ...]], ...]
    no_extension: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.no_extension


def _check_source(rule: Rule, spec: CollapseSpec) -> None:
    # Identity first: comparing the profiles costs a pass over the domain.
    if (rule.domain is not spec.source
            and rule.domain.profiles != spec.source.profiles):
        raise ParameterError("rule domain does not match the collapse source")


def collapse_rule(rule: Rule, spec: CollapseSpec) -> tuple[Rule | None, CollapseReport]:
    """Evaluate the rule on every extension of every target profile; when
    all extensions agree (after mapping w, z to the fused alternative) the
    collapsed rule is defined there.  Disagreements are reported, not
    raised: their absence is exactly the well-definedness property under
    test."""
    _check_source(rule, spec)
    table = []
    disagreements = []
    missing = []
    for idx, p in enumerate(spec.target):
        exts = extend_profile(p, spec)
        if not exts:
            missing.append(idx)
            table.append(0)
            continue
        values = set()
        for r in exts:
            v = rule.evaluate(r)
            values.add(spec.x_star if v in (spec.w, spec.z)
                       else spec.to_target[v])
        if len(values) != 1:
            disagreements.append((idx, tuple(sorted(values))))
            table.append(0)
        else:
            table.append(values.pop())
    report = CollapseReport(tuple(disagreements), tuple(missing))
    if not report.ok:
        return None, report
    return Rule(spec.target, table, label=f"collapsed[{rule.label}]"), report


# -- Lemma-style bracket moves ---------------------------------------------


@functools.cache
def bracket_moves(ordering: Ordering, a: int, b: int,
                  part: int) -> tuple[Ordering, ...]:
    """Candidate single-voter rearrangements within the (a, b) bracket.

    `a` must rank above `b`.  Positions above a and below b are untouched.
    Part 1 permutes the strict interior together with b, b strictly rising;
    part 2 permutes it together with a, a strictly falling.  Candidates are
    ordered by the moved endpoint's new rank (topmost first), then
    lexicographically, so searches are deterministic.

    Memoised on the arguments: there are m! * m(m-1)/2 * 2 valid keys (288
    at m=4, 2,400 at m=5), and a call that raises is not cached.
    """
    ia, ib = ordering.index(a), ordering.index(b)
    if ia >= ib:
        raise ContractError(f"{a} does not rank above {b} in {ordering!r}")
    if part == 1:
        head, segment, tail = ordering[:ia + 1], ordering[ia + 1:ib + 1], ordering[ib + 1:]
        moved, last_slot = b, len(segment) - 1
        candidates = [perm for perm in itertools.permutations(segment)
                      if perm.index(moved) < last_slot]
        candidates.sort(key=lambda perm: (perm.index(moved), perm))
    elif part == 2:
        head, segment, tail = ordering[:ia], ordering[ia:ib], ordering[ib:]
        moved = a
        candidates = [perm for perm in itertools.permutations(segment)
                      if perm.index(moved) > 0]
        candidates.sort(key=lambda perm: (perm.index(moved), perm))
    else:
        raise ParameterError(f"part must be 1 or 2, got {part}")
    return tuple(head + perm + tail for perm in candidates)


def _with_voter(p: Profile, voter: int, ordering: Ordering) -> Profile:
    return p[:voter] + (ordering,) + p[voter + 1:]


# -- sigma descent ----------------------------------------------------------


# Descent steps and results are named tuples, not frozen dataclasses: a
# criterion-6 pass builds 159,264 steps and 86,976 results, and a frozen
# dataclass sets each field through `object.__setattr__`, which takes about
# twice as long as building the tuple.


class DescentStep(NamedTuple):
    profile: Profile
    sigma: int
    value: int
    move: str


class DescentResult(NamedTuple):
    steps: tuple[DescentStep, ...]
    ok: bool
    # the working sets at the last step of a failed descent
    context: str | None = None

    def render(self, m: int) -> str:
        letters = orders.letters_for(m)
        lines = []
        for step in self.steps:
            lines.append(f"σ={step.sigma} "
                         f"profile={profiles.encode_profile(step.profile)} "
                         f"value={letters[step.value]} move={step.move}")
        if not self.ok:
            lines.append("FAILED: no case of the descent ladder applies; "
                         "see the last step")
            lines.append(f"context: {self.context}")
        return "\n".join(lines)


class _Descent:
    """The case ladder of one sigma-descent for a fixed rule and (w, z)
    pair.  `candidates` yields the candidate steps in ladder order as move
    groups `(base, voter, orderings, move)`: the profile `base` with that
    voter's ordering replaced by each of `orderings` in turn, all under the
    label `move`.  Handlers test only the profiles they build further
    candidates from; `_checked_step` alone decides which candidate is the
    step.  Rank tests read `self.rank`, the position table of the
    domain's orderings: `rank[v][a] < rank[v][b]` is "v ranks a above b",
    and `abs(rank[v][a] - rank[v][b]) - 1` is the size of v's (a, b)
    bracket."""

    def __init__(self, rule: Rule, w: int, z: int):
        self.rule = rule
        self.domain = rule.domain
        self.w = w
        self.z = z
        self.rank = orders.rank_table(self.domain.m)
        self.letters = orders.letters_for(self.domain.m)
        # by profile index: the checked steps after that profile, down to
        # sigma 0 or to the profile where no case applies; None until a
        # descent passes the profile
        self.tails: list[tuple[DescentStep, ...] | None] = (
            [None] * len(self.domain))

    # small helpers -------------------------------------------------------

    def probe(self, p: Profile) -> int | None:
        """The value at p, or None when p is outside the domain."""
        i = self.domain.lookup(p)
        return None if i is None else self.rule.table[i]

    def _ends(self, r, voter, top, bot, label):
        """The groups that raise `bot`, then lower `top`, inside the
        voter's bracket."""
        ordering = r[voter]
        return ((r, voter, bracket_moves(ordering, top, bot, 1),
                 f"{label} raise {self.letters[bot]} voter {voter + 1}"),
                (r, voter, bracket_moves(ordering, top, bot, 2),
                 f"{label} lower {self.letters[top]} voter {voter + 1}"))

    @staticmethod
    def _swapped(ordering: Ordering, a: int, b: int) -> Ordering:
        order = list(ordering)
        i, j = order.index(a), order.index(b)
        order[i], order[j] = b, a
        return tuple(order)

    def _brackets(self, ranks, x: int) -> list[tuple[int, int, int, bool]]:
        """Per voter, from the rank rows of a profile: the pair member on
        top, the one below, the size of the bracket between them, and
        whether x lies strictly inside it."""
        w, z = self.w, self.z
        out = []
        for rk in ranks:
            rw, rz, rx = rk[w], rk[z], rk[x]
            if rw < rz:
                out.append((w, z, rz - rw - 1, rw < rx < rz))
            else:
                out.append((z, w, rw - rz - 1, rz < rx < rw))
        return out

    def context(self, r: Profile, x: int) -> str:
        """The failure report's context at r, which selects x: the
        per-voter sigma, the pivot (a voter with the largest bracket) and
        the ladder's sets in key order.  Voters are 1-based; J and H list
        those ranking w above z, respectively z above w."""
        w, z = self.w, self.z
        letters = self.letters

        def names(alts):
            return "{" + ",".join(letters[a] for a in alts) + "}"

        brackets = self._brackets([self.rank[v] for v in r], x)
        per = [size for _, _, size, _ in brackets]
        pivot = "-"
        sets = {"J": [i + 1 for i, b in enumerate(brackets) if b[0] == w],
                "H": [i + 1 for i, b in enumerate(brackets) if b[0] == z]}
        if x != w and x != z:
            j = per.index(max(per))
            pivot = j + 1
            top, bot, _, inside = brackets[j]
            sets["Y"] = names(orders.between(r[j], w, z))
            if inside:
                sets["A"] = names(orders.between(r[j], top, x))
                sets["B"] = names(orders.between(r[j], x, bot))
        return " ".join([f"winner={letters[x]}", f"sigma={per}",
                         f"pivot={pivot}"]
                        + [f"{key}={value}"
                           for key, value in sorted(sets.items())])

    # case handlers -------------------------------------------------------
    #
    # `ranks` is the list of rank rows of the handler's profile `r`, read
    # once per step by `candidates`; `brackets` is its `_brackets` record,
    # built once per case-1 or case-2 step by `_case12`.  A handler that
    # is not a generator returns an iterable of groups, and is called only
    # when the ladder reaches it, so the search stays lazy with few
    # generator levels.

    def candidates(self, r: Profile, x: int):
        """Every candidate group from r, which selects x, in ladder
        order."""
        rank = self.rank
        ranks = [rank[v] for v in r]
        if x == self.w or x == self.z:
            return self._case3(r, ranks, x)
        return self._case12(r, ranks, x)

    def _case12(self, r: Profile, ranks, x: int):
        brackets = self._brackets(ranks, x)
        smax = max(size for _, _, size, _ in brackets)
        max_pivots = [j for j, b in enumerate(brackets) if b[2] == smax]
        for j in max_pivots:
            top, bot, _, inside = brackets[j]
            if not inside:
                yield from self._case1(r, ranks, j, top, bot)
        case2_pivots = [j for j in max_pivots if brackets[j][3]]
        case2_pivots += [j for j, b in enumerate(brackets)
                         if b[3] and j not in max_pivots]
        for k, j in enumerate(case2_pivots):
            yield from self._case2(r, ranks, brackets, j, x,
                                   fallback=k > 0 or j not in max_pivots)

    def _case1(self, r: Profile, ranks, j: int, top: int, bot: int):
        yield from self._ends(r, j, top, bot, "case1")
        interior = orders.between(r[j], top, bot)
        others = [i for i in range(self.domain.n) if i != j]
        certified = all(
            ranks[i][bot] < ranks[i][y] < ranks[i][top]
            for i in others for y in interior)
        if not certified:
            return
        for h in others:
            pos_top = ranks[h][top]
            if pos_top == 0:
                continue
            y_star = r[h][pos_top - 1]
            if y_star not in interior:
                continue
            yield (r, h, (self._swapped(r[h], y_star, top),),
                   f"case1 swap {self.letters[y_star]},{self.letters[top]} "
                   f"voter {h + 1}")

    def _case2(self, r: Profile, ranks, brackets, j: int, x: int,
               fallback: bool):
        """x lies inside the pivot j's bracket.  Normalizing x up moves
        neither pair member, so `brackets` stays the record of `work`."""
        tag = "case2-fallback" if fallback else "case2"
        top, bot, _, _ = brackets[j]
        work = self._normalize_x_up(r, j, x, top)
        if work is not r:
            ranks = ranks[:j] + [self.rank[work[j]]] + ranks[j + 1:]
        rj = ranks[j]
        if rj[x] - rj[top] > 1:
            return self._case2_part1(work, ranks, j, x, top, bot, tag)
        return self._case2_part2(work, ranks, brackets, j, x, tag)

    def _normalize_x_up(self, r: Profile, j: int, x: int, top: int) -> Profile:
        """Raise the selected alternative in the pivot's ordering as far as
        the domain allows, never above `top`; sigma is unchanged."""
        work = r
        while True:
            pos = self.rank[work[j]][x]
            if pos == 0 or work[j][pos - 1] == top:
                return work
            cand = _with_voter(work, j,
                               self._swapped(work[j], x, work[j][pos - 1]))
            if self.probe(cand) != x:
                return work
            work = cand

    def _case2_part1(self, r: Profile, ranks, j: int, x: int, top: int,
                     bot: int, tag: str):
        """Nonempty bracket above x for the pivot: direct endpoint moves,
        then the per-voter statement ladder."""
        a_set = orders.between(r[j], top, x)
        yield (r, j, bracket_moves(r[j], top, x, 2),
               f"{tag}p1 lower {self.letters[top]} voter {j + 1}")
        yield (r, j, bracket_moves(r[j], x, bot, 1),
               f"{tag}p1 raise {self.letters[bot]} voter {j + 1}")
        others = [i for i in range(self.domain.n) if i != j]
        if not all(ranks[i][x] < ranks[i][a] < ranks[i][top]
                   for i in others for a in a_set):
            return
        b_set = orders.between(r[j], x, bot)
        for h in others:
            if ranks[h][bot] < ranks[h][top]:
                yield from self._part1_ladder(r, ranks[h], j, h, x, top, bot,
                                              a_set, b_set, tag)

    def _part1_ladder(self, r: Profile, rh, j: int, h: int, x: int,
                      top: int, bot: int, a_set, b_set, tag: str):
        """The groups of statements I to IV for voter h, whose rank row is
        `rh`."""
        a_h = max(a_set, key=rh.__getitem__)
        if not rh[a_h] < rh[top]:
            return ()
        if rh[top] - rh[a_h] == 1:  # nothing between a_h and top
            return ((r, h, (self._swapped(r[h], a_h, top),),
                     f"{tag}p1.I swap {self.letters[a_h]},"
                     f"{self.letters[top]} voter {h + 1}"),)
        if rh[bot] < rh[a_h]:
            return ((r, h, bracket_moves(r[h], a_h, top, 1),
                     f"{tag}p1.II raise {self.letters[top]} voter {h + 1}"),)
        # bot sits inside the interval between a_h and top
        if abs(rh[bot] - rh[top]) > 1:
            return self._ends(r, h, bot, top, f"{tag}p1.III")
        if not b_set:
            return ()
        b_h = min(b_set, key=rh.__getitem__)
        if not rh[top] < rh[b_h]:
            return ()
        work = r
        while abs(self.rank[work[h]][b_h] - self.rank[work[h]][top]) > 1:
            for cand in bracket_moves(work[h], top, b_h, 1):
                moved = _with_voter(work, h, cand)
                if self.probe(moved) == x:
                    break
            else:
                return ()
            work = moved
        return self._part1_statement_iv(work, j, h, x, bot, b_set, b_h, tag)

    def _part1_statement_iv(self, r: Profile, j: int, h: int, x: int,
                            bot: int, b_set, b_h, tag: str):
        # put the j-side block of b's into the reverse of their h-side order
        bs = set(b_set)
        target_order = [b for b in reversed(r[h]) if b in bs]
        positions = [i for i, a in enumerate(r[j]) if a in bs]
        qj = list(r[j])
        for pos, b in zip(positions, target_order):
            qj[pos] = b
        q = _with_voter(r, j, tuple(qj))
        if (self.probe(q) != x or sigma_total(q, self.w, self.z)
                != sigma_total(r, self.w, self.z)):
            return ()
        # move b_h just above bot for voter h
        sh = list(q[h])
        sh.remove(b_h)
        sh.insert(sh.index(bot), b_h)
        s = _with_voter(q, h, tuple(sh))
        if self.probe(s) != x:
            return ()
        return ((s, j, (self._swapped(s[j], bot, b_h),),
                 f"{tag}p1.IV reorder+swap voters {j + 1},{h + 1}"),)

    def _case2_part2(self, r: Profile, ranks, brackets, j: int, x: int,
                     tag: str):
        # re-pivot: a voter with alternatives between its upper pair member
        # and x reopens the part-1 argument, without normalizing that voter
        for i, (top_i, bot_i, _, inside) in enumerate(brackets):
            if inside and i != j and ranks[i][x] - ranks[i][top_i] > 1:
                yield from self._case2_part1(r, ranks, i, x, top_i, bot_i,
                                             tag + "-repivot")
        # endpoint moves on every voter's nonempty pair bracket, first the
        # voters ranking w above z, then the others; the acceptor checks
        # the selected alternative itself, so the x-in-the-bracket
        # restriction of the certified lemma version is not needed here
        for upper in (self.w, self.z):
            for i, (top_i, bot_i, size, _) in enumerate(brackets):
                if top_i == upper and size:
                    yield from self._ends(r, i, top_i, bot_i, f"{tag}p2")

    def _case3(self, r: Profile, ranks, winner: int):
        loser = self.z if winner == self.w else self.w
        # a voter ranking one pair member above the other, with a nonempty
        # bracket between them
        for j in range(self.domain.n):
            if ranks[j][loser] - ranks[j][winner] > 1:
                yield (r, j, bracket_moves(r[j], winner, loser, 1),
                       f"case3 raise {self.letters[loser]} voter {j + 1}")
        for k in range(self.domain.n):
            if ranks[k][winner] - ranks[k][loser] > 1:
                yield from self._ends(r, k, loser, winner, "case3")


def _checked_step(descent: _Descent, last: DescentStep,
                  sigmas: tuple[int, ...]) -> tuple[int, DescentStep] | None:
    """The index and step of the first candidate from `last` that is in
    the domain, meets the value condition and has strictly smaller sigma
    (read from the spec's `sigmas`), or None when no candidate does.  The
    only place a step is checked: one domain lookup per candidate."""
    lookup = descent.domain.lookup
    table = descent.rule.table
    w, z = descent.w, descent.z
    x = last.value
    pair = x == w or x == z
    for base, voter, orderings, move in descent.candidates(last.profile, x):
        before, after = base[:voter], base[voter + 1:]
        for ordering in orderings:
            u = before + (ordering,) + after
            j = lookup(u)
            if j is None:
                continue
            value = table[j]
            if pair:
                if value != w and value != z:
                    continue
            elif value != x:
                continue
            sigma_u = sigmas[j]
            if sigma_u < last.sigma:
                return j, DescentStep(u, sigma_u, value, move)
    return None


def reduce_to_contiguous(rule: Rule, r: Profile, spec: CollapseSpec) -> DescentResult:
    """Walk `r` down to the contiguous-pair subdomain with sigma strictly
    decreasing at every step; the selected alternative is preserved
    exactly while it is not w or z, and stays within {w, z} otherwise.

    Each step is the one `_checked_step` accepts.  The rest of a descent
    depends only on the rule, (w, z) and the profile, so `spec` keeps, for
    the rule last descended under it (matched by identity), the checked
    tail of every profile index a descent has passed: a descent from a
    profile with a known tail is one lookup, and a new walk searches only
    until it meets a known tail, then stores the tail of every profile on
    its path."""
    descent = spec._descent
    if descent is None or descent.rule is not rule:
        _check_source(rule, spec)
        # the start is looked up first, so one outside the domain leaves
        # the memo as it was
        i = rule.domain.index_of(r)
        descent = _Descent(rule, spec.w, spec.z)
        object.__setattr__(spec, "_descent", descent)
    else:
        i = rule.domain.index_of(r)
    sigmas = spec.sigmas
    start = DescentStep(r, sigmas[i], rule.table[i], "start")
    tails = descent.tails
    tail = tails[i]
    if tail is None:
        path = []  # (index, the checked step from that profile)
        last = start
        while tail is None:
            found = (_checked_step(descent, last, sigmas) if last.sigma
                     else None)
            if found is None:
                tail = tails[i] = ()
                break
            path.append((i, found[1]))
            i, last = found
            tail = tails[i]
        for k, step in reversed(path):
            tail = tails[k] = (step,) + tail
    steps = (start,) + tail
    last = steps[-1]
    if last.sigma > 0:
        return DescentResult(steps, ok=False,
                             context=descent.context(last.profile,
                                                     last.value))
    return DescentResult(steps, ok=True)
