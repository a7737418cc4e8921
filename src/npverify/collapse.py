"""Fusing a contiguous pair of alternatives into one.

Machinery: the subdomain where two chosen alternatives w, z sit adjacent in
every ordering; extension of a reduced profile back to that subdomain; the
collapsed rule (w, z become a single fresh alternative); the per-voter
"how far apart are w and z" statistic sigma; and the sigma-descent that
walks any profile down to the contiguous subdomain without changing the
selected alternative (or, when the winner is w or z itself, keeping the
winner inside {w, z}).

The descent follows a fixed case ladder.  The ladder only proposes
candidate steps; each step is checked once, in `reduce_to_contiguous`
(domain membership, value condition, strictly smaller sigma), so a wrong
branch can only cause a reported failure, never a wrong result.  Rank
comparisons and bracket sizes are read from `orders.rank_table`, and the
candidate orderings of a bracket move are memoised per input, so a descent
scans no ordering and permutes no segment more than once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import orders, profiles
from .errors import ContractError, InvalidPairError, MembershipError, ParameterError
from .orders import Ordering
from .profiles import Domain, Profile
from .rules import Rule


@dataclass(frozen=True)
class SigmaStats:
    per_voter: tuple[int, ...]
    total: int


def sigma(profile: Profile, a: int, b: int) -> SigmaStats:
    """Per-voter counts of alternatives strictly between `a` and `b`."""
    if a == b:
        raise InvalidPairError("sigma needs two distinct alternatives")
    rank = orders.rank_table(len(profile[0]))
    per = tuple(abs(rank[v][a] - rank[v][b]) - 1 for v in profile)
    return SigmaStats(per, sum(per))


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
                        to_source=to_source)


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


@dataclass(frozen=True)
class ReductionContext:
    """Snapshot of the named working sets at a descent position, for
    failure reports and traces."""

    pivot: int | None
    winner: int
    per_voter_sigma: tuple[int, ...]
    sets: dict[str, tuple]

    def render(self, m: int) -> str:
        letters = orders.letters_for(m)

        def names(alts):
            return "{" + ",".join(letters[a] for a in alts) + "}"

        parts = [f"winner={letters[self.winner]}",
                 f"sigma={list(self.per_voter_sigma)}",
                 f"pivot={'-' if self.pivot is None else self.pivot + 1}"]
        for key, value in sorted(self.sets.items()):
            if key in ("J", "H"):
                parts.append(f"{key}={[v + 1 for v in value]}")
            else:
                parts.append(f"{key}={names(value)}")
        return " ".join(parts)


@dataclass(frozen=True)
class DescentStep:
    profile: Profile
    sigma: int
    value: int
    move: str


@dataclass(frozen=True)
class DescentResult:
    steps: tuple[DescentStep, ...]
    ok: bool
    failure: str | None = None
    context: ReductionContext | None = None

    @property
    def final(self) -> Profile:
        return self.steps[-1].profile

    def render(self, m: int) -> str:
        letters = orders.letters_for(m)
        lines = []
        for step in self.steps:
            lines.append(f"σ={step.sigma} "
                         f"profile={profiles.encode_profile(step.profile)} "
                         f"value={letters[step.value]} move={step.move}")
        if not self.ok:
            lines.append(f"FAILED: {self.failure}")
            if self.context is not None:
                lines.append(f"context: {self.context.render(m)}")
        return "\n".join(lines)


class _Descent:
    """The case ladder of one sigma-descent for a fixed rule and (w, z)
    pair.  Every handler is a generator of `(profile, move)` candidates in
    ladder order.  Handlers test only the profiles they build further
    candidates from; `reduce_to_contiguous` alone decides which candidate
    is the step.  Rank tests read `self.rank`, the position table of the
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

    # small helpers -------------------------------------------------------

    def value(self, p: Profile) -> int:
        return self.rule.evaluate(p)

    def probe(self, p: Profile) -> int | None:
        """The value at p, or None when p is outside the domain."""
        i = self.domain.lookup(p)
        return None if i is None else self.rule.table[i]

    def stotal(self, p: Profile) -> int:
        return sigma_total(p, self.w, self.z)

    def want(self, x: int):
        """The value condition of a step away from a profile selecting x:
        keep x, or stay within {w, z} when x is w or z."""
        if x in (self.w, self.z):
            return lambda v: v == self.w or v == self.z
        return lambda v: v == x

    def _search(self, r, voter, a, b, part, move):
        for ordering in bracket_moves(r[voter], a, b, part):
            yield _with_voter(r, voter, ordering), move

    def _ends(self, r, voter, top, bot, label):
        """Raise `bot`, then lower `top`, inside the voter's bracket."""
        yield from self._search(r, voter, top, bot, 1,
                                f"{label} raise {self.letters[bot]} voter {voter + 1}")
        yield from self._search(r, voter, top, bot, 2,
                                f"{label} lower {self.letters[top]} voter {voter + 1}")

    @staticmethod
    def _swap(r: Profile, voter: int, a: int, b: int) -> Profile:
        order = list(r[voter])
        i, j = order.index(a), order.index(b)
        order[i], order[j] = b, a
        return _with_voter(r, voter, tuple(order))

    def _pair_brackets(self, r: Profile, x: int) -> tuple[list[int], list[bool]]:
        """Per voter: the size of the (w, z) bracket, and whether x lies
        strictly inside it."""
        w, z = self.w, self.z
        sizes = []
        inside = []
        for v in r:
            rk = self.rank[v]
            rw, rz, rx = rk[w], rk[z], rk[x]
            sizes.append(abs(rw - rz) - 1)
            inside.append(rw < rx < rz or rz < rx < rw)
        return sizes, inside

    def snapshot(self, r: Profile) -> ReductionContext:
        """Working sets at r, for the failure report."""
        x = self.value(r)
        w, z = self.w, self.z
        ranks = [self.rank[v] for v in r]
        per = tuple(self._pair_brackets(r, x)[0])
        pivot = None
        sets: dict[str, tuple] = {
            "J": tuple(i for i, rk in enumerate(ranks) if rk[w] < rk[z]),
            "H": tuple(i for i, rk in enumerate(ranks) if rk[z] < rk[w]),
        }
        if x not in (w, z):
            candidates = [j for j, s in enumerate(per) if s == max(per)]
            if candidates:
                pivot = candidates[0]
                sets["Y"] = orders.between(r[pivot], w, z)
                oriented = self._orientation(r[pivot], x)
                if oriented is not None:
                    top, bot = oriented
                    sets["A"] = orders.between(r[pivot], top, x)
                    sets["B"] = orders.between(r[pivot], x, bot)
        return ReductionContext(pivot=pivot, winner=x, per_voter_sigma=per,
                                sets=sets)

    # case handlers -------------------------------------------------------

    def candidates(self, r: Profile, x: int):
        """Every candidate next step from r, which selects x, in ladder
        order."""
        if x == self.w or x == self.z:
            yield from self._case3(r, x)
            return
        per, inside = self._pair_brackets(r, x)
        smax = max(per)
        max_pivots = [j for j, s in enumerate(per) if s == smax]
        for j in max_pivots:
            if not inside[j]:
                yield from self._case1(r, j)
        case2_pivots = [j for j in max_pivots if inside[j]]
        case2_pivots += [j for j in range(self.domain.n)
                         if j not in max_pivots and inside[j]]
        for rank, j in enumerate(case2_pivots):
            yield from self._case2(r, j, x, fallback=rank > 0 or j not in max_pivots)

    def _case1(self, r: Profile, j: int):
        rank = self.rank
        rj = rank[r[j]]
        top, bot = ((self.w, self.z) if rj[self.w] < rj[self.z]
                    else (self.z, self.w))
        yield from self._ends(r, j, top, bot, "case1")
        interior = orders.between(r[j], top, bot)
        others = [i for i in range(self.domain.n) if i != j]
        certified = all(
            rank[r[i]][bot] < rank[r[i]][y] < rank[r[i]][top]
            for i in others for y in interior)
        if not certified:
            return
        for h in others:
            pos_top = rank[r[h]][top]
            if pos_top == 0:
                continue
            y_star = r[h][pos_top - 1]
            if y_star not in interior:
                continue
            yield (self._swap(r, h, y_star, top),
                   f"case1 swap {self.letters[y_star]},{self.letters[top]} "
                   f"voter {h + 1}")

    def _orientation(self, ordering: Ordering, x: int) -> tuple[int, int] | None:
        """(top, bot) of the pair around x, or None when x is outside."""
        rk = self.rank[ordering]
        rw, rz, rx = rk[self.w], rk[self.z], rk[x]
        if rw < rx < rz:
            return self.w, self.z
        if rz < rx < rw:
            return self.z, self.w
        return None

    def _case2(self, r: Profile, j: int, x: int, fallback: bool = False):
        tag = "case2-fallback" if fallback else "case2"
        oriented = self._orientation(r[j], x)
        if oriented is None:
            return
        top, bot = oriented
        work = self._normalize_x_up(r, j, x, top)
        rj = self.rank[work[j]]
        if abs(rj[top] - rj[x]) > 1:
            yield from self._case2_part1(work, j, x, top, bot, tag)
        else:
            yield from self._case2_part2(work, j, x, tag)

    def _normalize_x_up(self, r: Profile, j: int, x: int, top: int) -> Profile:
        """Raise the selected alternative in the pivot's ordering as far as
        the domain allows, never above `top`; sigma is unchanged."""
        work = r
        while True:
            pos = self.rank[work[j]][x]
            if pos == 0 or work[j][pos - 1] == top:
                return work
            cand = self._swap(work, j, x, work[j][pos - 1])
            if self.probe(cand) != x:
                return work
            work = cand

    def _case2_part1(self, r: Profile, j: int, x: int, top: int, bot: int,
                     tag: str):
        """Nonempty bracket above x for the pivot: direct endpoint moves,
        then the per-voter statement ladder."""
        rank = self.rank
        a_set = orders.between(r[j], top, x)
        yield from self._search(r, j, top, x, 2,
                                f"{tag}p1 lower {self.letters[top]} voter {j + 1}")
        yield from self._search(r, j, x, bot, 1,
                                f"{tag}p1 raise {self.letters[bot]} voter {j + 1}")
        others = [i for i in range(self.domain.n) if i != j]
        if not all(rank[r[i]][x] < rank[r[i]][a] < rank[r[i]][top]
                   for i in others for a in a_set):
            return
        b_set = orders.between(r[j], x, bot)
        for h in others:
            if rank[r[h]][bot] < rank[r[h]][top]:
                yield from self._part1_ladder(r, j, h, x, top, bot, a_set,
                                              b_set, tag)

    def _part1_ladder(self, r: Profile, j: int, h: int, x: int,
                      top: int, bot: int, a_set, b_set, tag: str):
        rh = self.rank[r[h]]
        a_h = max(a_set, key=rh.__getitem__)
        if not rh[a_h] < rh[top]:
            return
        if rh[top] - rh[a_h] == 1:  # nothing between a_h and top
            yield (self._swap(r, h, a_h, top),
                   f"{tag}p1.I swap {self.letters[a_h]},"
                   f"{self.letters[top]} voter {h + 1}")
            return
        if rh[bot] < rh[a_h]:
            yield from self._search(r, h, a_h, top, 1,
                                    f"{tag}p1.II raise {self.letters[top]} voter {h + 1}")
            return
        # bot sits inside the interval between a_h and top
        if abs(rh[bot] - rh[top]) > 1:
            yield from self._ends(r, h, bot, top, f"{tag}p1.III")
            return
        if not b_set:
            return
        b_h = min(b_set, key=rh.__getitem__)
        if not rh[top] < rh[b_h]:
            return
        work = r
        while abs(self.rank[work[h]][b_h] - self.rank[work[h]][top]) > 1:
            for cand in bracket_moves(work[h], top, b_h, 1):
                moved = _with_voter(work, h, cand)
                if self.probe(moved) == x:
                    break
            else:
                return
            work = moved
        yield from self._part1_statement_iv(work, j, h, x, top, bot, b_set,
                                            b_h, tag)

    def _part1_statement_iv(self, r: Profile, j: int, h: int, x: int,
                            top: int, bot: int, b_set, b_h, tag: str):
        # put the j-side block of b's into the reverse of their h-side order
        target_order = [b for b in reversed(r[h]) if b in set(b_set)]
        positions = [i for i, a in enumerate(r[j]) if a in set(b_set)]
        qj = list(r[j])
        for pos, b in zip(positions, target_order):
            qj[pos] = b
        q = _with_voter(r, j, tuple(qj))
        if self.probe(q) != x or self.stotal(q) != self.stotal(r):
            return
        # move b_h just above bot for voter h
        sh = list(q[h])
        sh.remove(b_h)
        sh.insert(sh.index(bot), b_h)
        s = _with_voter(q, h, tuple(sh))
        if self.probe(s) != x:
            return
        yield (self._swap(s, j, bot, b_h),
               f"{tag}p1.IV reorder+swap voters {j + 1},{h + 1}")

    def _case2_part2(self, r: Profile, j: int, x: int, tag: str):
        n = self.domain.n
        ranks = [self.rank[v] for v in r]
        # re-pivot: a voter with alternatives between its upper pair member
        # and x reopens the part-1 argument, without normalizing that voter
        for i in range(n):
            oriented = self._orientation(r[i], x)
            if oriented is None:
                continue
            top_i, bot_i = oriented
            if i != j and abs(ranks[i][top_i] - ranks[i][x]) > 1:
                yield from self._case2_part1(r, i, x, top_i, bot_i,
                                             tag + "-repivot")
        w, z = self.w, self.z
        J = [i for i in range(n) if ranks[i][w] < ranks[i][z]]
        H = [i for i in range(n) if ranks[i][z] < ranks[i][w]]
        sides = ((J, (w, z)), (H, (z, w)))
        # endpoint moves on every voter's pair bracket; the acceptor checks
        # the selected alternative itself, so the x-in-the-bracket
        # restriction of the certified lemma version is not needed here
        for side, (near, far) in sides:
            for i in side:
                if abs(ranks[i][near] - ranks[i][far]) > 1:
                    yield from self._ends(r, i, near, far, f"{tag}p2")

    def _case3(self, r: Profile, winner: int):
        loser = self.z if winner == self.w else self.w
        ranks = [self.rank[v] for v in r]
        # a voter ranking one pair member above the other, with a nonempty
        # bracket between them
        for j in range(self.domain.n):
            if ranks[j][loser] - ranks[j][winner] > 1:
                yield from self._search(
                    r, j, winner, loser, 1,
                    f"case3 raise {self.letters[loser]} voter {j + 1}")
        for k in range(self.domain.n):
            if ranks[k][winner] - ranks[k][loser] > 1:
                yield from self._ends(r, k, loser, winner, "case3")


def reduce_to_contiguous(rule: Rule, r: Profile, spec: CollapseSpec) -> DescentResult:
    """Walk `r` down to the contiguous-pair subdomain with sigma strictly
    decreasing at every step; the selected alternative is preserved
    exactly while it is not w or z, and stays within {w, z} otherwise.

    Each step is the first ladder candidate that is in the domain, meets
    the value condition and has strictly smaller sigma; this loop is the
    only place a step is checked, with one domain lookup per candidate."""
    _check_source(rule, spec)
    domain = rule.domain
    domain.index_of(r)
    lookup = domain.lookup
    table = rule.table
    descent = _Descent(rule, spec.w, spec.z)
    last = DescentStep(r, descent.stotal(r), descent.value(r), "start")
    steps = [last]
    while last.sigma > 0:
        want = descent.want(last.value)
        for u, move in descent.candidates(last.profile, last.value):
            i = lookup(u)
            if i is None:
                continue
            value = table[i]
            if not want(value):
                continue
            sigma_u = descent.stotal(u)
            if sigma_u < last.sigma:
                break
        else:
            return DescentResult(tuple(steps), ok=False,
                                 failure="no case of the descent ladder "
                                         "applies; see the last step",
                                 context=descent.snapshot(last.profile))
        last = DescentStep(u, sigma_u, value, move)
        steps.append(last)
    return DescentResult(tuple(steps), ok=True)
