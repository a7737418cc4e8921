
import dataclasses
import hashlib
import itertools
import math
import random

import oracles
import pytest

from npverify import collapse, orders, profiles, rules, strategyproof
from npverify.collapse import make_spec
from npverify.errors import (
    ContractError,
    InvalidPairError,
    MembershipError,
    ParameterError,
)

A, B, C, D = 0, 1, 2, 3


@pytest.fixture(scope="module")
def spec(np34):
    return make_spec(np34, A, B)


def test_sigma_examples():
    # voter (w, y, z, x): exactly y between w and z
    voter = (A, C, B, D)
    assert collapse.sigma((voter,), A, B) == (1,)
    contiguous = ((A, B, C, D),)
    assert collapse.sigma(contiguous, A, B) == (0,)
    p = ((A, C, B, D), (D, A, C, B), (B, D, C, A))
    assert collapse.sigma(p, A, B) == (1, 1, 2)
    assert collapse.sigma_total(p, A, B) == 4
    with pytest.raises(InvalidPairError):
        collapse.sigma(p, A, A)
    with pytest.raises(InvalidPairError):
        collapse.sigma_total(p, A, A)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_position_tables_against_brute_force(m):
    """The rank table, the memoised bracket moves and the descent's
    per-voter bracket record agree with `orders` and the brute-force
    oracle on every ordering, every ordered pair and every x."""
    rank = orders.rank_table(m)
    assert len(rank) == math.factorial(m)
    # A one-profile domain is enough to build the ladder's helpers.
    dummy = profiles.Domain(((tuple(range(m)),),), n=1, m=m)
    ladders = {(a, b): collapse._Descent(rules.Rule(dummy, [0]), a, b)
               for a, b in itertools.permutations(range(m), 2)}
    for ordering in oracles.all_orders(m):
        for (a, b), ladder in ladders.items():
            interior = orders.between(ordering, a, b)
            above = orders.ranks_above(ordering, a, b)
            assert (rank[ordering][a] < rank[ordering][b]) == above
            assert collapse.sigma_total((ordering,), a, b) == len(interior)
            assert collapse.sigma((ordering,), a, b) == (len(interior),)
            for x in range(m):
                (record,) = ladder._brackets([rank[ordering]], x)
                assert record == ((a, b) if above else (b, a)) + (
                    len(interior), x in interior)
            if not above:
                continue
            for part in (1, 2):
                moves = collapse.bracket_moves(ordering, a, b, part)
                assert type(moves) is tuple
                assert list(moves) == oracles.bracket_moves(
                    ordering, a, b, part)
                assert collapse.bracket_moves(ordering, a, b, part) is moves


@pytest.mark.parametrize("m", [4, 5])
def test_bracket_moves_keep_upper_contours(m):
    """A move inside one voter's (a, b) bracket never adds to what that
    voter ranks above an alternative outside the protected set (the
    interior, and a too in part 2)."""
    for ordering in oracles.all_orders(m):
        for a, b in itertools.permutations(range(m), 2):
            if not orders.ranks_above(ordering, a, b):
                continue
            interior = set(orders.between(ordering, a, b))
            for part in (1, 2):
                protected = interior | ({a} if part == 2 else set())
                for moved in collapse.bracket_moves(ordering, a, b, part):
                    for x in set(range(m)) - protected:
                        assert (set(moved[:moved.index(x)])
                                <= set(ordering[:ordering.index(x)]))


def test_bracket_moves_errors_are_not_cached():
    before = collapse.bracket_moves.cache_info().currsize
    with pytest.raises(ContractError):
        collapse.bracket_moves((A, B, C), C, A, 1)
    with pytest.raises(ParameterError):
        collapse.bracket_moves((A, B, C), A, C, 3)
    assert collapse.bracket_moves.cache_info().currsize == before


def test_contiguous_domain(np34):
    wz = collapse.contiguous_domain(np34, A, B)
    assert len(wz) > 0
    for p in wz:
        assert sum(collapse.sigma(p, A, B)) == 0
        assert p in np34
    # sigma zero exactly characterizes membership
    members = set(wz.profiles)
    for p in np34:
        assert (sum(collapse.sigma(p, A, B)) == 0) == (p in members)
    # an explicit member: adjacent pair everywhere, no dominated pair
    explicit = ((A, B, C, D), (D, C, B, A), (B, A, D, C))
    assert explicit in wz


def test_spec_mapping(spec):
    assert spec.x_star == 2
    assert spec.to_target == {C: 0, D: 1}
    assert spec.to_source == {0: C, 1: D}
    assert "->" in spec.describe()


def test_extend_profile_exhaustive(np34, spec):
    """Every reduced profile has at least one extension, every extension
    restricts back to it, and the pair occupies the fused slot."""
    for p in spec.target:
        extensions = collapse.extend_profile(p, spec)
        assert extensions
        for r in extensions:
            assert r in np34
            assert sum(collapse.sigma(r, A, B)) == 0
            assert collapse.collapse_profile(r, spec) == p
            for voter_r, voter_p in zip(r, p):
                kept = tuple(a for a in voter_r if a in (C, D))
                expected = tuple(spec.to_source[a] for a in voter_p
                                 if a != spec.x_star)
                assert kept == expected
                slot = voter_p.index(spec.x_star)
                assert voter_r.index(A) == slot or voter_r.index(B) == slot


def test_extend_profile_block_orders(spec):
    p = spec.target.profiles[0]
    extensions = collapse.extend_profile(p, spec)
    assert 1 <= len(extensions) <= 2 ** 3


def test_collapse_rule_dictator(np34, spec):
    for voter in range(3):
        g = rules.dictator(np34, voter)
        collapsed, report = collapse.collapse_rule(g, spec)
        assert report.ok
        assert collapsed is not None
        # the collapsed rule is the dictator on the reduced universe
        expected = rules.dictator(spec.target, voter)
        assert collapsed.table == expected.table
        assert rules.range_of(collapsed).attained == {0, 1, 2}


def test_collapse_rule_constant(np34, spec):
    g = rules.constant(np34, C)
    collapsed, report = collapse.collapse_rule(g, spec)
    assert report.ok
    assert collapsed.table == rules.constant(spec.target, spec.to_target[C]).table


def test_collapse_rule_reports_disagreement(np34, spec):
    """A rule that keys on the internal order of the fused pair cannot
    collapse; the report names the profiles."""
    g = rules.from_function(
        np34, lambda p: C if orders.ranks_above(p[0], A, B) else D,
        label="pair-sensitive")
    collapsed, report = collapse.collapse_rule(g, spec)
    assert collapsed is None
    assert report.disagreements


def test_descent_trivial_when_contiguous(np34, spec):
    g = rules.dictator(np34, 0)
    wz = collapse.contiguous_domain(np34, A, B)
    r = wz.profiles[0]
    result = collapse.reduce_to_contiguous(g, r, spec)
    assert result.ok
    assert len(result.steps) == 1
    assert result.steps[0].move == "start"


def test_descent_dictators_single_pair(np34, spec):
    """Every starting profile walks down to the contiguous subdomain with
    sigma strictly decreasing and the winner preserved."""
    for voter in (0, 2):
        g = rules.dictator(np34, voter)
        collapsed, _ = collapse.collapse_rule(g, spec)
        for r in np34:
            result = collapse.reduce_to_contiguous(g, r, spec)
            assert result.ok, result.render(4)
            sigmas = [s.sigma for s in result.steps]
            assert sigmas[-1] == 0
            assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
            values = [s.value for s in result.steps]
            start = values[0]
            if start not in (A, B):
                assert all(v == start for v in values)
            else:
                assert all(v in (A, B) for v in values)
            mapped = (spec.x_star if values[-1] in (A, B)
                      else spec.to_target[values[-1]])
            assert collapsed.evaluate(collapse.collapse_profile(
                result.steps[-1].profile, spec)) == mapped


def test_descent_golden_digest(np34, spec):
    """Pins the ladder's order: every step (profile, sigma, value and move
    label) of every descent of the dictators and constants on NP(3,4)."""
    digest = hashlib.sha256()
    moves = 0
    for g in ([rules.dictator(np34, v) for v in range(3)]
              + [rules.constant(np34, a) for a in range(4)]):
        for r in np34:
            result = collapse.reduce_to_contiguous(g, r, spec)
            assert result.ok
            moves += len(result.steps) - 1
            for step in result.steps:
                digest.update(f"{profiles.encode_profile(step.profile)} "
                              f"{step.sigma} {step.value} {step.move}\n"
                              .encode())
    assert moves == 44546
    assert digest.hexdigest().startswith("9adacf289d8022bb")


def test_descent_trace_rendering(np34, spec):
    g = rules.dictator(np34, 2)
    r = next(p for p in np34 if sum(collapse.sigma(p, A, B)) > 1)
    result = collapse.reduce_to_contiguous(g, r, spec)
    text = result.render(4)
    assert "σ=" in text and "profile=" in text and "move=" in text


def _top_unless_pair_leads(domain):
    """Voter 1's top when voter 2 tops a or b, else voter 2's top: not
    strategy-proof, so some descents end with ok=False."""
    return rules.from_function(
        domain, lambda p: p[0][0] if p[1][0] in (A, B) else p[1][0],
        label="top unless pair leads")


FAILED_DESCENTS = {
    "abcd|bcda|dacb": (
        "σ=3 profile=abcd|bcda|dacb value=a move=start\n"
        "σ=2 profile=abcd|bcad|dacb value=a move=case3 raise a voter 2\n"
        "FAILED: no case of the descent ladder applies; see the last step\n"
        "context: winner=a sigma=[0, 1, 1] pivot=- H=[2] J=[1, 3]"),
    "cadb|bdca|abcd": (
        "σ=3 profile=cadb|bdca|abcd value=c move=start\n"
        "FAILED: no case of the descent ladder applies; see the last step\n"
        "context: winner=c sigma=[1, 2, 0] pivot=2 A={d} B={} H=[2] "
        "J=[1, 3] Y={d,c}"),
}


@pytest.mark.parametrize("start", sorted(FAILED_DESCENTS))
def test_descent_failure_context(np34, spec, start):
    """A rule that is not strategy-proof ends a descent with ok=False; the
    report names the last step and the working sets there."""
    g = _top_unless_pair_leads(np34)
    assert strategyproof.find_manipulation(g) is not None
    result = collapse.reduce_to_contiguous(
        g, profiles.decode_profile(start, 3, 4), spec)
    assert not result.ok
    assert result.render(4) == FAILED_DESCENTS[start]


def test_descent_shared_spec_matches_fresh(np34, spec):
    """Descents of several rules in turn under one spec, which keeps the
    checked steps of the rule last descended, equal descents under a fresh
    spec: a dictator, a rule whose descents can fail, then the same
    dictator again, each over one shuffled sample of start profiles.  A
    copy of `spec` is a fresh spec: an empty memo and the same sigmas."""
    shared = dataclasses.replace(spec)
    dictator = rules.dictator(np34, 0)
    failing = _top_unless_pair_leads(np34)
    rng = random.Random(17)
    starts = rng.sample(np34.profiles, 300)
    starts += [profiles.decode_profile(s, 3, 4) for s in FAILED_DESCENTS]
    rng.shuffle(starts)
    failed = 0
    for g in (dictator, failing, dictator):
        for r in starts:
            result = collapse.reduce_to_contiguous(g, r, shared)
            fresh = collapse.reduce_to_contiguous(g, r,
                                                  dataclasses.replace(spec))
            assert result == fresh, profiles.encode_profile(r)
            if not fresh.ok:
                failed += 1
                assert result.render(4) == fresh.render(4)
    assert failed >= len(FAILED_DESCENTS)


def test_descent_from_a_path_profile_is_its_suffix(np34, spec):
    """On a warmed spec, a descent started at any profile on another
    descent's path is that descent's suffix with the first step relabelled
    `start`, and equals the descent under a fresh spec (a copy of `spec`);
    a start outside the domain raises and leaves the memo as it was."""
    warm = dataclasses.replace(spec)
    rng = random.Random(29)
    starts = rng.sample(np34.profiles, 60)
    starts += [profiles.decode_profile(s, 3, 4) for s in FAILED_DESCENTS]
    for g in (rules.dictator(np34, 1), _top_unless_pair_leads(np34)):
        for r in rng.sample(np34.profiles, 300):
            collapse.reduce_to_contiguous(g, r, warm)
        for r in starts:
            whole = collapse.reduce_to_contiguous(g, r, warm)
            for k, step in enumerate(whole.steps):
                part = collapse.reduce_to_contiguous(g, step.profile, warm)
                start = step._replace(move="start")
                assert part.steps == (start,) + whole.steps[k + 1:]
                assert part == collapse.reduce_to_contiguous(
                    g, step.profile, dataclasses.replace(spec))
        descent = warm._descent
        tails = list(descent.tails)
        dominated = ((A, B, C, D),) * 3
        for other in (g, rules.dictator(np34, 2)):
            with pytest.raises(MembershipError):
                collapse.reduce_to_contiguous(other, dominated, warm)
            assert warm._descent is descent
            assert warm._descent.tails == tails


def test_collapse_profile_requires_contiguity(np34, spec):
    r = next(p for p in np34 if sum(collapse.sigma(p, A, B)) > 0)
    with pytest.raises(MembershipError):
        collapse.collapse_profile(r, spec)


def _top_among(domain, voter, alts):
    """Voter's favourite among `alts`: a dictator restricted to a range."""
    return rules.from_function(domain, lambda p: min(alts, key=p[voter].index),
                               label=f"top of voter {voter + 1}")


def _coalition(domain, a, b, coalition):
    """b when some voter of `coalition` ranks b above a, else a."""
    return rules.from_function(
        domain, lambda p: b if any(orders.ranks_above(p[i], b, a)
                                   for i in coalition) else a,
        label="coalition")


def test_descent_non_dictatorial_rules(np34):
    """Strategy-proof rules that are not dictators or constants descend
    for every pair: sigma falls strictly to zero and the value condition
    holds at every step."""
    candidates = [_top_among(np34, 0, (A, B)), _top_among(np34, 1, (B, C, D)),
                  _coalition(np34, A, B, (0, 1)), _coalition(np34, D, C, (2,))]
    sample = np34.profiles[::37]
    for g in candidates:
        assert strategyproof.find_manipulation(g) is None
        for w, z in itertools.permutations(range(4), 2):
            spec = make_spec(np34, w, z)
            for r in sample:
                result = collapse.reduce_to_contiguous(g, r, spec)
                assert result.ok, result.render(4)
                sigmas = [s.sigma for s in result.steps]
                assert sigmas[-1] == 0
                assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
                start = result.steps[0].value
                allowed = {w, z} if start in (w, z) else {start}
                assert all(s.value in allowed for s in result.steps)


def test_descent_digest_beyond_dictators(np34, np43):
    """Pins every step of the descents that reach the ladder's case-2
    branches: the four rules above on NP(3,4) for every pair over the same
    sample of starts, and example1 on NP(4,3) for every pair and start."""
    digest = hashlib.sha256()
    descents = moves = 0
    runs = [(g, np34, np34.profiles[::37]) for g in (
        _top_among(np34, 0, (A, B)), _top_among(np34, 1, (B, C, D)),
        _coalition(np34, A, B, (0, 1)), _coalition(np34, D, C, (2,)))]
    runs.append((rules.example1(np43), np43, np43.profiles))
    for g, domain, starts in runs:
        for w, z in itertools.permutations(range(domain.m), 2):
            spec = make_spec(domain, w, z)
            for r in starts:
                result = collapse.reduce_to_contiguous(g, r, spec)
                descents += 1
                moves += len(result.steps) - 1
                digest.update(f"{result.render(domain.m)}\n".encode())
    assert (descents, moves) == (10140, 15670)
    assert digest.hexdigest().startswith("70e73ef5cfe400fc")


@pytest.mark.parametrize("pair,start,label", [
    ("ac", "baecd|cebda|dabec", "case2p1 raise a voter 2"),
    ("ac", "bdcae|ecdba|adbec", "case2-repivotp1.II raise c voter 3"),
    ("ac", "becda|cbead|adebc", "case2-repivotp1.III raise a voter 1"),
    ("ac", "cdeba|dbeac|abedc", "case2-fallbackp2 raise c voter 3"),
    ("ae", "edcba|bdaec|acbde", "case2p1.IV reorder+swap voters 1,2"),
], ids=["case2p1_raise", "p1_II", "p1_III", "case2_fallback", "p1_IV"])
def test_descent_branches_reached_at_m5(np35, pair, start, label):
    """Ladder branches that no descent on NP(3,4) takes, each reached on
    NP(3,5) by the dictator of voter 1 restricted to {a, b}."""
    g = _top_among(np35, 0, (A, B))
    spec = make_spec(np35, *(orders.decode_letter(c, 5) for c in pair))
    result = collapse.reduce_to_contiguous(
        g, profiles.decode_profile(start, 3, 5), spec)
    assert result.ok, result.render(5)
    assert label in [step.move for step in result.steps]
