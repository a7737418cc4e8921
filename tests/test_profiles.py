import inspect
import random

import pytest

import oracles
from npverify import orders, profiles, verify
from npverify.errors import (
    DomainKindError,
    MembershipError,
    ParameterError,
    SizeCapError,
    TextFormatError,
)

XYZ = (0, 1, 2)
ZYX = (2, 1, 0)


def test_part1_list_profiles_undominated():
    for profile in verify.build_list_part1(3).values():
        assert not oracles.has_dominated_pair(profile)


def test_is_np_examples():
    assert not profiles.is_np((XYZ, XYZ, XYZ))
    assert profiles.is_np((XYZ, ZYX, XYZ))  # an inverted voter opposes all pairs
    lists = verify.build_list_part2(4)
    assert profiles.is_np(lists["L4"])


def test_np_counts_against_oracle(np33, np43):
    oracle33 = oracles.np_members(3, 3)
    assert len(np33) == len(oracle33) == 102
    assert set(np33.profiles) == set(oracle33)
    assert oracles.np_count_inclusion_exclusion(3, 3) == 102

    oracle43 = oracles.np_members(4, 3)
    assert len(np43) == len(oracle43) == 906
    assert set(np43.profiles) == set(oracle43)
    assert oracles.np_count_inclusion_exclusion(4, 3) == 906


def test_np_3_4_count_against_oracle(np34):
    assert len(np34) == 3624
    assert oracles.np_count_inclusion_exclusion(3, 4) == 3624


def test_np_membership_predicate_boundary(np33):
    universe = oracles.all_orders(3)
    rng = random.Random(0)
    excluded = 0
    while excluded < 50:
        candidate = tuple(rng.choice(universe) for _ in range(3))
        if candidate not in np33:
            assert oracles.has_dominated_pair(candidate)
            excluded += 1
    for p in np33:
        assert not oracles.has_dominated_pair(p)


def test_np_trivial_universe():
    assert len(profiles.enumerate_np(3, 1)) == 1


def test_np_parameter_guards():
    with pytest.raises(ParameterError):
        profiles.enumerate_np(1, 3)
    with pytest.raises(SizeCapError):
        profiles.enumerate_np(8, 4)
    assert len(profiles.enumerate_np(2, 3)) == 6


def test_size_cap_builds_no_orderings(monkeypatch):
    """(m!)^n is checked before the m! orderings are built: rejecting
    NP(2, 12), with 479,001,600 orderings, allocates nothing."""
    def refuse(m):
        raise AssertionError(f"all {m}! orderings built")

    monkeypatch.setattr(orders, "all_orderings", refuse)
    with pytest.raises(SizeCapError):
        profiles.enumerate_np(2, 12)


def test_enumerate_np_matches_direct_filter(np35):
    """The prefix-mask enumeration yields exactly the direct filter of the
    full product, in the same order; NP(3,5) is checked by count and
    membership, its full product being 1.7M profiles."""
    for n, m in [(2, 3), (3, 3), (4, 3), (3, 4), (5, 3)]:
        assert (list(profiles.enumerate_np(n, m).profiles)
                == oracles.np_members(n, m)), (n, m)
    assert len(np35) == 227_880
    assert all(profiles.is_np(p) for p in np35)


def test_canonical_order_is_lexicographic(np33):
    assert list(np33.profiles) == sorted(np33.profiles)


def test_np_star(np33, star33, np43, star43):
    assert len(star33) == 6
    assert set(star33.profiles) == set(oracles.np_star_members(3, 3))
    # with the last two voters sharing R, the remaining voter must invert R
    for p in star33:
        assert p[0] == p[1][::-1]
    assert len(star43) == len(oracles.np_star_members(4, 3)) == 102
    for p in star33:
        assert profiles.is_np(p)
    with pytest.raises(DomainKindError):
        profiles.np_star(star33)


def test_variants_bounds_and_membership(np33):
    for p in list(np33)[:20]:
        for voter in range(3):
            vs = profiles.variants(np33, p, voter)
            assert len(vs) <= 5
            assert p not in vs
            for q in vs:
                assert q in np33
                assert sum(a != b for a, b in zip(p, q)) == 1


def test_variant_symmetry_exhaustive(np33):
    for p in np33:
        for voter in range(3):
            for q in profiles.variants(np33, p, voter):
                assert p in profiles.variants(np33, q, voter)


@pytest.fixture(params=["np33", "np43", "np34", "star43", "reversed43"])
def pair_domain(request):
    if request.param == "reversed43":
        np43 = request.getfixturevalue("np43")
        return profiles.Domain(tuple(reversed(np43.profiles)), n=4, m=3)
    return request.getfixturevalue(request.param)


def test_variant_pairs_against_references(pair_domain):
    """The bucketed index equals the brute-force pair set, and the
    sequence rebuilt from `variants` item for item, also on a domain not
    listed in canonical order."""
    assert inspect.isgeneratorfunction(profiles.variant_pairs)
    domain = pair_domain
    pairs = list(profiles.variant_pairs(domain))
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == oracles.variant_pairs(list(domain.profiles))
    reference = [(i, j, voter)
                 for i, p in enumerate(domain)
                 for voter in range(domain.n)
                 for j in map(domain.index_of,
                              profiles.variants(domain, p, voter))
                 if j > i]
    assert pairs == reference


@pytest.mark.parametrize("n,count", [(2, 6), (3, 102), (4, 906), (5, 6510)])
def test_np_star_drops_last_voter_onto_np(n, count):
    """The n-induction as data: dropping the last voter maps NP*(n+1, 3)
    one-to-one onto NP(n, 3), in canonical order."""
    star = profiles.np_star(profiles.enumerate_np(n + 1, 3))
    smaller = profiles.enumerate_np(n, 3)
    assert len(star) == len(smaller) == count
    assert [p[:-1] for p in star] == list(smaller.profiles)


def test_variants_needs_membership(np33):
    with pytest.raises(MembershipError):
        profiles.variants(np33, (XYZ, XYZ, XYZ), 0)


def test_forced_voter_has_no_variants(np33, star33):
    """When the last two voters agree, the first voter's ordering is the
    unique one keeping the profile undominated, so it has no variants."""
    for p in star33:
        assert profiles.variants(np33, p, 0) == ()


def test_profile_codec():
    p = (XYZ, ZYX, XYZ)
    assert profiles.encode_profile(p) == "xyz|zyx|xyz"
    assert profiles.decode_profile("xyz|zyx|xyz", 3, 3) == p
    with pytest.raises(TextFormatError):
        profiles.decode_profile("xyz|zy", 2, 3)
    with pytest.raises(TextFormatError):
        profiles.decode_profile("xyz|zyx", 3, 3)


def test_domain_file_round_trip(star33):
    lines = profiles.dump_domain(star33).splitlines()
    assert len(lines) == len(star33)
    for k, line in enumerate(lines):
        assert profiles.decode_profile(line, 3, 3) == star33.profiles[k]


def test_domain_index_lookup(np33):
    for i, p in enumerate(np33):
        assert np33.index_of(p) == i
