import random

import oracles
from npverify import profiles, rules, strategyproof

X, Y, Z = 0, 1, 2


def test_dictator_not_manipulable(np33):
    assert strategyproof.find_manipulation(rules.dictator(np33, 0)) is None


def test_example1_not_manipulable(np43):
    assert strategyproof.find_manipulation(rules.example1(np43)) is None


def test_flipped_dictator_is_manipulable(np33):
    g = rules.dictator(np33, 0)
    table = list(g.table)
    # hand voter 1 their bottom choice at one profile
    target = 5
    table[target] = np33.profiles[target][0][-1]
    broken = rules.Rule(np33, table)
    witness = strategyproof.find_manipulation(broken)
    assert witness is not None
    p = np33.profiles[witness.at]
    q = np33.profiles[witness.via]
    assert sum(a != b for a, b in zip(p, q)) == 1
    assert p[witness.voter] != q[witness.voter]
    assert oracles.prefers(p[witness.voter], witness.outcome_via,
                           witness.outcome_at)
    assert witness.render(np33).startswith("voter ")


def test_known_sp_family_against_oracle(np33):
    members = list(np33.profiles)
    for name, choice in oracles.known_sp_rules(3, 3).items():
        assert not oracles.manipulations(choice, members), name
        g = rules.from_function(np33, choice, label=name)
        assert strategyproof.find_manipulation(g) is None, name


def test_random_tables_agree_with_oracle(np33):
    rng = random.Random(42)
    members = list(np33.profiles)
    for _ in range(25):
        table = [rng.randrange(3) for _ in range(len(np33))]
        g = rules.Rule(np33, table)
        choice = lambda p: table[np33.index_of(p)]
        ours = strategyproof.find_manipulation(g)
        oracle = oracles.manipulations(choice, members)
        assert (ours is None) == (not oracle)
        if ours is not None:
            p = np33.profiles[ours.at]
            q = np33.profiles[ours.via]
            assert (p, q, ours.voter) in oracle


def test_find_manipulation_deterministic(np33):
    rng = random.Random(9)
    table = [rng.randrange(3) for _ in range(len(np33))]
    g = rules.Rule(np33, table)
    first = strategyproof.find_manipulation(g)
    assert first == strategyproof.find_manipulation(g)


def test_propagation_empty_fixed_point(np33):
    result = strategyproof.forced_value_propagation(np33, {})
    assert result.contradiction is None
    assert result.forced == {}
    assert all(c == frozenset({0, 1, 2}) for c in result.candidates)


def test_propagation_monotone_and_idempotent(np33, star33):
    assignments = {np33.index_of(p): X for p in star33}
    first = strategyproof.forced_value_propagation(np33, assignments)
    assert first.contradiction is None
    again = strategyproof.forced_value_propagation(np33, first.forced)
    assert again.contradiction is None
    for c_first, c_again in zip(first.candidates, again.candidates):
        assert c_again <= c_first or c_first == c_again
    # idempotent: running on the forced map cannot disturb forced values
    for idx, alt in first.forced.items():
        assert again.candidates[idx] == frozenset({alt})


def test_propagation_never_contradicts_x_with_x_on_top(np43, star43):
    """With the agreeing subdomain pinned to x, x survives at every
    profile where a head voter ranks x on top."""
    assignments = {np43.index_of(p): X for p in star43}
    result = strategyproof.forced_value_propagation(np43, assignments)
    assert result.contradiction is None
    for i, p in enumerate(np43):
        if any(v[0] == X for v in p[:2]):
            assert X in result.candidates[i]


def test_propagation_contradiction_is_reported(np33):
    # assigning voter 1's bottom at p pins every voter-1 variant to that
    # same value; assigning a variant anything else must contradict
    p = np33.profiles[0]
    q = profiles.variants(np33, p, 0)[0]
    i, j = np33.index_of(p), np33.index_of(q)
    worst = p[0][-1]
    other = p[0][0]
    result = strategyproof.forced_value_propagation(np33, {i: worst, j: other})
    assert result.contradiction is not None
