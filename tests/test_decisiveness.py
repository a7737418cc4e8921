import itertools
import random

import pytest

import oracles
from npverify import decisiveness, profiles, rules, verify
from npverify.decisiveness import DECISIVE, NOT_DECISIVE, VACUOUS
from npverify.errors import InvalidPairError, SizeCapError

X, Y, Z = 0, 1, 2


def pair_rule(domain, voter, a, b):
    """Two-valued rule that follows `voter`'s ranking of {a, b}."""
    from npverify import orders

    return rules.from_function(
        domain, lambda p: a if orders.ranks_above(p[voter], a, b) else b,
        label=f"pair{voter}")


def test_constant_rule_every_coalition_decisive(np33):
    g = rules.constant(np33, X)
    report = decisiveness.minimal_decisive_families(g, X, Y)
    assert len(report.decisive) == 6
    assert not report.vacuous
    assert report.monotone
    assert {c.members for c in report.minimal} == {
        frozenset({0}), frozenset({1}), frozenset({2})}
    reverse = decisiveness.minimal_decisive_families(g, Y, X)
    assert not reverse.decisive


def test_two_valued_dictator_minimal_families(np33):
    g = pair_rule(np33, 1, X, Y)
    for a, b in ((X, Y), (Y, X)):
        report = decisiveness.minimal_decisive_families(g, a, b)
        assert {c.members for c in report.minimal} == {frozenset({1})}
        assert report.monotone


def test_is_decisive_guards(np33):
    """The guards of `minimal_decisive_families`: a == b raises
    InvalidPairError, and under the dictator of voter 1 on three
    alternatives voter 1's own coalition is NOT_DECISIVE for (x, y),
    because that voter's top can be z."""
    g = pair_rule(np33, 0, X, Y)
    with pytest.raises(InvalidPairError):
        decisiveness.minimal_decisive_families(g, X, X)
    report = decisiveness.minimal_decisive_families(
        rules.dictator(np33, 0), X, Y)
    assert dict((c.members, v) for c, v in report.verdicts)[
        frozenset({0})] == NOT_DECISIVE


def _sample_rules(domain):
    """A constant, a dictator, a pair rule and three seeded random
    two-valued tables."""
    rng = random.Random(len(domain))
    found = [rules.constant(domain, X), rules.dictator(domain, 0),
             pair_rule(domain, domain.n - 2, Y, Z)]
    for _ in range(3):
        alts = rng.sample(range(domain.m), 2)
        found.append(rules.Rule(domain, [rng.choice(alts) for _ in domain]))
    return found


@pytest.mark.parametrize("domain", ["np33", "np43", "star43"])
def test_verdicts_match_brute_force(request, domain):
    """Every coalition, the full one included, and every ordered pair:
    the one-pass verdicts over the rule's domain equal the per-coalition
    two-sided scan."""
    domain = request.getfixturevalue(domain)
    n = domain.n
    coalitions = [frozenset(c) for size in range(1, n + 1)
                  for c in itertools.combinations(range(n), size)]
    seen = set()
    for g in _sample_rules(domain):
        choice = dict(zip(domain.profiles, g.table))
        for a, b in itertools.permutations(range(domain.m), 2):
            expected = {c: oracles.decisiveness(choice, domain.profiles,
                                                c, a, b)
                        for c in coalitions}
            verdicts = decisiveness._verdicts(g, a, b)
            for c in coalitions:
                assert verdicts.get(c, VACUOUS) == expected[c]
            report = decisiveness.minimal_decisive_families(g, a, b)
            assert dict((c.members, v) for c, v in report.verdicts) == {
                c: v for c, v in expected.items() if len(c) < n}
            seen.update(expected.values())
    assert seen == {DECISIVE, NOT_DECISIVE, VACUOUS}


def test_report_rendering(np33):
    g = rules.constant(np33, X)
    report = decisiveness.minimal_decisive_families(g, X, Y)
    text = report.render(np33.m)
    assert "{1} x>y : decisive" in text
    assert "monotone=true" in text


def test_coalition_cap():
    domain = profiles.Domain(
        (((0, 1),) * 13,), n=13, m=2, kind=profiles.CUSTOM)
    g = rules.constant(domain, 0)
    with pytest.raises(SizeCapError):
        decisiveness.minimal_decisive_families(g, 0, 1)


def test_two_valued_np_rules_transfer(np43):
    """Three solver-found strategy-proof rules with range {y, z} on the
    whole domain have monotone decisive families for both orders of the
    pair."""
    from npverify import cnf, solver, strategyproof

    base = cnf.encode_base(np43)
    formula = cnf.add_scenario(
        base, cnf.RangeSubset(frozenset({Y, Z}), tuple(range(len(np43)))))
    formula = cnf.add_scenario(formula, cnf.Attains(Y, tuple(range(len(np43)))))
    formula = cnf.add_scenario(formula, cnf.Attains(Z, tuple(range(len(np43)))))
    found = []
    while len(found) < 3:
        res = solver.solve_formula(formula)
        assert res.status, "two-valued strategy-proof rules must exist"
        g = cnf.decode_model(res.model, formula, np43)
        assert strategyproof.find_manipulation(g) is None
        found.append(g)
        formula = formula.extended(
            [tuple(-formula.var(i, a) for i, a in enumerate(g.table))])
    for g in found:
        for pair in ((Y, Z), (Z, Y)):
            report = decisiveness.minimal_decisive_families(
                g, *pair)
            assert report.monotone


def test_sat_model_rules_have_monotone_families(np43):
    """Two-valued strategy-proof rules found by the solver classify into
    monotone decisive families."""
    found = verify.enumerate_models("example1_exists", k=3)
    assert found
    for rule in found:
        for pair in ((X, Y), (Y, X)):
            report = decisiveness.minimal_decisive_families(
                rule, *pair)
            assert report.monotone
