import itertools
import random

import pytest

import oracles
from npverify import decisiveness, profiles, rules, verify
from npverify.decisiveness import DECISIVE, NOT_DECISIVE, VACUOUS, Coalition
from npverify.errors import InvalidPairError, ParameterError

X, Y, Z = 0, 1, 2


def pair_rule(domain, voter, a, b):
    """Two-valued rule that follows `voter`'s ranking of {a, b}."""
    from npverify import orders

    return rules.from_function(
        domain, lambda p: a if orders.ranks_above(p[voter], a, b) else b,
        label=f"pair{voter}")


def test_constant_rule_every_coalition_decisive(np33):
    g = rules.constant(np33, X)
    report = decisiveness.minimal_decisive_families(g, np33, X, Y)
    assert len(report.decisive) == 6
    assert not report.vacuous
    assert report.monotone
    assert {c.members for c in report.minimal} == {
        frozenset({0}), frozenset({1}), frozenset({2})}
    reverse = decisiveness.minimal_decisive_families(g, np33, Y, X)
    assert not reverse.decisive


def test_two_valued_dictator_minimal_families(np33):
    g = pair_rule(np33, 1, X, Y)
    for a, b in ((X, Y), (Y, X)):
        report = decisiveness.minimal_decisive_families(g, np33, a, b)
        assert {c.members for c in report.minimal} == {frozenset({1})}
        assert report.monotone
        assert decisiveness.is_decisive(
            g, np33, Coalition.of(1), a, b) == DECISIVE
        assert decisiveness.is_decisive(
            g, np33, Coalition.of(0, 2), a, b) == NOT_DECISIVE


def test_full_coalition_vacuous_on_np(np33):
    g = pair_rule(np33, 0, X, Y)
    verdict = decisiveness.is_decisive(g, np33, Coalition.of(0, 1, 2), X, Y)
    assert verdict == VACUOUS


def test_is_decisive_guards(np33):
    g = pair_rule(np33, 0, X, Y)
    with pytest.raises(InvalidPairError):
        decisiveness.is_decisive(g, np33, Coalition.of(0), X, X)
    with pytest.raises(InvalidPairError):
        decisiveness.minimal_decisive_families(g, np33, X, X)
    with pytest.raises(ParameterError):
        decisiveness.is_decisive(g, np33, Coalition(frozenset()), X, Y)
    assert decisiveness.is_decisive(rules.dictator(np33, 0), np33,
                                    Coalition.of(0), X, Y) == NOT_DECISIVE


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


@pytest.mark.parametrize("source,queried", [
    ("np33", "np33"), ("np43", "np43"), ("np43", "star43")])
def test_verdicts_match_brute_force(request, source, queried):
    """Every coalition, the full one included, and every ordered pair:
    the one-pass verdicts equal the per-coalition two-sided scan."""
    source = request.getfixturevalue(source)
    domain = request.getfixturevalue(queried)
    n = domain.n
    coalitions = [frozenset(c) for size in range(1, n + 1)
                  for c in itertools.combinations(range(n), size)]
    seen = set()
    for g in _sample_rules(source):
        choice = dict(zip(source.profiles, g.table))
        for a, b in itertools.permutations(range(domain.m), 2):
            expected = {c: oracles.decisiveness(choice, domain.profiles,
                                                c, a, b)
                        for c in coalitions}
            for c in coalitions:
                assert decisiveness.is_decisive(
                    g, domain, Coalition(c), a, b) == expected[c]
            report = decisiveness.minimal_decisive_families(g, domain, a, b)
            assert dict((c.members, v) for c, v in report.verdicts) == {
                c: v for c, v in expected.items() if len(c) < n}
            seen.update(expected.values())
    assert seen == {DECISIVE, NOT_DECISIVE, VACUOUS}


def test_collapsed_example1_decisiveness(np43, np33):
    g = rules.clone_collapse(rules.example1(np43))
    for_x = decisiveness.minimal_decisive_families(g, np33, X, Y)
    assert len(for_x.decisive) == 6 and for_x.monotone
    for_y = decisiveness.minimal_decisive_families(g, np33, Y, X)
    assert not for_y.decisive


def test_report_rendering(np33):
    g = rules.constant(np33, X)
    report = decisiveness.minimal_decisive_families(g, np33, X, Y)
    text = report.render(np33.m)
    assert "{1} x>y : decisive" in text
    assert "monotone=true" in text


def test_coalition_cap():
    domain = profiles.Domain(
        (((0, 1),) * 13,), n=13, m=2, kind=profiles.CUSTOM)
    g = rules.constant(domain, 0)
    with pytest.raises(Exception):
        decisiveness.minimal_decisive_families(g, domain, 0, 1)


def test_transfer_dictator_clone_pair(np43):
    """A last-voter dictator pair rule: {n-1} decisive for the collapsed
    rule lifts to {n-1, n} for the restricted rule."""
    g = pair_rule(np43, 2, Y, Z)  # follows voter n-1
    report = decisiveness.transfer_check(g, Coalition.of(0), Y, Z)
    assert report.all_hold
    collapsed = rules.clone_collapse(g)
    assert decisiveness.is_decisive(
        collapsed, collapsed.domain, Coalition.of(2), Y, Z) == DECISIVE
    star = profiles.np_star(np43)
    assert decisiveness.is_decisive(
        g, star, Coalition.of(2, 3), Y, Z) == DECISIVE


def test_transfer_constant_holds_vacuously(np43):
    g = rules.constant(np43, X)
    for coalition in (Coalition.of(0), Coalition.of(1), Coalition.of(0, 1)):
        report = decisiveness.transfer_check(g, coalition, X, Y)
        assert report.all_hold


def test_transfer_example1(np43):
    g = rules.example1(np43)
    for coalition in (Coalition.of(0), Coalition.of(0, 1)):
        for pair in ((X, Y), (Y, X)):
            report = decisiveness.transfer_check(g, coalition, *pair)
            assert report.all_hold, report.render()


def test_transfer_needs_head_coalition(np43):
    g = rules.constant(np43, X)
    with pytest.raises(ParameterError):
        decisiveness.transfer_check(g, Coalition.of(3), X, Y)


def test_two_valued_np_rules_transfer(np43):
    """Rules with range {y, z} on the whole domain (the setting of the
    two-alternative range argument): solver-found instances classify into
    monotone families and satisfy the transfer statements."""
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
                g, np43, *pair)
            assert report.monotone
            for coalition in (Coalition.of(0), Coalition.of(1),
                              Coalition.of(0, 1)):
                transfer = decisiveness.transfer_check(g, coalition, *pair)
                assert transfer.all_hold, transfer.render()


def test_sat_model_rules_have_monotone_families(np43):
    """Two-valued strategy-proof rules found by the solver classify into
    monotone decisive families, and the four transfer statements hold."""
    found = verify.enumerate_models("example1_exists", k=3)
    assert found
    for rule in found:
        for pair in ((X, Y), (Y, X)):
            report = decisiveness.minimal_decisive_families(
                rule, rule.domain, *pair)
            assert report.monotone
        for coalition in (Coalition.of(0), Coalition.of(1),
                          Coalition.of(0, 1)):
            transfer = decisiveness.transfer_check(rule, coalition, Y, X)
            assert transfer.all_hold, transfer.render()
