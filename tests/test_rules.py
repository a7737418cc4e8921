import pytest

import oracles
from npverify import profiles, rules
from npverify.errors import MembershipError, ParameterError, TextFormatError

X, Y, Z = 0, 1, 2


def test_evaluate_dictator(np33):
    # (yxz, xyz, xyz) is Pareto-dominated (x over z), so exercise the
    # dictator on a wider custom domain as well as on NP
    import itertools

    everything = profiles.Domain(
        tuple(itertools.product(
            tuple(itertools.permutations(range(3))), repeat=3)),
        n=3, m=3, kind=profiles.CUSTOM)
    g = rules.dictator(everything, 0)
    assert g.evaluate(((1, 0, 2), (0, 1, 2), (0, 1, 2))) == Y
    g_np = rules.dictator(np33, 0)
    assert all(g_np.evaluate(p) == p[0][0] for p in np33)


def test_evaluate_constant(np33):
    g = rules.constant(np33, X)
    assert all(g.evaluate(p) == X for p in np33)


def test_evaluate_needs_membership(np33):
    g = rules.constant(np33, X)
    with pytest.raises(MembershipError):
        g.evaluate(((0, 1, 2),) * 3)


def test_example1_choice(np43):
    g = rules.example1(np43)
    for p in np43:
        head_y = all(oracles.prefers(v, Y, X) for v in p[:2])
        tail_y = any(oracles.prefers(v, Y, X) for v in p[2:])
        assert g.evaluate(p) == (Y if head_y and tail_y else X)
        if p[0][0] == X:
            assert g.evaluate(p) == X


def test_example1_parameter_guards(np33):
    with pytest.raises(ParameterError):
        rules.example1(np33)


def test_example1_ranges(np43, star43):
    g = rules.example1(np43)
    assert rules.range_of(g).attained == {X, Y}
    assert rules.range_of(g, star43).attained == {X}


def test_range_witnesses(np33):
    g = rules.dictator(np33, 1)
    report = rules.range_of(g)
    assert report.attained == {X, Y, Z}
    for alt, idx in report.witnesses.items():
        assert g.evaluate(np33.profiles[idx]) == alt


def test_is_dictatorial(np33, np43):
    assert rules.is_dictatorial(rules.dictator(np33, 1)).voter == 1
    report = rules.is_dictatorial(rules.constant(np33, X))
    assert report.voter == 0 and report.degenerate
    assert rules.is_dictatorial(rules.example1(np43)) is None


def test_intensional_matches_table(np33, np43):
    for g in (rules.dictator(np33, 2), rules.constant(np33, Z),
              rules.example1(np43)):
        domain = g.domain
        for i, p in enumerate(domain):
            assert g.table[i] == g.evaluate(p)


def test_clone_collapse_dictator(np43, np33):
    g = rules.dictator(np43, 3)
    collapsed = rules.clone_collapse(g)
    assert collapsed.table == rules.dictator(np33, 2).table


def test_clone_collapse_example1(np43, np33):
    g = rules.example1(np43)
    collapsed = rules.clone_collapse(g)
    assert collapsed.table == rules.constant(np33, X).table


def test_clone_collapse_pointwise(np43, np33):
    g = rules.example1(np43)
    collapsed = rules.clone_collapse(g)
    for p in np33:
        assert collapsed.evaluate(p) == g.evaluate(p + (p[-1],))


def test_clone_range_equals_star_range(np43, star43):
    for g in (rules.dictator(np43, 0), rules.example1(np43)):
        collapsed = rules.clone_collapse(g)
        assert (rules.range_of(collapsed).attained
                == rules.range_of(g, star43).attained)


def test_clone_collapse_preserves_strategy_proofness(np43):
    from npverify import strategyproof

    for g in (rules.dictator(np43, 0), rules.dictator(np43, 3),
              rules.example1(np43)):
        assert strategyproof.find_manipulation(g) is None
        collapsed = rules.clone_collapse(g)
        assert strategyproof.find_manipulation(collapsed) is None


def test_rule_file_round_trip(np33):
    g = rules.dictator(np33, 0)
    text = rules.dump_rule(g)
    loaded = rules.load_rule(text, np33)
    assert loaded.table == g.table


def test_rule_file_rejects_unknown_profile(np33):
    g = rules.constant(np33, X)
    text = rules.dump_rule(g)
    with pytest.raises(MembershipError):
        rules.load_rule(text + "xyz|xyz|xyz -> x\n", np33)
    with pytest.raises(TextFormatError):
        rules.load_rule(text.rsplit("\n", 2)[0] + "\n", np33)
    # each profile is listed once
    with pytest.raises(TextFormatError, match=r"xyz\|xyz\|zyx"):
        rules.load_rule(text + "xyz|xyz|zyx -> z\n", np33)
    # a rule line names exactly one alternative
    for letter in ("xy", ""):
        with pytest.raises(TextFormatError):
            rules.load_rule(text.replace(" -> x\n", f" -> {letter}\n", 1), np33)


def test_two_valued_weak_dictatorship(np33):
    """The dictatorship notion maximizes over the rule's range, not the
    whole universe, so a voter steering a two-element range counts."""
    from npverify import orders

    g = rules.from_function(
        np33, lambda p: X if orders.ranks_above(p[1], X, Y) else Y,
        label="pair")
    report = rules.is_dictatorial(g)
    assert report is not None and report.voter == 1 and not report.degenerate


def test_builtin_names(np33, np43):
    assert rules.builtin("dictator:2", np33).table == rules.dictator(np33, 1).table
    assert rules.builtin("constant:z", np33).table == rules.constant(np33, 2).table
    assert rules.builtin("example1", np43).label == "example1"
    with pytest.raises(ParameterError):
        rules.builtin("borda", np33)
    # voters are numbered from 1 in messages as in names
    with pytest.raises(ParameterError, match=r"voter 0 out of range 1\.\.3"):
        rules.builtin("dictator:0", np33)
