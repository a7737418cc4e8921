import hashlib

import pytest

import oracles
from npverify import cnf, profiles, rules, solver, verify
from npverify.errors import EncodingViolationError, TextFormatError

X, Y, Z = 0, 1, 2


@pytest.fixture(scope="module")
def base33(np33):
    return cnf.encode_base(np33)


def test_variable_count(base33, np33):
    assert base33.num_vars == 306 == len(np33) * 3
    seen = set()
    for i in range(len(np33)):
        for a in range(3):
            seen.add(base33.var(i, a))
            assert base33.profile_alt(base33.var(i, a)) == (i, a)
    assert seen == set(range(1, 307))


def test_exactly_one_clauses_present(base33, np33):
    clauses = set(base33.clauses)
    for i in range(len(np33)):
        lits = tuple(base33.var(i, a) for a in range(3))
        assert lits in clauses
        for a in range(3):
            for b in range(a + 1, 3):
                assert (-base33.var(i, a), -base33.var(i, b)) in clauses


def test_dictator_assignment_satisfies_base(base33, np33):
    for voter in range(3):
        g = rules.dictator(np33, voter)
        model = cnf.rule_assignment(g, base33)
        assert cnf.satisfies(model, base33)


def test_known_sp_family_satisfies_base(base33, np33):
    """Encoding completeness: every rule that is strategy-proof by an
    elementary argument satisfies the base formula."""
    for name, choice in oracles.known_sp_rules(3, 3).items():
        g = rules.from_function(np33, choice, label=name)
        assert cnf.satisfies(cnf.rule_assignment(g, base33), base33), name


def test_manipulable_table_falsifies_base(base33, np33):
    g = rules.dictator(np33, 0)
    table = list(g.table)
    table[7] = np33.profiles[7][0][-1]
    model = cnf.rule_assignment(rules.Rule(np33, table), base33)
    assert not cnf.satisfies(model, base33)


def test_every_model_decodes_strategy_proof(base33, np33):
    res = solver.solve_formula(base33)
    assert res.status
    g = cnf.decode_model(res.model, base33, np33)
    choice = lambda p: g.table[np33.index_of(p)]
    assert not oracles.manipulations(choice, list(np33.profiles))


def test_decode_encode_round_trip(base33, np33):
    g = rules.example1_choice
    table_rule = rules.from_function(np33, lambda p: p[1][0], label="d2")
    model = cnf.rule_assignment(table_rule, base33)
    decoded = cnf.decode_model(model, base33, np33)
    assert decoded.table == table_rule.table


def test_decode_rejects_broken_model(base33, np33):
    model = {v: False for v in range(1, base33.num_vars + 1)}
    with pytest.raises(EncodingViolationError):
        cnf.decode_model(model, base33, np33)


def test_scenario_constraint_shapes(base33, np33, star33):
    star_idx = tuple(np33.index_of(p) for p in star33)
    attains = cnf.Attains(X, tuple(range(len(np33))))
    (clause,) = attains.clauses(base33)
    assert len(clause) == 102
    subset = cnf.RangeSubset(frozenset({Y, Z}), star_idx)
    units = subset.clauses(base33)
    assert len(units) == len(star33)
    assert all(c == (-base33.var(i, X),) for c, i in zip(units, star_idx))
    excludes = cnf.RangeSubset(frozenset(range(3)) - {Z}, star_idx)
    assert excludes.clauses(base33) == [(-base33.var(i, Z),) for i in star_idx]


def test_not_dictator_constraint_checks(base33, np33):
    constraint = cnf.NotDictator(0, np33)
    assert not constraint.check(rules.dictator(np33, 0))
    assert constraint.check(rules.dictator(np33, 1))


def test_dimacs_format_exact():
    f = cnf.CnfFormula(num_vars=1, clauses=((1,),), m=1, domain_size=1)
    assert cnf.export_dimacs(f) == "p cnf 1 1\n1 0\n"


def test_base_encoding_pinned(np33, np43, np34, star43):
    """The exact base clause sequence, through its DIMACS text."""
    for domain, prefix in ((np33, "39523c1dbdd815c9"),
                           (np43, "f3422dfdc596567c"),
                           (np34, "d0f21be8e9a1901c"),
                           (star43, "f5247357ed46b127"),
                           (profiles.enumerate_np(5, 3), "868cfd3dc16da8d1")):
        text = cnf.export_dimacs(cnf.encode_base(domain))
        assert hashlib.sha256(text.encode()).hexdigest().startswith(prefix)
    clauses = cnf.encode_base(np43).clauses
    assert len({frozenset(c) for c in clauses}) == len(clauses)


def test_import_model():
    f = cnf.CnfFormula(num_vars=2, clauses=((1, -2),), m=2, domain_size=1)
    model = cnf.import_model("c comment\nv 1 -2 0\ns SATISFIABLE\n", f)
    assert model == {1: True, 2: False}
    with pytest.raises(TextFormatError):
        cnf.import_model("v 1 0\n", f)  # incomplete
    with pytest.raises(TextFormatError):
        cnf.import_model("v 1 -2 9 0\n", f)  # out of range
    with pytest.raises(TextFormatError, match="'two' at line 2"):
        cnf.import_model("s SATISFIABLE\nv 1 two 0\n", f)


def test_external_dimacs_agreement(base33, external_solver):
    binary = external_solver
    if binary is None:
        pytest.skip("no external DIMACS solver built")
    ours = solver.solve_formula(base33)
    theirs = solver.solve_external(base33, binary)
    assert ours.status == theirs.status
    gs = verify.scenario("gs_np")
    instance = gs.instances()[0]
    ours = solver.solve_formula(instance.formula)
    theirs = solver.solve_external(instance.formula, binary)
    assert ours.status == theirs.status is False
