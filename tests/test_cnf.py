import hashlib
import io
import tracemalloc

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
    f = cnf.CnfFormula(clauses=((1,),), m=1, domain_size=1)
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
    f = cnf.CnfFormula(clauses=((1, -2),), m=2, domain_size=1)
    model = cnf.import_model("c comment\nv 1 -2 0\ns SATISFIABLE\n", f)
    assert model == [False, True, False]
    with pytest.raises(TextFormatError):
        cnf.import_model("v 1 0\n", f)  # incomplete
    with pytest.raises(TextFormatError):
        cnf.import_model("v 1 -2 9 0\n", f)  # out of range
    with pytest.raises(TextFormatError, match="'two' at line 2"):
        cnf.import_model("s SATISFIABLE\nv 1 two 0\n", f)
    with pytest.raises(TextFormatError, match="variable 1 both signs"):
        cnf.import_model("v 1 -1 -2 0\n", f)
    with pytest.raises(TextFormatError, match="variable 2 both signs"):
        cnf.import_model("v 1 -2\nv 2 0\n", f)  # across lines
    assert cnf.import_model("v 1 1 -2 0\n", f) == [False, True, False]


def test_clause_store_round_trip():
    clauses = [(1, -2), (3,), (), (-1, 2, -3, 4)]
    store = cnf.ClauseStore.of(clauses)
    assert len(store) == 4 and list(store) == clauses
    more = store + cnf.ClauseStore.of([(5,)])
    assert len(more) == 5 and list(more) == clauses + [(5,)]
    assert list(store) == clauses  # the operands are unchanged
    f = cnf.CnfFormula(clauses=clauses, m=1, domain_size=4)
    assert f.clauses == store
    assert cnf.export_dimacs(f) == "p cnf 4 4\n1 -2 0\n3 0\n0\n-1 2 -3 4 0\n"
    with pytest.raises(ValueError, match="out of range"):
        cnf.ClauseStore.of([(1, 0)])
    # A literal past any variable is rejected when a core loads it.
    huge = cnf.CnfFormula(clauses=[(2**40,)], m=1, domain_size=4)
    with pytest.raises(ValueError, match="out of range"):
        solver.solve_formula(huge)


def test_layered_store_shares_its_base():
    """Clauses added to a formula sit on its plain base store, which is
    never copied: adding to a layered formula copies only the clauses
    above the base."""
    f = cnf.CnfFormula(clauses=[(1, 2), (-3,)], m=1, domain_size=3)
    once = f.extended([(3, -1, 2)])
    twice = once.extended([(-2,)])
    assert once.clauses.base is f.clauses is twice.clauses.base
    assert twice.clauses.own == ((3, -1, 2), (-2,))
    assert len(twice.clauses) == 4
    assert list(twice.clauses) == [(1, 2), (-3,), (3, -1, 2), (-2,)]
    assert list(once.clauses) == [(1, 2), (-3,), (3, -1, 2)]
    assert twice.clauses == cnf.ClauseStore.of(list(twice.clauses))
    assert twice.clauses != once.clauses
    assert cnf.export_dimacs(twice, assumptions=(1, -2)) == (
        "p cnf 3 6\n1 2 0\n-3 0\n3 -1 2 0\n-2 0\n1 0\n-2 0\n")
    with pytest.raises(ValueError, match="plain"):
        cnf.ClauseStore(twice.clauses.own, base=once.clauses)


def test_export_to_a_handle_matches_the_text(base33, tmp_path):
    path = tmp_path / "base.cnf"
    with path.open("w") as fh:
        assert cnf.export_dimacs(base33, fh) is None
    text = path.read_text()
    assert text == cnf.export_dimacs(base33)
    lines = text.splitlines()
    assert lines[0] == f"p cnf {base33.num_vars} {len(base33.clauses)}"
    assert [tuple(map(int, line.split()[:-1])) for line in lines[1:]] \
        == list(base33.clauses)


def test_store_memory(np43):
    """Encoding the NP(4, 3) base retains under 1 MB, as it holds no
    clause and only a session or a reader of its clauses walks it (a
    tuple per clause retains 4.4 MB), and adding scenario clauses layers
    them on the base, copying neither."""
    cnf.encode_base(np43)  # warm the per-m tables
    star = verify.np_star_indices(4, 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        base = cnf.encode_base(np43)
        retained = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        constrained = cnf.add_scenario(
            base, cnf.RangeSubset(frozenset({X}), star),
            cnf.Attains(Y, tuple(range(len(np43)))),
            cnf.NotDictator(0, np43))
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(base.clauses) == 34080
    assert len(constrained.clauses) == 34080 + len(star) * 2 + 2
    assert retained < 1_000_000
    assert allocated < 1_000_000


def test_export_streams_the_base(np43, tmp_path):
    """Exporting the NP(4, 3) base to a handle streams its clauses from
    the walk of the encoding: nothing the size of the formula is held
    during the export or kept after it, and the text is the pinned one."""
    cnf.export_dimacs(cnf.encode_base(np43), io.StringIO())  # warm tables
    base = cnf.encode_base(np43)
    path = tmp_path / "base.cnf"
    with path.open("w") as fh:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cnf.export_dimacs(base, fh)
            retained, peak = (n - before
                              for n in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    text = path.read_text()
    assert hashlib.sha256(text.encode()).hexdigest().startswith(
        "f3422dfdc596567c")
    assert retained < 50_000
    assert peak < 1_000_000


def test_external_dimacs_agreement(base33, external_solver):
    binary = external_solver
    if binary is None:
        pytest.skip("no external DIMACS solver built")
    ours = solver.solve_formula(base33)
    theirs = solver.solve_external(base33, binary)
    assert ours.status == theirs.status
    gs = verify.scenario("gs_np")
    instance = gs.instances()[0]
    assert not instance.assumptions
    ours = solver.solve_formula(instance.base)
    theirs = solver.solve_external(instance.base, binary)
    assert ours.status == theirs.status is False
