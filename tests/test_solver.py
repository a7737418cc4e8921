import bisect
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from npverify import cnf, profiles, satcore, solver, verify
from npverify.errors import (
    ContractError,
    ExternalSolverError,
    ParameterError,
    SolverCapError,
    TextFormatError,
)


def clause_formula(num_vars, clauses):
    """A formula over bare variables: one "profile" per variable."""
    return cnf.CnfFormula(clauses=tuple(tuple(c) for c in clauses),
                          m=1, domain_size=num_vars)


def run_pure(num_vars, clauses, **kw):
    return solver.solve_formula(clause_formula(num_vars, clauses), **kw)


def test_trivial_sat():
    res = run_pure(2, [[1, 2], [-1]])
    assert res.status and res.model[2] is True and res.model[1] is False


def test_trivial_unsat():
    assert not run_pure(1, [[1], [-1]]).status


def test_empty_clause_unsat():
    assert not run_pure(2, [[1], []]).status


def test_tautology_dropped():
    res = run_pure(2, [[1, -1], [2]])
    assert res.status and res.model[2] is True


def test_model_is_total():
    res = run_pure(5, [[1]])
    assert res.status
    assert len(res.model) == 6 and res.model[1] is True
    assert all(isinstance(value, bool) for value in res.model)


def test_cap_error(monkeypatch):
    # a small pigeonhole-flavored hard-ish formula cannot finish in 1 conflict
    monkeypatch.setattr(satcore, "MAX_CONFLICTS", 0)
    clauses = [[1, 2], [-1, -2], [1, -2], [-1, 2]]
    core = satcore.Solver(2, clauses)
    with pytest.raises(SolverCapError):
        core.solve()


clause_strategy = st.lists(
    st.lists(st.integers(min_value=1, max_value=7).flatmap(
        lambda v: st.sampled_from([v, -v])), min_size=1, max_size=4),
    min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(clause_strategy)
def test_pure_against_brute_force(clauses):
    res = run_pure(7, clauses)
    brute = oracles.brute_sat(7, clauses)
    assert res.status == (brute is not None)
    if res.status:
        assert oracles.eval_clauses(clauses, res.model)


literal6 = st.integers(min_value=1, max_value=6).flatmap(
    lambda v: st.sampled_from([v, -v]))
incremental_calls = st.lists(
    st.tuples(st.lists(literal6, max_size=4),
              st.none() | st.lists(literal6, max_size=3)),
    min_size=1, max_size=6)


class CountingSolver(satcore.Solver):
    """Counts the search work of each `solve()` at its own boundaries,
    independently of the core's counters."""

    def solve(self):
        self.work = dict.fromkeys(
            ("decisions", "conflicts", "propagations", "learned"), 0)
        return super().solve()

    def _propagate(self):
        before = self.qhead
        confl = super()._propagate()
        self.work["propagations"] += self.qhead - before
        self.work["conflicts"] += confl != satcore.UNDEF
        return confl

    def _pick_branch_var(self):
        self.work["decisions"] += 1
        return super()._pick_branch_var()

    def _record(self, learnt):
        self.work["learned"] += 1
        return super()._record(learnt)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(literal6, min_size=1, max_size=3), min_size=1,
                max_size=25),
       incremental_calls, st.integers(min_value=0, max_value=3))
def test_incremental_matches_fresh_solves(clauses, calls, seed):
    """One core answering a sequence of assumption sets (with clauses
    added between calls) agrees with a fresh solve of the formula plus
    the assumptions as unit clauses."""
    core = CountingSolver(6, clauses, seed=seed)
    formula = [list(c) for c in clauses]
    for assumptions, added in calls:
        if added is not None:
            core.add_clause(added)
            formula.append(list(added))
        core.assume(assumptions)
        status = core.solve()
        units = [[lit] for lit in assumptions]
        assert status == run_pure(6, formula + units).status
        assert core.stats() == core.work
        if status:
            model = core.model()
            assert oracles.eval_clauses(formula + units, model)
        else:
            failed = core.failed()
            assert set(failed) <= set(assumptions)
            assert oracles.brute_sat(6, formula
                                     + [[lit] for lit in failed]) is None


def check_value_table(core):
    """`values` mirrors the trail literal by literal, and `trail_lim`
    splits the trail into the levels its literals were assigned at."""
    values = core.values
    for var in range(1, core.num_vars + 1):
        pos, neg = values[2 * var], values[2 * var + 1]
        assert (pos, neg) in {(satcore.UNDEF, satcore.UNDEF), (1, 0), (0, 1)}
    true_lits = [lit for lit, value in enumerate(values) if value == 1]
    assert sorted(true_lits) == sorted(core.trail)
    for index, lit in enumerate(core.trail):
        assert core.level[lit >> 1] == bisect.bisect_right(core.trail_lim,
                                                           index)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(literal6, min_size=1, max_size=3), min_size=1,
                max_size=25),
       incremental_calls, st.integers(min_value=0, max_value=3))
def test_value_table_mirrors_trail(clauses, calls, seed):
    core = satcore.Solver(6, clauses, seed=seed)
    check_value_table(core)
    for assumptions, added in calls:
        if added is not None:
            core.add_clause(added)
            check_value_table(core)
        core.assume(assumptions)
        core.solve()
        check_value_table(core)


def test_incremental_core_details():
    core = satcore.Solver(3, [[1, 2], [-1, 3]])
    core.assume([1, -3])
    assert core.solve() is False
    assert sorted(core.failed()) == [-3, 1]
    core.assume([2, 2, -1])  # a repeated assumption opens an empty level
    assert core.solve() is True
    assert core.stats()["decisions"] == 1  # variable 3; assumptions free
    core.add_clause([-2])
    core.assume([-1])
    assert core.solve() is False and core.failed() == [-1]
    assert core.solve() is True  # assumptions last one call
    core.add_clause([-1])
    assert core.solve() is False and core.failed() == []
    core.assume([3])
    assert core.solve() is False and core.failed() == []
    with pytest.raises(ValueError):
        core.assume([4])

    # Literals fixed at level 0 are not propagated again, so an added
    # clause must not watch them.
    fixed = satcore.Solver(3, [[-1], [-2]])
    assert fixed.solve() is True
    fixed.add_clause([1, 2, 3])
    fixed.assume([-3])
    assert fixed.solve() is False and fixed.failed() == [-3]
    fixed.add_clause([1, 2])
    assert fixed.solve() is False


binary_clause = st.lists(literal6, min_size=1, max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.lists(binary_clause, min_size=1, max_size=25),
       st.lists(literal6, max_size=4))
def test_binary_formulas_against_brute_force(clauses, assumptions):
    """Formulas of binary and unit clauses only: every clause lives in the
    implication lists, and the verdict, the model and the refuted
    assumptions are checked by exhaustion."""
    core = CountingSolver(6, clauses)
    assert core.clauses == []
    core.assume(assumptions)
    status = core.solve()
    units = [[lit] for lit in assumptions]
    assert status == (oracles.brute_sat(6, clauses + units) is not None)
    assert core.stats() == core.work
    if status:
        assert oracles.eval_clauses(clauses + units, core.model())
    else:
        failed = core.failed()
        assert set(failed) <= set(assumptions)
        assert oracles.brute_sat(6, clauses
                                 + [[lit] for lit in failed]) is None


def test_binary_clause_loading():
    repeated = satcore.Solver(2, [[1, 1]])  # (x, x) is the unit x
    assert not any(repeated.binaries)
    assert repeated.solve() is True and repeated.model()[1] is True
    repeated.assume([-1])
    assert repeated.solve() is False and repeated.failed() == [-1]

    tautology = satcore.Solver(1, [[1, -1]])  # (x, -x) is dropped
    assert not any(tautology.binaries)
    for lit in (1, -1):
        tautology.assume([lit])
        assert tautology.solve() is True

    for clauses in ([[1, 3]], [[-3, 1]], [[0, 1]], [[1, -1], [2, 3]]):
        with pytest.raises(ValueError, match="out of range"):
            satcore.Solver(2, clauses)
    core = satcore.Solver(2, [[1, 2]])
    with pytest.raises(ValueError, match="out of range"):
        core.add_clause([1, -3])
    core.add_clause([-1, -2])
    # Encoded literals: 1 is 2, -1 is 3, 2 is 4, -2 is 5.
    assert core.binaries == [[], [], [4], [5], [2], [3]]
    core.assume([1])
    assert core.solve() is True and core.model()[1:] == [True, False]


@pytest.mark.parametrize("clauses", [
    [[1]],  # a unit alone
    [[1, 2], [3]],  # a unit last
    [[2], [1, 2], [-3, 1]],  # a unit first
    [[1, 1], [-2, 3]],  # a repeated literal is a unit
    [[1, -1], [2, 3]],  # a tautology is dropped
    [[1, 2, 3], [1, -1, 2], [3, 3, 3]],  # long clauses, reduced or dropped
    [[1, 2], []],  # an empty clause last
    [[], [1, 2]],  # an empty clause first
    [[1], [], [2]],  # a unit then an empty clause
    [[1], [-1], [2, 3]],  # contradicting units stop the load
    [[1, 2], [-2, 3, 1, 2], [3], [-1, -3]],
], ids=["unit", "unit-last", "unit-first", "repeated", "tautology", "long",
        "empty-last", "empty-first", "unit-empty", "contradiction", "mixed"])
def test_loader_edge_cases_against_brute_force(clauses):
    """A core loaded with the clauses, and one opened on an index of
    them, decide them as exhaustion does."""
    sat = oracles.brute_sat(3, clauses) is not None
    for core in (satcore.Solver(3, clauses),
                 satcore.Solver(3, [], base=satcore.BaseIndex(3, clauses))):
        assert core.solve() is sat
        if sat:
            assert oracles.eval_clauses(clauses, core.model())


def index_state(index):
    return (index.binaries, index.clauses, index.trail, index.values,
            index.ok)


def test_sessions_on_one_index_leave_it_and_each_other_alone():
    """Session A learns binary clauses and adds one; the shared index
    still equals a freshly built one, and session B on the same index
    answers exactly as a session on a fresh base does."""
    domain = verify.np_domain(3, 3)
    full_range = verify.scenario("sanity_sat").instances()[0].constraints
    gs = verify.scenario("gs_np").instances()[0].constraints
    base = cnf.encode_base(domain)
    formula_a = cnf.add_scenario(base, *full_range)
    formula_b = cnf.add_scenario(base, *gs)
    a = solver.Session(formula_a)
    b = solver.Session(formula_b, seed=5)
    index = base.clauses.index
    assert index is not None and a._core._shared is index.binaries \
        and b._core._shared is index.binaries

    first = a.solve()
    assert first.status and first.stats["learned"] > 0
    grown = [p for p, (own, shared) in enumerate(zip(a._core.binaries,
                                                    index.binaries))
             if len(own) > len(shared)]
    assert grown  # the search learned binary clauses
    core = a._core
    v1, v2 = [v for v in range(1, base.num_vars + 1)
              if first.model[v] and core.level[v] > 0][:2]
    a.add_clause([-v1, -v2])
    assert core._encode(-v2) in core.binaries[core._encode(-v1)]
    assert core._encode(-v2) not in index.binaries[core._encode(-v1)]
    second = a.solve()
    assert second.status and not (second.model[v1] and second.model[v2])

    fresh_base = cnf.encode_base(domain)
    assert index_state(index) == index_state(
        satcore.BaseIndex(fresh_base.num_vars, fresh_base.clauses))
    fresh = solver.Session(cnf.add_scenario(fresh_base, *gs), seed=5)
    assert fresh._core._shared is not index.binaries
    got, want = b.solve(), fresh.solve()
    assert got == want and not got.status
    assert got.stats["conflicts"] > 0


def test_index_writer_equals_a_load_of_the_dimacs_array(np33, np43, np34,
                                                       star43):
    """The index that the walk writes equals the one that the general
    clause path builds from the walk's clause stream clause by clause,
    on the pinned bases, NP(5, 3), and NP(3, 2) and NP(2, 1), whose
    exactly-one groups are a binary clause and a unit."""
    for domain in (np33, np43, np34, star43, profiles.enumerate_np(5, 3),
                   profiles.enumerate_np(3, 2), profiles.enumerate_np(2, 1)):
        base = cnf.encode_base(domain)
        written = satcore.BaseIndex(base.num_vars, base.clauses)
        loaded = satcore.BaseIndex(base.num_vars, iter(base.clauses))
        assert index_state(written) == index_state(loaded)
        assert written.lits == loaded.lits


def core_state(core):
    return (core.binaries, core.clauses, core.watches, core.trail,
            core.values, core.ok)


@pytest.mark.parametrize("n", [3, 4])
def test_opened_core_equals_a_fresh_load(n):
    """Every distinct formula of the catalogue at n voters, and the first
    instance of each scenario with its assumptions as units: a core
    opened on the shared base index, written from the walk, ends in the
    state of an empty core loaded with the whole formula, whose base a
    scenario formula reads from the walk's clause stream clause by
    clause."""
    for scn in verify.list_scenarios():
        try:
            instances = verify.scenario(scn.name, n).instances()
        except ParameterError:
            continue  # the scenario needs more voters
        formulas = {id(i.base): i.base for i in instances}
        first = instances[0]
        if first.assumptions:
            formulas["first"] = first.base.extended(
                (lit,) for lit in first.assumptions)
        for f in formulas.values():
            opened = solver.Session(f)._core
            base = f.clauses if f.clauses.base is None else f.clauses.base
            assert opened._shared is base.index.binaries
            assert core_state(opened) == core_state(
                satcore.Solver(f.num_vars, f.clauses))


def watched_literals(core):
    """The literals that a long clause of `core` watches, each clause on
    its first two literals, checked against the watch lists."""
    watched = {c[k] for c in core.clauses for k in (0, 1)}
    for c in core.clauses:
        assert any(w is c for w in core.watches[c[0]])
        assert any(w is c for w in core.watches[c[1]])
    assert sum(len(ws) for ws in core.watches if ws) == 2 * len(core.clauses)
    return watched


def test_only_watched_literals_have_watch_lists():
    """A literal gets a watch list when a long clause first watches it:
    in a fresh session on the NP(4,3) base exactly the watched literals
    have one, and after a solve that learns long clauses exactly the
    watched literals have a non-empty one."""
    base = verify._encoded_base(4, 3)
    core = solver.Session(base)._core
    assert {p for p, ws in enumerate(core.watches) if ws is not None} \
        == watched_literals(core)

    instance = verify.scenario("sanity_sat", n=4).instances()[0]
    session = solver.Session(instance.base)
    core = session._core
    loaded = len(core.clauses)
    assert {p for p, ws in enumerate(core.watches) if ws is not None} \
        == watched_literals(core)
    assert session.solve(instance.assumptions).status
    assert len(core.clauses) > loaded  # the search learned long clauses
    assert {p for p, ws in enumerate(core.watches) if ws} \
        == watched_literals(core)
    assert len(watched_literals(core)) < len(core.watches) // 2


def test_session_rejects_an_index_of_another_size():
    index = satcore.BaseIndex(3, [[1, 2]])
    with pytest.raises(ValueError, match="3 variables"):
        satcore.Solver(4, [], base=index)


@pytest.mark.parametrize("clauses", [
    [[1, 4]], [[4, 1]], [[1], [-4]], [[1, 2, 3, -4]], [[1, 2], [3, 5, 1]],
    [[1, -1, 5]], [[2, 5, -2]]])
def test_loader_rejects_out_of_range_literals(clauses):
    for load in (lambda: satcore.Solver(3, cnf.ClauseStore.of(clauses)),
                 lambda: satcore.Solver(3, clauses)):
        with pytest.raises(ValueError, match="out of range"):
            load()


def test_binary_conflict_at_level_zero_is_final():
    core = satcore.Solver(2, [[1, 2], [1, -2], [-1]])
    assert core.solve() is False and core.failed() == []
    assert core.stats()["conflicts"] == 1
    core.add_clause([2])
    core.assume([2])
    assert core.solve() is False and core.failed() == []
    assert core.solve() is False


def test_long_clause_conflict_at_level_zero_is_final():
    core = satcore.Solver(3, [[1, 2, 3]])
    for lit in (-1, -2, -3):
        core.add_clause([lit])
    assert core.solve() is False and core.failed() == []
    assert core.stats()["conflicts"] == 1
    assert core.solve() is False


def test_long_clause_as_a_reason_in_analyze_final():
    """The assumptions 1 and 2 make the ternary clause imply 3, whose
    binary clause implies 4 against the assumption -4: the refuted set
    runs back through the long clause, which is the reason of 3."""
    core = satcore.Solver(4, [[-1, -2, 3], [-3, 4]])
    core.assume([1, 2, -4])
    assert core.solve() is False
    assert sorted(core.failed()) == [-4, 1, 2]
    assert core.reason[3] is core.clauses[0]


def test_learned_binary_clause_as_a_reason_in_analyze_final():
    """Deciding 1 then 2 falsifies a ternary clause; the conflict teaches
    the binary clause (-1, -2), which later implies -2 from the assumption
    1 and so names 1 in the refuted set of the assumptions [1, 2]."""
    core = satcore.Solver(3, [[-1, -2, 3], [-1, -2, -3]])
    assert core.solve() is True
    assert core.stats()["learned"] == 1
    assert len(core.clauses) == 2  # the learned clause is no long clause
    core.assume([1, 2])
    assert core.solve() is False
    assert core.reason[2] == satcore.BINARY - core._encode(-1)
    assert sorted(core.failed()) == [1, 2]


# SHA-256 of the refuted assumptions of every instance of the lemma4_3
# sweep and the lemma4_4 and lemma4_5 families at n = 4, in order, as
# `solve()` computed them when it analysed every refuted assumption.
_EAGER_CORES = ("a0864bca398f4b5d4b7594e7685325da"
                "5e8927b5cbec9874f66898b305774d0f")


def test_failed_names_the_eagerly_computed_assumptions():
    """`failed()` analyses the refuted assumption only when asked, from
    the trail that `solve()` left: on each of the 531 sweep instances it
    names the assumptions that the eager analysis named, asked twice."""
    cores = []
    for name in ("lemma4_3", "lemma4_4", "lemma4_5"):
        instances = verify.scenario(name, 4).instances()
        session = solver.Session(instances[0].base)
        for instance in instances:
            assert instance.base is session.formula
            assert not session.solve(instance.assumptions).status
            core = session._core.failed()
            assert core and set(core) <= set(instance.assumptions)
            assert session._core.failed() == core
            cores.append(tuple(core))
    assert len(cores) == 531
    assert hashlib.sha256(repr(cores).encode()).hexdigest() == _EAGER_CORES


def test_unsat_stable_across_seeds():
    scn = verify.scenario("gs_np")
    instance = scn.instances()[0]
    assert not instance.assumptions
    outcomes = {solver.solve_formula(instance.base, seed=s).status
                for s in (None, 1, 2, 3)}
    assert outcomes == {False}


def test_sat_model_valid_across_seeds():
    scn = verify.scenario("sanity_sat")
    instance = scn.instances()[0]
    assert not instance.assumptions
    for seed in (None, 7, 99):
        res = solver.solve_formula(instance.base, seed=seed)
        assert res.status
        dimacs_clauses = [list(c) for c in instance.base.clauses]
        assert oracles.eval_clauses(dimacs_clauses, res.model)


def branching_order(seed):
    """The order that a core over 5 free variables builds to decide."""
    core = satcore.Solver(5, [], seed=seed)
    assert core.order is None
    assert core.solve() is True and core.stats()["decisions"] == 5
    return core.order


def test_branching_order_is_seeded_permutation():
    assert branching_order(None) == branching_order(0) == [1, 2, 3, 4, 5]
    shuffled = branching_order(123)
    assert shuffled != [1, 2, 3, 4, 5]
    assert sorted(shuffled) == [1, 2, 3, 4, 5]
    assert branching_order(123) == shuffled


def test_a_sweep_without_decisions_builds_no_order():
    """Propagation answers every lemma4_3 instance at n = 4, so a seeded
    session never shuffles a branching order."""
    instances = verify.scenario("lemma4_3", 4).instances()
    session = solver.Session(instances[0].base, seed=7)
    for instance in instances:
        result = session.solve(instance.assumptions)
        assert not result.status and result.stats["decisions"] == 0
    assert session._core.order is None


def test_stats_counters_populate():
    core = satcore.Solver(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
    assert core.solve() is False
    stats = core.stats()
    assert stats["conflicts"] >= 1
    assert stats["propagations"] >= 1


def test_external_model_is_checked(tmp_path):
    """An external SAT verdict is accepted only with a model that
    satisfies every clause."""
    f = cnf.CnfFormula(clauses=((1, -2),), m=2, domain_size=1)
    stand_in = tmp_path / "stand-in-solver"

    def answer(model):
        stand_in.write_text(f"#!/bin/sh\necho 'v {model} 0'\n"
                            "echo 's SATISFIABLE'\nexit 10\n")
        stand_in.chmod(0o755)
        return solver.solve_external(f, str(stand_in))

    assert answer("1 -2").model == [False, True, False]
    with pytest.raises(ContractError):
        answer("-1 2")
    with pytest.raises(TextFormatError, match="'two' at line 1"):
        answer("1 two")


def test_external_model_is_checked_against_the_assumptions(tmp_path):
    """The assumptions are written as unit clauses after the formula, and
    a claimed model must satisfy them as well as every clause."""
    f = cnf.CnfFormula(clauses=((1, 2),), m=2, domain_size=1)
    stand_in = tmp_path / "stand-in-solver"
    stand_in.write_text("#!/bin/sh\necho 'v 1 -2 0'\n"
                        "echo 's SATISFIABLE'\n")
    stand_in.chmod(0o755)
    assert solver.solve_external(f, str(stand_in), (1,)).status
    with pytest.raises(ContractError):
        solver.solve_external(f, str(stand_in), (1, 2))


def test_external_solver_that_cannot_run(tmp_path, monkeypatch):
    """A solver that cannot start, or runs past its time limit, is an
    operational error that names the binary."""
    f = clause_formula(1, [[1]])
    not_executable = tmp_path / "not-executable"
    not_executable.write_text("#!/bin/sh\necho 's SATISFIABLE'\n")
    not_executable.chmod(0o644)
    with pytest.raises(ExternalSolverError, match="not-executable"):
        solver.solve_external(f, str(not_executable))
    sleeper = tmp_path / "sleeper"
    sleeper.write_text("#!/bin/sh\nexec sleep 30\n")
    sleeper.chmod(0o755)
    monkeypatch.setattr(solver, "EXTERNAL_TIMEOUT", 0.2)
    with pytest.raises(ExternalSolverError, match="sleeper.*within 0.2 s"):
        solver.solve_external(f, str(sleeper))


def test_external_solver_setting_must_name_a_file(tmp_path, monkeypatch):
    """A set NPVERIFY_EXT_SOLVER is never silently replaced by another
    solver."""
    monkeypatch.setenv("NPVERIFY_EXT_SOLVER", str(tmp_path / "missing"))
    with pytest.raises(ExternalSolverError, match="missing"):
        solver.find_external_solver()
