import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from npverify import cnf, satcore, solver, verify
from npverify.errors import (
    ContractError,
    ExternalSolverError,
    SolverCapError,
    TextFormatError,
)


def clause_formula(num_vars, clauses):
    """A formula over bare variables: one "profile" per variable."""
    return cnf.CnfFormula(num_vars=num_vars,
                          clauses=tuple(tuple(c) for c in clauses),
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
    assert set(res.model) == set(range(1, 6))


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
    core = CountingSolver(6, clauses, order=solver.branching_order(6, seed))
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


def test_unsat_stable_across_seeds():
    scn = verify.scenario("gs_np")
    instance = scn.instances()[0]
    outcomes = {solver.solve_formula(instance.formula, seed=s).status
                for s in (None, 1, 2, 3)}
    assert outcomes == {False}


def test_sat_model_valid_across_seeds():
    scn = verify.scenario("sanity_sat")
    instance = scn.instances()[0]
    for seed in (None, 7, 99):
        res = solver.solve_formula(instance.formula, seed=seed)
        assert res.status
        dimacs_clauses = [list(c) for c in instance.formula.clauses]
        assert oracles.eval_clauses(dimacs_clauses, res.model)


def test_branching_order_is_seeded_permutation():
    assert solver.branching_order(5, None) == [1, 2, 3, 4, 5]
    shuffled = solver.branching_order(5, 123)
    assert shuffled != [1, 2, 3, 4, 5]
    assert sorted(shuffled) == [1, 2, 3, 4, 5]
    assert solver.branching_order(5, 123) == shuffled


def test_stats_counters_populate():
    core = satcore.Solver(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
    assert core.solve() is False
    stats = core.stats()
    assert stats["conflicts"] >= 1
    assert stats["propagations"] >= 1


def test_external_model_is_checked(tmp_path):
    """An external SAT verdict is accepted only with a model that
    satisfies every clause."""
    f = cnf.CnfFormula(num_vars=2, clauses=((1, -2),), m=2, domain_size=1)
    stand_in = tmp_path / "stand-in-solver"

    def answer(model):
        stand_in.write_text(f"#!/bin/sh\necho 'v {model} 0'\n"
                            "echo 's SATISFIABLE'\nexit 10\n")
        stand_in.chmod(0o755)
        return solver.solve_external(f, str(stand_in))

    assert answer("1 -2").model == {1: True, 2: False}
    with pytest.raises(ContractError):
        answer("-1 2")
    with pytest.raises(TextFormatError, match="'two' at line 1"):
        answer("1 two")


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
