
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import oracles
from npverify import (
    cli, cnf, profiles, rules, satcore, solver, strategyproof, verify,
)
from npverify.errors import (
    ContractError,
    ParameterError,
    ScenarioError,
    TextFormatError,
)

X, Y, Z = 0, 1, 2
XYZ, XZY, YXZ, YZX, ZXY, ZYX = ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                                (1, 2, 0), (2, 0, 1), (2, 1, 0))


def test_part1_list_tables():
    lists = verify.build_list_part1(3)
    assert lists["L1"] == (XYZ, ZYX, XYZ)
    assert lists["L2"] == (ZXY, YXZ, XZY)
    assert lists["L3"] == (XZY, YXZ, ZXY)
    lists4 = verify.build_list_part1(4)
    assert lists4["L1"] == (XYZ, XYZ, ZYX, XYZ)
    assert lists4["L2"] == (ZXY, XZY, YXZ, XZY)
    assert lists4["L3"] == (XZY, XZY, YXZ, ZXY)
    with pytest.raises(ParameterError):
        verify.build_list_part1(2)


def test_part1_lists_in_domain(np33, np43):
    for n, domain in ((3, np33), (4, np43)):
        for profile in verify.build_list_part1(n).values():
            assert profile in domain


def test_part2_list_tables_n4():
    lists = verify.build_list_part2(4)
    assert lists["L1"] == (YXZ, YXZ, YZX, ZXY)
    assert lists["L2"] == (ZYX, YXZ, XYZ, YXZ)
    assert lists["L3"] == (YZX, YXZ, XZY, YXZ)
    assert lists["L4"] == (YXZ, YXZ, XYZ, ZYX)
    assert lists["L1*"] == (ZXY, ZXY, ZYX, YXZ)
    assert lists["L2*"] == (YZX, ZXY, XZY, ZXY)
    assert lists["L3*"] == (ZYX, ZXY, XYZ, ZXY)
    assert lists["L4*"] == (ZXY, ZXY, XZY, YZX)
    # no middle block at n=4: the double-star list equals the star list
    for j in (1, 2, 3, 4):
        assert lists[f"L{j}**"] == lists[f"L{j}*"]
    with pytest.raises(ParameterError):
        verify.build_list_part2(3)


def test_part2_list_tables_n5():
    lists = verify.build_list_part2(5)
    assert lists["L1"] == (YXZ, YXZ, YZX, YZX, ZXY)
    assert lists["L2"] == (ZYX, YXZ, YZX, XYZ, YXZ)
    assert lists["L4**"] == (ZXY, ZXY, YZX, XZY, YZX)
    assert lists["L3**"] == (ZYX, ZXY, YZX, XYZ, ZXY)
    domain = verify.np_domain(5, 3)
    for profile in lists.values():
        assert profile in domain
    for j in (1, 2, 3, 4):
        star, double = lists[f"L{j}*"], lists[f"L{j}**"]
        assert [v for v in range(5) if star[v] != double[v]] == [2]


def test_part2_star_is_yz_relabel():
    swap = (0, 2, 1)
    for n in (4, 5):
        lists = verify.build_list_part2(n)
        for j in (1, 2, 3, 4):
            assert lists[f"L{j}*"] == profiles.relabel_profile(
                lists[f"L{j}"], swap)


def test_scenario_registry():
    names = {s.name for s in verify.list_scenarios()}
    assert names == {"gs_np", "sanity_sat", "nrange_part1", "nrange_part2",
                     "nrange_full", "example1_exists", "lemma4_2",
                     "lemma4_3", "lemma4_4", "lemma4_5"}
    with pytest.raises(ScenarioError):
        verify.scenario("nope")


def _sentences(report):
    """The lines that text mode prints for `report`."""
    return [sentence for _, _, sentence in report.rows() if sentence]


def _keyed(report):
    """The values that structured mode prints for `report`, by key."""
    return {key: value for key, value, _ in report.rows() if key}


def test_small_scenarios_meet_expectations():
    for name in ("sanity_sat", "gs_np", "nrange_part1", "nrange_full",
                 "nrange_part2", "lemma4_4", "lemma4_5"):
        report = verify.run_scenario(name, differential=False)
        assert report.expectation_met, _sentences(report)


def test_sat_witness_is_cross_checked(np33):
    report = verify.run_scenario("sanity_sat", differential=False)
    (instance,) = report.instances
    witness = instance.witness
    assert witness is not None
    assert strategyproof.find_manipulation(witness) is None
    assert rules.range_of(witness).attained == {X, Y, Z}


def test_example1_exists_n4_witness():
    report = verify.run_scenario("example1_exists", differential=False)
    assert report.outcome == "SAT" and report.expectation_met
    witness = report.instances[0].witness
    assert {witness.table[i] for i in verify.np_star_indices(4, 3)} == {X}
    assert Y in rules.range_of(witness).attained


def test_example1_exists_n3_recorded():
    """Outside its stated voter range the scenario is exploratory: run it
    and record the outcome rather than asserting one."""
    scn = verify.scenario("example1_exists", n=3)
    assert scn.expected is None
    report = verify.run_scenario(scn, differential=False)
    assert report.outcome in ("SAT", "UNSAT")
    assert report.expectation_met is None


def with_units(inst):
    """The complete formula of `inst`: its base with one unit clause per
    assumption."""
    return inst.base.extended((lit,) for lit in inst.assumptions)


def test_lemma_sweeps_iterate_qualifying_profiles(np43):
    """Spot-check the sweep structure: counts match the qualifying
    predicate and a couple of sample instances are UNSAT."""
    head_top = sum(1 for p in np43 if any(v[0] == X for v in p[:2]))
    instances = verify.scenario("lemma4_2").instances()
    assert len(instances) == head_top
    sample = instances[:3] + instances[-3:]
    for inst in sample:
        assert not solver.solve_formula(with_units(inst)).status

    bottom_y = sum(1 for p in np43 if any(v[-1] == Y for v in p[:2]))
    instances3 = verify.scenario("lemma4_3").instances()
    assert len(instances3) == bottom_y
    for inst in instances3[:3]:
        assert not solver.solve_formula(with_units(inst)).status


@pytest.mark.parametrize("name", ["lemma4_4", "lemma4_5"])
def test_lemma_session_verdicts_match_full_formulas(name):
    """The runner answers a sweep on one session under assumptions; each
    verdict equals a fresh solve of the instance's complete formula."""
    scn = verify.scenario(name)
    report = verify.run_scenario(scn, differential=False)
    instances = scn.instances()
    assert [r.tag for r in report.instances] == [i.tag for i in instances]
    assert len({id(i.base) for i in instances}) == 1
    for record, inst in zip(report.instances, instances):
        assert record.outcome == "UNSAT"
        assert record.stats["decisions"] == 0
        formula = with_units(inst)
        assert not solver.solve_formula(formula, seed=3).status
        assert len(formula.clauses) == (len(inst.base.clauses)
                                        + len(inst.assumptions))


# Taken when binary clauses moved into implication lists, on the core
# before that change: the move left every search step as it was.
_GOLDEN_SEARCH = ("928f1b5ca113e62f3b470d97af3ff5a6"
                  "21eeca962d794781a6bf672ad0189d3c")


def test_golden_search_digest():
    """The core's search is pinned: every scenario but the two lemma
    sweeps, at n=4 with seed 7, hashed over each instance's tag, outcome,
    stats and witness table.  A change to the core that moves any search
    step shows here; a new value goes with a CHANGES.md entry naming the
    stats and witnesses that changed."""
    digest = hashlib.sha256()
    for name in sorted(verify._CATALOGUE):
        if name in ("lemma4_2", "lemma4_3"):
            continue
        report = verify.run_scenario(verify.scenario(name, 4), seed=7,
                                     differential=False)
        for r in report.instances:
            table = None if r.witness is None else list(r.witness.table)
            digest.update(json.dumps([name, r.tag, r.outcome,
                                      sorted(r.stats.items()),
                                      table]).encode())
    assert digest.hexdigest() == _GOLDEN_SEARCH


def test_witness_is_checked_against_assumptions(np43):
    """Lifting lemma4_4's refuted assumption gives a SAT instance whose
    witness must honour the remaining assumptions."""
    inst = verify.scenario("lemma4_4").instances()[0]
    fixed, target = (abs(lit) for lit in inst.assumptions)
    sat = verify.Instance(tag="x-at-both", base=inst.base,
                          assumptions=(fixed, target),
                          constraints=inst.constraints)
    res = solver.Session(sat.base).solve(sat.assumptions)
    assert res.status
    rule = verify._verify_witness(sat, res.model, np43)
    i, alt = sat.base.profile_alt(target)
    assert rule.table[i] == alt == X
    wrong = verify.Instance(tag="x-not-at-target", base=inst.base,
                            assumptions=inst.assumptions,
                            constraints=inst.constraints)
    with pytest.raises(ContractError, match="assumption"):
        verify._verify_witness(wrong, res.model, np43)


def test_relabel_symmetry_preserves_status(np33, star33):
    """Relabeling the alternatives consistently leaves every scenario's
    satisfiability unchanged."""
    base = cnf.encode_base(np33)
    star_idx = tuple(np33.index_of(p) for p in star33)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        # sanity_sat image: full range demanded in permuted labels
        formula = base
        for alt in range(3):
            formula = cnf.add_scenario(
                formula, cnf.Attains(perm[alt], tuple(range(len(np33)))))
        assert solver.solve_formula(formula).status

        # nrange_part1 image
        star_perm = tuple(np33.index_of(profiles.relabel_profile(p, perm))
                          for p in star33)
        formula = cnf.add_scenario(
            base, cnf.RangeSubset(frozenset({perm[Y], perm[Z]}), star_perm))
        formula = cnf.add_scenario(formula, cnf.Attains(perm[Y], star_perm))
        formula = cnf.add_scenario(formula, cnf.Attains(perm[Z], star_perm))
        formula = cnf.add_scenario(
            formula, cnf.Attains(perm[X], tuple(range(len(np33)))))
        assert not solver.solve_formula(formula).status


def test_enumerate_models(np33):
    found = verify.enumerate_models("sanity_sat", k=3)
    assert len(found) == 3
    tables = {g.table for g in found}
    assert len(tables) == 3
    for g in found:
        assert strategyproof.find_manipulation(g) is None
        assert rules.range_of(g).attained == {X, Y, Z}
    assert verify.enumerate_models("sanity_sat", k=0) == []
    # The dictators are the only ones: enumeration stops at UNSAT.
    everything = verify.enumerate_models("sanity_sat", k=10)
    assert ({g.table for g in everything}
            == {rules.dictator(np33, v).table for v in range(3)})
    with pytest.raises(ScenarioError):
        verify.enumerate_models("nrange_full", k=1)


def test_decoded_models_strategy_proof_by_oracle(np33):
    members = list(np33.profiles)
    for g in verify.enumerate_models("sanity_sat", k=4):
        choice = lambda p: g.table[np33.index_of(p)]
        assert not oracles.manipulations(choice, members)


def test_stretch_scenarios_at_n5():
    """At n=5 the middle voter block is nonempty, so the list-based lemmas
    stop being degenerate; the theorems still verify."""
    for name, outcome in (("lemma4_4", "UNSAT"), ("lemma4_5", "UNSAT"),
                          ("nrange_part2", "UNSAT"),
                          ("example1_exists", "SAT")):
        report = verify.run_scenario(verify.scenario(name, 5),
                                     differential=False)
        assert report.outcome == outcome and report.expectation_met


def test_report_cache_round_trip(tmp_path):
    first = verify.run_scenario("gs_np", differential=False,
                                cache_dir=str(tmp_path))
    assert not first.cached
    second = verify.run_scenario("gs_np", differential=False,
                                 cache_dir=str(tmp_path))
    assert second.cached
    assert second.outcome == first.outcome
    assert second.expectation_met is True


def _reset_caches():
    """The benchmark's own cache reset, `perfbench/workloads.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    workloads = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up by name.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    workloads.reset_caches()


def test_each_base_is_loaded_once(monkeypatch):
    """After a cache reset, the three list lemmas build one index of the
    NP(4, 3) base between them, and nrange_full opens three sessions on
    one index; the reset drops the index with the base."""
    built, opened = [], []

    class CountedIndex(satcore.BaseIndex):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    class CountedSolver(satcore.Solver):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["base"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(satcore, "BaseIndex", CountedIndex)
    monkeypatch.setattr(satcore, "Solver", CountedSolver)
    _reset_caches()
    for name in ("lemma4_3", "lemma4_4", "lemma4_5"):
        assert verify.run_scenario(verify.scenario(name, 4),
                                   differential=False).expectation_met
    assert len(built) == 1 and len(opened) == 3
    assert all(index is built[0] for index in opened)
    gone = weakref.ref(built.pop())
    opened.clear()
    _reset_caches()
    assert gone() is None
    assert verify.run_scenario(verify.scenario("nrange_full", 4),
                               differential=False).expectation_met
    assert len(built) == 1 and len(opened) == 3
    assert all(index is built[0] for index in opened)


def test_a_plain_run_writes_no_dimacs_array(monkeypatch):
    """lemma4_3 with no external check opens its session on the index
    that the walk of the base wrote, and never iterates the base's
    clauses: only a later export does, which still gives the pinned
    text."""
    walked = []
    walk = cnf.BaseWalk.__iter__

    def counted(self):
        walked.append(self)
        return walk(self)

    monkeypatch.setattr(cnf.BaseWalk, "__iter__", counted)
    _reset_caches()
    assert verify.run_scenario("lemma4_3",
                               differential=False).expectation_met
    base = verify._encoded_base(4, 3)
    assert base.clauses.index is not None and walked == []
    text = cnf.export_dimacs(base)
    assert walked == [base.clauses.walk]
    assert _sha256(text).startswith("f3422dfdc596567c")


# SHA-256 of `export_dimacs(with_units(instance))` before the export wrote
# the layers of an instance in turn: the text must not change.
_EXPORTS = {
    ("lemma4_3", 263): "0fa52e5903ddef3a782d0799b5d4539d"
                       "9320e2ccb3dce89cb2dbdf3b581cda29",
    ("gs_np", 0): "47443f8d0617f875bc0b73aec134adfe"
                  "5605cad7219a71265b276422f8c1ef4d",
    ("lemma4_5", 0): "dea8a4d4703b1390a9e337f20ef387ba"
                     "4befa6205432a7f70332d515a8b6e1a2",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_export_writes_the_layers_unchanged(tmp_path):
    """The base, the scenario clauses and one unit per assumption, written
    in turn, give the text the complete formula gave: through
    `export_dimacs` and through the runner's `--export-dimacs`."""
    for (name, idx), digest in _EXPORTS.items():
        inst = verify.scenario(name, 4).instances()[idx]
        text = cnf.export_dimacs(inst.base, assumptions=inst.assumptions)
        assert _sha256(text) == digest
        assert text == cnf.export_dimacs(with_units(inst))
    for name in ("gs_np", "lemma4_5"):
        path = tmp_path / f"{name}.cnf"
        verify.run_scenario(verify.scenario(name, 4), differential=False,
                            export_dimacs=str(path))
        assert _sha256(path.read_text()) == _EXPORTS[name, 0]


@pytest.mark.parametrize("name,built", [("gs_np", 1), ("nrange_full", 3)])
def test_cache_miss_builds_each_instance_once(tmp_path, monkeypatch, name,
                                              built):
    """A miss builds each instance once, in the solve loop: the cache key
    reads no instance."""
    calls = []
    add_scenario = cnf.add_scenario

    def counted(*args):
        calls.append(args)
        return add_scenario(*args)

    monkeypatch.setattr(cnf, "add_scenario", counted)
    report = verify.run_scenario(name, differential=False,
                                 cache_dir=str(tmp_path))
    assert not report.cached and len(report.instances) == built
    assert len(calls) == built


def test_cache_hit_builds_no_formula(tmp_path, monkeypatch):
    """A hit is looked up before the scenario is built: with every
    in-process cache dropped, it enumerates no domain, encodes no base and
    layers no scenario clause."""
    names = ("gs_np", "nrange_full", "lemma4_3", "lemma4_4")
    for name in names:
        verify.run_scenario(name, differential=False, cache_dir=str(tmp_path))
    calls = []
    for module, attr in ((profiles, "enumerate_np"), (cnf, "encode_base"),
                         (cnf, "add_scenario")):
        def counted(*args, _real=getattr(module, attr), _attr=attr):
            calls.append(_attr)
            return _real(*args)
        monkeypatch.setattr(module, attr, counted)
    _reset_caches()
    for name in names:
        assert verify.run_scenario(name, differential=False,
                                   cache_dir=str(tmp_path)).cached
    assert calls == []


def test_cached_report_renders_the_fresh_instance_lines(tmp_path):
    """The oracle check is cached with the report: a cached SAT report
    says "witness verified" as the fresh run that wrote it did."""
    fresh, cached = (verify.run_scenario("sanity_sat", differential=False,
                                         cache_dir=str(tmp_path))
                     for _ in range(2))
    assert not fresh.cached and cached.cached
    lines = _sentences(fresh)
    assert "  instance full-range: SAT, witness verified" in lines
    assert _sentences(cached)[1:] == lines[1:]
    assert [r.checks for r in cached.instances] == [
        {"oracle": "ok", "external": "not requested"}]


def _masked(report):
    """The rows of `report` without the time and the cache marker."""
    return [(key, value, sentence and re.sub(r" time=.*", "", sentence))
            for key, value, sentence in report.rows()
            if key not in ("wall_time", "cached")]


@pytest.mark.parametrize("name", sorted(verify._CATALOGUE))
def test_cached_report_reads_as_the_fresh_one(tmp_path, name):
    fresh, cached = (verify.run_scenario(name, differential=False,
                                         cache_dir=str(tmp_path))
                     for _ in range(2))
    assert not fresh.cached and cached.cached
    assert _masked(cached) == _masked(fresh)


def test_cached_verdict_is_read_from_the_cached_records(tmp_path):
    """The cache stores instance records only: a record whose outcome was
    edited in the file turns the cached verdict with it."""
    verify.run_scenario("nrange_full", differential=False,
                        cache_dir=str(tmp_path))
    [path] = tmp_path.iterdir()
    data = json.loads(path.read_text())
    data["instances"][1][1] = "SAT"
    path.write_text(json.dumps(data))
    report = verify.run_scenario("nrange_full", differential=False,
                                 cache_dir=str(tmp_path))
    assert report.cached
    assert report.outcome == "MIXED" and report.expectation_met is False
    assert "  instance never-y-on-star: SAT" in _sentences(report)


PACKAGE = Path(verify.__file__).resolve().parent


def _fresh_python(script, package_root, *args):
    """Run `script` in a fresh interpreter importing npverify from
    `package_root`; its standard output, split into lines."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout.splitlines()


def test_a_run_without_a_cache_never_loads_hashlib(tmp_path):
    """hashlib, and OpenSSL with it, is loaded only to key the cache: a
    run without one leaves it out, and a run with one still writes its
    cache file and reads it back."""
    script = """if True:
        import sys
        from npverify import verify
        verify.run_scenario("sanity_sat", differential=False)
        print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
        for _ in range(2):
            print(verify.run_scenario("sanity_sat", differential=False,
                                      cache_dir=sys.argv[1]).cached)
    """
    out = _fresh_python(script, PACKAGE.parent, tmp_path)
    assert out == ["[]", "False", "True"]
    assert len(list(tmp_path.iterdir())) == 1


def _append_comment(package):
    with (package / "satcore.py").open("a") as fh:
        fh.write("# changed\n")


def _add_module(package):
    (package / "added.py").write_text("# a new module\n")


def _source_edit(module, old, new):
    def edit(package):
        path = package / module
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    return edit


# Each edit, with whether it changes the gs_np formula.
_SOURCE_EDITS = {
    "satcore_comment": (_append_comment, False),
    "added_module": (_add_module, False),
    # every profile's at-most-one clauses in reverse order
    "encoder": (_source_edit("cnf.py", "for b in range(a + 1, m)]",
                             "for b in reversed(range(a + 1, m))]"),
                True),
    # gs_np's non-dictator clauses in reverse voter order
    "recipe": (_source_edit("verify.py", "for v in range(scn.n)])",
                            "for v in reversed(range(scn.n))])"),
               True),
}


@pytest.mark.parametrize("edit,changes_formula", _SOURCE_EDITS.values(),
                         ids=_SOURCE_EDITS)
def test_cache_misses_when_the_source_changes(tmp_path, edit,
                                              changes_formula):
    """The key hashes the source of every module of the package, which
    fixes every formula: a copy of the package misses the cache that it
    hit before one edit to its source, whether the edit changes the
    formula (the encoder, a recipe) or not (a comment, a new module)."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "npverify",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = """if True:
        import hashlib, sys
        from npverify import cnf, verify
        print(verify.__file__)
        [instance] = verify.scenario("gs_np").instances()
        text = cnf.export_dimacs(instance.base)
        print(hashlib.sha256(text.encode()).hexdigest())
        print(verify.run_scenario("gs_np", differential=False,
                                  cache_dir=sys.argv[1]).cached)
    """
    cache = tmp_path / "cache"
    runs = [_fresh_python(script, root, cache) for _ in range(2)]
    assert Path(runs[0][0]).resolve() \
        == (root / "npverify" / "verify.py").resolve()
    assert [run[2] for run in runs] == ["False", "True"]
    edit(root / "npverify")
    _, formula, cached = _fresh_python(script, root, cache)
    assert cached == "False"
    assert (formula != runs[0][1]) is changes_formula
    assert len(list(cache.iterdir())) == 2


def _truncate(text):
    return text[:len(text) // 2]


def _edited(change):
    """A damage that applies `change` to the decoded cache payload."""
    def damage(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return damage


def _set_outcome(data):
    data["instances"][0][1] = "MAYBE"


def _set_tag(data):
    data["instances"][0][0] = 7


_DAMAGES = {
    "truncated": _truncate,
    "missing_key": _edited(lambda data: data.pop("domain_size")),
    "missing_check": _edited(
        lambda data: data["instances"][0][3].pop("external")),
    "no_records": _edited(lambda data: data["instances"].clear()),
    "unknown_outcome": _edited(_set_outcome),
    "unknown_external_status": _edited(
        lambda data: data["instances"][0][3].update(external="sometimes")),
    "unknown_oracle_status": _edited(
        lambda data: data["instances"][0][3].update(oracle="failed")),
    "tag_not_a_string": _edited(_set_tag),
    "stat_not_an_int": _edited(
        lambda data: data["instances"][0][2].update(decisions="many")),
    "domain_size_not_an_int": _edited(
        lambda data: data.update(domain_size="6")),
    "wall_time_not_a_number": _edited(
        lambda data: data.update(wall_time="slow")),
}


@pytest.mark.parametrize("damage", _DAMAGES.values(), ids=_DAMAGES)
def test_malformed_cache_file_is_an_operational_error(tmp_path, capsys,
                                                      damage):
    verify.run_scenario("sanity_sat", differential=False,
                        cache_dir=str(tmp_path))
    [path] = tmp_path.iterdir()
    path.write_text(damage(path.read_text()))
    with pytest.raises(TextFormatError, match="malformed cache file"):
        verify.run_scenario("sanity_sat", differential=False,
                            cache_dir=str(tmp_path))
    code = cli.main(["scenario", "run", "sanity_sat", "--no-differential",
                     "--cache", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "malformed cache file" in err and path.name in err


def _stand_in_solver(tmp_path):
    """A /bin/sh external solver that answers UNSAT and logs each call."""
    log = tmp_path / "calls.log"
    log.write_text("")
    stand_in = tmp_path / "stand-in-solver"
    stand_in.write_text(f"#!/bin/sh\necho call >> '{log}'\n"
                        "echo 's UNSATISFIABLE'\nexit 20\n")
    stand_in.chmod(0o755)
    return str(stand_in), log


def test_cache_hit_never_skips_the_external_check(tmp_path, monkeypatch):
    binary, log = _stand_in_solver(tmp_path)
    monkeypatch.setattr(solver, "find_external_solver", lambda: binary)
    cache = str(tmp_path / "cache")
    verify.run_scenario("gs_np", differential=False, cache_dir=cache)
    assert log.read_text() == ""
    checked = verify.run_scenario("gs_np", cache_dir=cache)
    calls = len(checked.instances)
    assert not checked.cached
    assert checked.external == f"agree {calls}/{calls}"
    assert log.read_text().count("call") == calls
    again = verify.run_scenario("gs_np", cache_dir=cache)
    assert again.cached and again.external == checked.external
    assert [r.checks["external"] for r in again.instances] == (
        ["agree"] * calls)
    assert log.read_text().count("call") == calls


def test_cache_key_covers_the_external_solver(tmp_path, monkeypatch,
                                              capsys):
    """A report one external solver agreed with never answers a run with
    another: the broken solver, whose model gives variable 1 both signs,
    is run and rejected instead of being served the other's agreement."""
    agree, broken = tmp_path / "a", tmp_path / "b"
    agree.write_text('#!/bin/sh\necho "s UNSATISFIABLE"\n')
    broken.write_text('#!/bin/sh\necho "s SATISFIABLE"\necho "v 1 -1 0"\n')
    for stand_in in (agree, broken):
        stand_in.chmod(0o755)
    cache = str(tmp_path / "cache")
    monkeypatch.setenv("NPVERIFY_EXT_SOLVER", str(agree))
    for cached in (False, True):
        report = verify.run_scenario("gs_np", differential=True,
                                     cache_dir=cache)
        assert report.cached is cached and report.external == "agree 1/1"
    monkeypatch.setenv("NPVERIFY_EXT_SOLVER", str(broken))
    with pytest.raises(TextFormatError, match="variable 1 both signs"):
        verify.run_scenario("gs_np", differential=True, cache_dir=cache)
    assert cli.main(["scenario", "run", "gs_np", "--differential",
                     "--cache", cache]) == 1
    assert "(cached)" not in capsys.readouterr().out


def test_cache_hit_never_skips_the_export(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    path = tmp_path / "out.cnf"
    argv = ["scenario", "run", "sanity_sat", "--no-differential",
            "--cache", cache]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--export-dimacs", str(path)]) == 0
    assert path.read_text().startswith("p cnf ")
    assert "(cached)" not in capsys.readouterr().out


def test_report_names_external_check(monkeypatch, external_solver):
    off = verify.run_scenario("sanity_sat", differential=False)
    assert off.external == "skipped(not requested)"
    assert "  external=skipped(not requested)" in _sentences(off)
    with monkeypatch.context() as patched:
        patched.setattr(solver, "find_external_solver", lambda: None)
        missing = verify.run_scenario("sanity_sat")
    assert _keyed(missing)["external"] == "skipped(not found)"
    assert "  external=skipped(not found)" in _sentences(missing)
    if external_solver is None:
        pytest.skip("no external solver")
    checked = verify.run_scenario("nrange_full", differential=True)
    assert _keyed(checked)["external"] == "agree 3/3"
    assert "  external=agree 3/3" in _sentences(checked)


def test_report_structured_keys():
    report = verify.run_scenario("sanity_sat", differential=False)
    data = _keyed(report)
    assert data["scenario"] == "sanity_sat"
    assert data["outcome"] == "SAT"
    assert data["expectation_met"] is True
