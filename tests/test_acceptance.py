"""Acceptance suite: every exit criterion at its stated budget, one
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines)."""

import itertools
import time

import pytest

import oracles
from npverify import (
    cnf,
    collapse,
    profiles,
    rules,
    solver,
    strategyproof,
    verify,
)

X, Y, Z = 0, 1, 2


def _criterion(number, ok, detail, budget, elapsed):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] criterion {number}: {status} "
          f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, (
        f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")


def test_criterion_1_domain_counts():
    start = time.monotonic()
    np33 = profiles.enumerate_np(3, 3)
    star33 = profiles.np_star(np33)
    np43 = profiles.enumerate_np(4, 3)
    ok = (len(np33) == 102 and len(star33) == 6 and len(np43) == 906)
    oracle_ok = (
        len(oracles.np_members(3, 3)) == 102
        and len(oracles.np_star_members(3, 3)) == 6
        and len(oracles.np_members(4, 3)) == 906
        and oracles.np_count_inclusion_exclusion(3, 3) == 102
        and oracles.np_count_inclusion_exclusion(4, 3) == 906)
    elapsed = time.monotonic() - start
    _criterion(1, ok and oracle_ok,
               f"|NP(3,3)|={len(np33)}, |NP*(3,3)|={len(star33)}, "
               f"|NP(4,3)|={len(np43)}, oracle agrees", 1.0, elapsed)


def test_criterion_2_example1():
    start = time.monotonic()
    np43 = verify.np_domain(4, 3)
    star43 = profiles.np_star(np43)
    g = rules.example1(np43)
    witness = strategyproof.find_manipulation(g)
    range_np = rules.range_of(g).attained
    range_star = rules.range_of(g, star43).attained
    ok = (witness is None and range_np == {X, Y} and range_star == {X})
    elapsed = time.monotonic() - start
    _criterion(2, ok,
               f"manipulation={witness}, range(NP)={sorted(range_np)}, "
               f"range(NP*)={sorted(range_star)}", 5.0, elapsed)


def test_criterion_3_gs_and_sanity(external_solver):
    binary = external_solver
    assert binary is not None, (
        "criterion 3 needs the external solver; build tools/extsolver "
        "(cargo build --release --offline; needs only a Rust toolchain, "
        "no network) or set NPVERIFY_EXT_SOLVER")
    start = time.monotonic()
    gs = verify.run_scenario("gs_np", differential=True)
    elapsed_gs = time.monotonic() - start
    ok_gs = (gs.outcome == "UNSAT" and gs.expectation_met
             and all(r.external_agrees for r in gs.instances))
    _criterion("3 (gs_np)", ok_gs, "UNSAT with external agreement",
               30.0, elapsed_gs)

    start = time.monotonic()
    sane = verify.run_scenario("sanity_sat", differential=True)
    elapsed_sane = time.monotonic() - start
    witness = sane.instances[0].witness
    ok_sane = (sane.outcome == "SAT" and sane.expectation_met
               and witness is not None
               and strategyproof.find_manipulation(witness) is None
               and all(r.external_agrees for r in sane.instances))
    _criterion("3 (sanity_sat)", ok_sane,
               "SAT with oracle-verified witness and external agreement",
               30.0, elapsed_sane)


@pytest.mark.parametrize("name", ["nrange_part1", "nrange_full",
                                  "nrange_part2"])
def test_criterion_4_nrange(name, external_solver):
    binary = external_solver
    assert binary is not None, (
        "criterion 4 needs the external solver; build tools/extsolver "
        "(cargo build --release --offline; needs only a Rust toolchain, "
        "no network) or set NPVERIFY_EXT_SOLVER")
    start = time.monotonic()
    report = verify.run_scenario(name, differential=True)
    elapsed = time.monotonic() - start
    ok = (report.outcome == "UNSAT" and report.expectation_met
          and all(r.external_agrees for r in report.instances))
    _criterion(f"4 ({name})", ok,
               f"UNSAT across {len(report.instances)} instance(s) with "
               "external agreement", 600.0, elapsed)


def test_criterion_5_lemma_suite():
    start = time.monotonic()
    details = []
    ok = True
    for name in ("lemma4_2", "lemma4_3", "lemma4_4", "lemma4_5"):
        report = verify.run_scenario(name, differential=False)
        details.append(f"{name}:{report.outcome}x{len(report.instances)}")
        ok = ok and report.outcome == "UNSAT" and report.expectation_met
    elapsed = time.monotonic() - start
    _criterion(5, ok, ", ".join(details), 600.0, elapsed)


def test_criterion_6_m_range():
    start = time.monotonic()
    source = verify.np_domain(3, 4)
    checked = 0
    ok = True
    detail = []
    for w, z in itertools.permutations(range(4), 2):
        spec = collapse.make_spec(source, w, z)
        for voter in (0, 2):
            g = rules.dictator(source, voter)
            collapsed, report = collapse.collapse_rule(g, spec)
            if not report.ok:
                ok = False
                detail.append(f"disagreement at wz=({w},{z}) voter={voter}")
                continue
            attained = rules.range_of(collapsed).attained
            if attained != frozenset(range(3)):
                ok = False
                detail.append(f"range {sorted(attained)} at wz=({w},{z})")
            for r in source:
                result = collapse.reduce_to_contiguous(g, r, spec)
                sigmas = [s.sigma for s in result.steps]
                if (not result.ok or sigmas[-1] != 0
                        or any(a <= b for a, b in zip(sigmas, sigmas[1:]))):
                    ok = False
                    detail.append(f"descent failed at wz=({w},{z}) "
                                  f"r={profiles.encode_profile(r)}")
                    break
                checked += 1
    elapsed = time.monotonic() - start
    _criterion(6, ok,
               detail[0] if detail else
               f"2 dictators x 12 pairs, {checked} descents, "
               "all well-defined with full collapsed range", 120.0, elapsed)


def test_criterion_7_property_suites():
    start = time.monotonic()
    np33 = verify.np_domain(3, 3)
    members = list(np33.profiles)

    # encoding soundness: decoded models pass the manipulation oracle
    sound = all(
        not oracles.manipulations(
            lambda p: g.table[np33.index_of(p)], members)
        for g in verify.enumerate_models("sanity_sat", k=5))

    # list builders produce domain members
    lists_ok = all(
        profile in verify.np_domain(n, 3)
        for n in (3, 4)
        for profile in verify.build_list_part1(n).values())
    lists_ok = lists_ok and all(
        profile in verify.np_domain(n, 3)
        for n in (4, 5)
        for profile in verify.build_list_part2(n).values())

    # y/z relabeling preserves satisfiability status
    base = cnf.encode_base(np33)
    star = profiles.np_star(np33)
    swap = (0, 2, 1)
    star_idx = tuple(np33.index_of(p) for p in star)
    star_swapped = tuple(np33.index_of(profiles.relabel_profile(p, swap))
                         for p in star)
    plain = cnf.add_scenario(
        base, cnf.RangeSubset(frozenset({Y, Z}), star_idx))
    plain = cnf.add_scenario(plain, cnf.Attains(Y, star_idx))
    plain = cnf.add_scenario(plain, cnf.Attains(Z, star_idx))
    plain = cnf.add_scenario(plain, cnf.Attains(X, tuple(range(len(np33)))))
    image = cnf.add_scenario(
        base, cnf.RangeSubset(frozenset({swap[Y], swap[Z]}), star_swapped))
    image = cnf.add_scenario(image, cnf.Attains(swap[Y], star_swapped))
    image = cnf.add_scenario(image, cnf.Attains(swap[Z], star_swapped))
    image = cnf.add_scenario(image, cnf.Attains(swap[X],
                                                tuple(range(len(np33)))))
    symmetry = (solver.solve_formula(plain).status
                == solver.solve_formula(image).status is False)

    # sigma/contiguity equivalence on the fused-pair domain
    source = verify.np_domain(3, 4)
    wz = collapse.contiguous_domain(source, 0, 1)
    sigma_ok = all(
        (collapse.sigma(p, 0, 1).total == 0) == (p in wz) for p in source)

    ok = sound and lists_ok and symmetry and sigma_ok
    elapsed = time.monotonic() - start
    _criterion(7, ok,
               f"soundness={sound}, lists={lists_ok}, "
               f"relabel-symmetry={symmetry}, sigma-contiguity={sigma_ok}",
               120.0, elapsed)
