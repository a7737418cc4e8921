import re

import pytest

from npverify import cli, profiles, rules, solver


def run(argv):
    return cli.main(argv)


def test_scenario_list(capsys):
    assert run(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "gs_np" in out and "expected=UNSAT" in out


def test_scenario_run_ok(capsys):
    code = run(["scenario", "run", "gs_np", "--no-differential"])
    assert code == 0
    out = capsys.readouterr().out
    assert "UNSAT" in out and "[ok]" in out


def test_scenario_run_structured(capsys):
    code = run(["--format", "structured", "scenario", "run", "sanity_sat",
                "--no-differential"])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=SAT" in out and "expectation_met=True" in out
    assert "external=skipped(not requested)" in out


def test_scenario_run_unknown_name(capsys):
    assert run(["scenario", "run", "nope"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scenario", "run", "gs_np", "--n", "2", "--no-differential"],
    ["collapse", "run", "--n", "2", "--m", "3", "--w", "x", "--z", "y"],
], ids=["scenario_gs_np", "collapse_xy"])
def test_scenario_run_below_three_voters(argv, capsys):
    """The theorems assume n >= 3; NP(2, 3) has a non-dictatorial
    strategy-proof rule, and a dictator's descent fails on two of its
    profiles, so neither may be reported as a counterexample."""
    assert run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_scenario_run_unstartable_solver(tmp_path, monkeypatch, capsys):
    not_executable = tmp_path / "solver"
    not_executable.write_text("#!/bin/sh\necho 's SATISFIABLE'\n")
    not_executable.chmod(0o644)
    monkeypatch.setenv("NPVERIFY_EXT_SOLVER", str(not_executable))
    assert run(["scenario", "run", "sanity_sat"]) == 1
    assert "could not be started" in capsys.readouterr().err


def test_scenario_export_dimacs(tmp_path, capsys):
    path = tmp_path / "out.cnf"
    code = run(["scenario", "run", "sanity_sat", "--no-differential",
                "--export-dimacs", str(path)])
    assert code == 0
    assert path.read_text().startswith("p cnf 306 ")


def test_domain_enum(capsys):
    assert run(["domain", "enum", "--n", "3", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 103  # header + 102 profiles
    assert run(["domain", "enum", "--n", "3", "--m", "3", "--np-star"]) == 0
    out = capsys.readouterr().out
    assert "size=6" in out


def test_domain_enum_wz(capsys):
    assert run(["domain", "enum", "--n", "3", "--m", "4",
                "--wz", "a", "b"]) == 0
    out = capsys.readouterr().out
    assert "NP_WZ(a,b)" in out


def test_rule_check_builtin(capsys):
    assert run(["rule", "check", "--builtin", "example1",
                "--n", "4", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "strategy-proof: yes" in out and "range: {xy}" in out


def test_rule_check_manipulable_file(tmp_path, capsys):
    domain = profiles.enumerate_np(3, 3)
    g = rules.dictator(domain, 0)
    table = list(g.table)
    table[0] = domain.profiles[0][0][-1]
    broken = rules.Rule(domain, table)
    path = tmp_path / "rule.txt"
    path.write_text(rules.dump_rule(broken))
    code = run(["rule", "check", "--file", str(path), "--n", "3", "--m", "3"])
    assert code == 2
    assert "manipulates at" in capsys.readouterr().out


def test_collapse_run(capsys):
    code = run(["collapse", "run", "--n", "3", "--m", "4",
                "--w", "a", "--z", "b", "--rule", "dictator:1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "extension disagreements: 0" in out
    assert "descent failures: 0" in out


@pytest.mark.parametrize("argv,code,expected", [
    (["collapse", "run", "--n", "3", "--m", "3", "--w", "x", "--z", "y",
      "--rule", "constant:z"], 2,
     ["spec=collapse x,y -> b (z->a)", "disagreements=0", "missing=0",
      "range=a", "full_range=False", "descents=102", "descent_failures=0"]),
    (["rule", "check", "--builtin", "example1", "--n", "4", "--m", "3"], 0,
     ["rule=example1", "range=xy", "dictator=no", "strategyproof=True"]),
    (["rule", "check", "--builtin", "dictator:2", "--n", "3", "--m", "3"], 0,
     ["rule=dictator(2)", "range=xyz", "dictator=2", "strategyproof=True"]),
    (["rule", "check", "--builtin", "constant:y", "--n", "3", "--m", "3"], 0,
     ["rule=constant(y)", "range=y", "dictator=degenerate",
      "strategyproof=True"]),
    (["scenario", "list"], 0,
     ["example1_exists=SAT", "gs_np=UNSAT", "lemma4_2=UNSAT",
      "lemma4_3=UNSAT", "lemma4_4=UNSAT", "lemma4_5=UNSAT",
      "nrange_full=UNSAT", "nrange_part1=UNSAT", "nrange_part2=UNSAT",
      "sanity_sat=SAT"]),
    (["decisive", "report", "--rule", "example1", "--n", "4", "--m", "3",
      "--pair", "x,y"], 0,
     ["pair=x>y", "decisive=12", "minimal=3", "vacuous=0", "monotone=True",
      "{1}=decisive", "{2}=decisive", "{3}=not", "{4}=not"]
     + [f"{{{c}}}=decisive" for c in ("1,2", "1,3", "1,4", "2,3", "2,4",
                                       "3,4", "1,2,3", "1,2,4", "1,3,4",
                                       "2,3,4")]),
], ids=["collapse_run", "rule_check", "rule_check_dictator",
        "rule_check_degenerate", "scenario_list", "decisive_report"])
def test_structured_values_are_bare(capsys, argv, code, expected):
    """Structured output gives each key its bare value, not the sentence
    that text mode prints."""
    assert run(["--format", "structured"] + argv) == code
    assert capsys.readouterr().out.splitlines() == expected


def test_rule_check_manipulable_structured(tmp_path, capsys):
    domain = profiles.enumerate_np(3, 3)
    table = list(rules.dictator(domain, 0).table)
    table[0] = domain.profiles[0][0][-1]
    path = tmp_path / "rule.txt"
    path.write_text(rules.dump_rule(rules.Rule(domain, table)))
    assert run(["--format", "structured", "rule", "check", "--file",
                str(path), "--n", "3", "--m", "3"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "rule=file", "range=xyz", "dictator=no", "strategyproof=False",
        "witness=voter 1 manipulates at xyz|xyz|zyx via xzy|xyz|zyx: "
        "g=z -> g=x"]


@pytest.mark.filterwarnings("error")
def test_three_voter_paths_run_without_warnings(capsys):
    """An NP(3, 3) collapse targets NP(3, 2) without a warning."""
    assert run(["collapse", "run", "--n", "3", "--m", "3",
                "--w", "x", "--z", "y"]) == 0
    assert capsys.readouterr().err == ""


def test_collapse_run_trace_failures(capsys, monkeypatch):
    """No built-in rule fails a descent, so the rule is swapped for one
    that is not strategy-proof; each failure is printed with its context in
    text mode, and as its start profile before the summary in structured
    mode."""
    def not_strategy_proof(name, domain):
        return rules.from_function(
            domain, lambda p: p[0][0] if p[1][0] in (0, 1) else p[1][0],
            label="top unless pair leads")

    monkeypatch.setattr(rules, "builtin", not_strategy_proof)
    argv = ["collapse", "run", "--n", "3", "--m", "4",
            "--w", "a", "--z", "b", "--trace-failures"]
    assert run(["--format", "structured"] + argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0] for line in lines[:254]] == ["failure"] * 254
    assert "failure=cadb|bdca|abcd" in lines[:254]
    assert lines[254:] == [
        "spec=collapse a,b -> z (c->x, d->y)", "disagreements=0", "missing=0",
        "range=xyz", "full_range=True", "descents=3624",
        "descent_failures=254"]
    code = run(argv)
    assert code == 2
    out = capsys.readouterr().out
    assert out.count("FAILED: no case of the descent ladder applies") == 254
    assert "descent failures: 254" in out
    assert ("σ=3 profile=cadb|bdca|abcd value=c move=start\n"
            "FAILED: no case of the descent ladder applies; see the last step\n"
            "context: winner=c sigma=[1, 2, 0] pivot=2 A={d} B={} H=[2] "
            "J=[1, 3] Y={d,c}\n") in out


@pytest.mark.parametrize("argv", [
    ["domain", "enum", "--n", "3", "--m", "4", "--wz", "a", "b"],
    ["rule", "check", "--builtin", "constant:y", "--n", "3", "--m", "3"],
    ["scenario", "list"],
    ["scenario", "run", "nrange_full", "--no-differential"],
    ["collapse", "run", "--n", "3", "--m", "3", "--w", "x", "--z", "y"],
    ["decisive", "report", "--rule", "constant:x", "--n", "4", "--m", "3",
     "--pair", "x,y"],
], ids=["domain_enum", "rule_check", "scenario_list", "scenario_run",
        "collapse_run", "decisive_report"])
def test_structured_lines_are_key_value(capsys, argv):
    """Structured mode prints nothing but `key=value` lines."""
    run(["--format", "structured"] + argv)
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(re.fullmatch(r"[^\s=]+=.*", line) for line in lines)


def test_decisive_report(capsys):
    code = run(["decisive", "report", "--rule", "constant:x",
                "--n", "3", "--m", "3", "--pair", "x,y"])
    assert code == 0
    out = capsys.readouterr().out
    assert "{1} x>y : decisive" in out


_DECISIVE = ["decisive", "report", "--rule", "constant:x",
             "--n", "3", "--m", "3", "--pair"]
_CHECK = ["rule", "check", "--n", "3", "--m", "3", "--builtin"]


@pytest.mark.parametrize("argv", [
    _DECISIVE + ["xy"],
    _DECISIVE + ["xy,z"],
    ["collapse", "run", "--n", "3", "--m", "4", "--w", "bc", "--z", "a"],
    _CHECK + ["constant:xy"],
    _CHECK + ["dictator:x"],
    _CHECK + ["dictator:0"],
    ["domain", "enum", "--n", "3", "--m", "4", "--wz", "a", "q"],
], ids=["pair_xy", "pair_xy_z", "collapse_w_bc", "constant_xy",
        "dictator_x", "dictator_0", "wz_a_q"])
def test_bad_letter_is_operational_error(capsys, argv):
    """Each letter argument names exactly one alternative."""
    assert run(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rule", "check", "--n", "3"],
    ["rule", "check", "--n", "x", "--m", "3", "--builtin", "dictator:1"],
    ["scenario", "explain", "gs_np"],
    ["decisive", "report", "--n", "3", "--m", "3", "--pair", "x,y"],
    _CHECK + ["dictator:1", "--file", "rule.txt"],
], ids=["missing_m", "non_integer_n", "unknown_subcommand",
        "decisive_no_rule", "rule_check_two_sources"])
def test_usage_error_is_operational_error(capsys, argv):
    """argparse's own exit code 2 would read as "expectation violated"."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error:" in err


@pytest.mark.parametrize("found", [True, False], ids=["found", "not_found"])
@pytest.mark.parametrize("flags, found_line, missing_line", [
    ([], "agree 1/1", "skipped(not found)"),
    (["--differential"], "agree 1/1", None),
    (["--no-differential"], "skipped(not requested)",
     "skipped(not requested)"),
], ids=["default", "differential", "no_differential"])
def test_scenario_run_differential_flags(flags, found_line, missing_line,
                                         found, monkeypatch, capsys):
    """Each setting of the external check, with an external solver found
    (a stand-in that agrees) and not found: the report's `external=`
    line, or exit 1 when the check is required and no solver is found."""
    calls = []

    def agree(formula, binary, assumptions=()):
        calls.append(binary)
        return solver.SolveResult(status=True, model=None, stats={})

    monkeypatch.setattr(solver, "find_external_solver",
                        lambda: "stand-in" if found else None)
    monkeypatch.setattr(solver, "solve_external", agree)
    code = run(["scenario", "run", "sanity_sat"] + flags)
    out, err = capsys.readouterr()
    line = found_line if found else missing_line
    if line is None:
        assert code == 1
        assert "no external solver found" in err
    else:
        assert code == 0
        assert f"  external={line}\n" in out + "\n"
    assert calls == (["stand-in"] if line == "agree 1/1" else [])


def test_differential_flags_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["scenario", "run", "sanity_sat", "--differential",
             "--no-differential"])
    assert exc.value.code == 1
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    _CHECK[:-1] + ["--file", "{tmp}/missing.txt"],
    ["decisive", "report", "--n", "3", "--m", "3", "--pair", "x,y",
     "--file", "{tmp}/missing.txt"],
    ["scenario", "run", "sanity_sat", "--no-differential",
     "--export-dimacs", "{tmp}/missing/out.cnf"],
], ids=["rule_check_file", "decisive_report_file", "export_dimacs"])
def test_file_error_is_operational_error(tmp_path, capsys, argv):
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err


def test_cache_under_a_file_fails_before_solving(tmp_path, monkeypatch,
                                                 capsys):
    def no_solving(*args, **kwargs):
        raise AssertionError("solved before the cache directory was made")

    monkeypatch.setattr(solver, "Session", no_solving)
    plain = tmp_path / "plain"
    plain.write_text("")
    assert run(["scenario", "run", "sanity_sat", "--no-differential",
                "--cache", str(plain / "cache")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(plain) in err


def test_export_into_a_missing_directory_fails_before_solving(
        tmp_path, monkeypatch, capsys):
    def no_solving(*args, **kwargs):
        raise AssertionError("solved before the export directory was checked")

    monkeypatch.setattr(solver, "Session", no_solving)
    missing = tmp_path / "missing"
    assert run(["scenario", "run", "sanity_sat", "--no-differential",
                "--export-dimacs", str(missing / "out.cnf")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


def test_cached_report_keeps_the_solver_counters(tmp_path, capsys):
    argv = ["scenario", "run", "gs_np", "--no-differential",
            "--cache", str(tmp_path)]

    def counters():
        assert run(argv) == 0
        out = capsys.readouterr().out
        return out, [line for line in out.splitlines()
                     if line.strip().startswith("conflicts=")]

    first, line = counters()
    again, cached_line = counters()
    assert "(cached)" not in first and "(cached)" in again
    assert cached_line == line and line != ["  conflicts=0 decisions=0"]
