"""Command-line interface.

Exit codes: 0 = expectations met, 2 = an expectation was violated,
1 = operational error (usage errors, unreadable or malformed files, caps).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import (
    collapse,
    decisiveness,
    orders,
    profiles,
    rules,
    strategyproof,
    verify,
)
from .errors import ParameterError, WorkbenchError

OK, OPERATIONAL_ERROR, VIOLATED = 0, 1, 2


def _emit(args, rows) -> None:
    """Print `(key, value, sentence)` rows: `key=value` with the bare
    value in structured mode, the sentence in text mode.  A row without
    a key is text only, a row without a sentence structured only."""
    structured = args.format == "structured"
    for key, value, sentence in rows:
        if structured and key is not None:
            print(f"{key}={value}")
        elif not structured and sentence is not None:
            print(sentence)


def _cmd_domain_enum(args) -> int:
    domain = profiles.enumerate_np(args.n, args.m)
    if args.np_star:
        domain = profiles.np_star(domain)
    if args.wz:
        w, z = (orders.decode_letter(ch, args.m) for ch in args.wz)
        domain = collapse.contiguous_domain(domain, w, z)
    rows = [("kind", domain.kind, f"# {domain.describe()}"),
            ("n", domain.n, None), ("m", domain.m, None),
            ("size", len(domain), None)]
    rows += [(None, None, line)
             for line in profiles.dump_domain(domain).splitlines()]
    _emit(args, rows)
    return OK


def _load_rule(args, domain) -> rules.Rule:
    if args.file:
        return rules.load_rule(Path(args.file).read_text(), domain)
    return rules.builtin(args.builtin, domain)


def _cmd_rule_check(args) -> int:
    domain = profiles.enumerate_np(args.n, args.m)
    rule = _load_rule(args, domain)
    witness = strategyproof.find_manipulation(rule)
    report = rules.range_of(rule)
    letters = orders.letters_for(domain.m)
    rng = "".join(letters[a] for a in sorted(report.attained))
    rows = [("rule", rule.label, f"rule {rule.label} on {domain.describe()}"),
            ("range", rng, f"range: {{{rng}}}")]
    dic = rules.is_dictatorial(rule)
    if dic is None:
        rows.append(("dictator", "no", "dictatorial: no"))
    elif dic.degenerate:
        rows.append(("dictator", "degenerate",
                     f"dictatorial: voter {dic.voter + 1} (degenerate)"))
    else:
        rows.append(("dictator", dic.voter + 1,
                     f"dictatorial: voter {dic.voter + 1}"))
    if witness is None:
        rows.append(("strategyproof", True, "strategy-proof: yes"))
    else:
        text = witness.render(domain)
        rows += [("strategyproof", False, "strategy-proof: NO"),
                 ("witness", text, text)]
    _emit(args, rows)
    return OK if witness is None else VIOLATED


def _cmd_scenario_list(args) -> int:
    _emit(args, [(scn.name, scn.expected or "record",
                  f"{scn.name:18s} n={scn.n} m={scn.m} "
                  f"expected={scn.expected or 'record'}  {scn.description}")
                 for scn in verify.list_scenarios()])
    return OK


def _cmd_scenario_run(args) -> int:
    report = verify.run_scenario(
        verify.scenario(args.name, args.n), seed=args.seed,
        differential=args.differential,
        export_dimacs=args.export_dimacs,
        cache_dir=args.cache)
    _emit(args, report.rows())
    return VIOLATED if report.expectation_met is False else OK


def _cmd_collapse_run(args) -> int:
    if args.n < 3:
        # The theorems assume n >= 3; on NP(2, 3) a strategy-proof rule
        # has profiles the descent cannot bring down, so a failure there
        # would be a false counterexample.
        raise ParameterError(
            f"collapse run needs n >= 3 voters, got n={args.n}")
    source = profiles.enumerate_np(args.n, args.m)
    w, z = (orders.decode_letter(ch, args.m) for ch in (args.w, args.z))
    spec = collapse.make_spec(source, w, z)
    rule = rules.builtin(args.rule, source)
    collapsed, report = collapse.collapse_rule(rule, spec)
    described = spec.describe()
    disagreements = len(report.disagreements)
    missing = len(report.no_extension)
    lines = [("spec", described, described),
             ("disagreements", disagreements,
              f"extension disagreements: {disagreements}"),
             ("missing", missing, f"profiles without extension: {missing}")]
    ok = report.ok
    if collapsed is not None:
        rng = rules.range_of(collapsed).attained
        tgt_letters = orders.letters_for(spec.target.m)
        rng_text = "".join(tgt_letters[a] for a in sorted(rng))
        lines.append(("range", rng_text,
                      f"collapsed range: {{{rng_text}}}"))
        full = rng == frozenset(range(spec.target.m))
        lines.append(("full_range", full, f"collapsed range is full: {full}"))
        ok = ok and full
    failures = 0
    for r in source:
        result = collapse.reduce_to_contiguous(rule, r, spec)
        if not result.ok:
            failures += 1
            if args.trace_failures:
                _emit(args, [("failure", profiles.encode_profile(r),
                              result.render(args.m))])
    lines += [("descents", len(source), f"descents run: {len(source)}"),
              ("descent_failures", failures, f"descent failures: {failures}")]
    _emit(args, lines)
    return OK if ok and failures == 0 else VIOLATED


def _cmd_decisive_report(args) -> int:
    domain = profiles.enumerate_np(args.n, args.m)
    rule = _load_rule(args, domain)
    try:
        a, b = (orders.decode_letter(ch, args.m) for ch in args.pair.split(","))
    except ValueError:
        raise WorkbenchError(f"bad --pair {args.pair!r}; expected e.g. y,z")
    report = decisiveness.minimal_decisive_families(rule, a, b)
    _emit(args, report.rows(domain.m))
    return OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2, which here means an
    expectation was violated.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(OPERATIONAL_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="npverify",
        description="verification workbench for strategy-proof rules on "
                    "the Non-Paretian domain")
    parser.add_argument("--format", choices=["text", "structured"],
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_domain = sub.add_parser("domain", help="domain enumeration")
    sub_domain = p_domain.add_subparsers(dest="subcommand", required=True)
    p_enum = sub_domain.add_parser("enum")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--m", type=int, required=True)
    group = p_enum.add_mutually_exclusive_group()
    group.add_argument("--np-star", action="store_true")
    group.add_argument("--wz", nargs=2, metavar=("W", "Z"))
    p_enum.set_defaults(func=_cmd_domain_enum)

    p_rule = sub.add_parser("rule", help="rule inspection")
    sub_rule = p_rule.add_subparsers(dest="subcommand", required=True)
    p_check = sub_rule.add_parser("check")
    source = p_check.add_mutually_exclusive_group(required=True)
    source.add_argument("--file")
    source.add_argument("--builtin")
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--m", type=int, required=True)
    p_check.set_defaults(func=_cmd_rule_check)

    p_scn = sub.add_parser("scenario", help="SAT scenarios")
    sub_scn = p_scn.add_subparsers(dest="subcommand", required=True)
    p_list = sub_scn.add_parser("list")
    p_list.set_defaults(func=_cmd_scenario_list)
    p_run = sub_scn.add_parser("run")
    p_run.add_argument("name")
    p_run.add_argument("--n", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--export-dimacs", metavar="PATH")
    check = p_run.add_mutually_exclusive_group()
    # one value for both flags: True requires the external check, False
    # skips it, None runs it when an external solver is found
    check.add_argument("--differential", action="store_const", const=True,
                       help="require external solver agreement")
    check.add_argument("--no-differential", dest="differential",
                       action="store_const", const=False,
                       help="skip the external solver even if available")
    p_run.add_argument("--cache", metavar="DIR",
                       help="cache scenario outcomes under DIR")
    p_run.set_defaults(func=_cmd_scenario_run)

    p_col = sub.add_parser("collapse", help="alternative-fusion machinery")
    sub_col = p_col.add_subparsers(dest="subcommand", required=True)
    p_crun = sub_col.add_parser("run")
    p_crun.add_argument("--n", type=int, required=True)
    p_crun.add_argument("--m", type=int, required=True)
    p_crun.add_argument("--w", required=True, metavar="LETTER")
    p_crun.add_argument("--z", required=True, metavar="LETTER")
    p_crun.add_argument("--rule", default="dictator:1")
    p_crun.add_argument("--trace-failures", action="store_true")
    p_crun.set_defaults(func=_cmd_collapse_run)

    p_dec = sub.add_parser("decisive", help="decisive coalition reports")
    sub_dec = p_dec.add_subparsers(dest="subcommand", required=True)
    p_rep = sub_dec.add_parser("report")
    source = p_rep.add_mutually_exclusive_group(required=True)
    source.add_argument("--rule", dest="builtin")
    source.add_argument("--file")
    p_rep.add_argument("--n", type=int, required=True)
    p_rep.add_argument("--m", type=int, required=True)
    p_rep.add_argument("--pair", required=True, metavar="A,B")
    p_rep.set_defaults(func=_cmd_decisive_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WorkbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OPERATIONAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
