"""Command-line interface.

Commands: analyze, scan, report, oracle, compare, verify-paper.
Exit codes: 0 success / CI / agreement; 1 negative verdict, disagreement, or
fixture failure; 2 usage or parse errors; 3 cost-cap errors.  Each cap lives
in the module whose cost it bounds (the decider's, the scan budget, the
oracle's closure cap, and the semigroup module's one mask cap for every
bitset); every refusal is a CapExceededError, which main alone maps to
exit 3.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from math import gcd

from . import delorme, shiftscan, toricoracle
from .errors import CapExceededError
from .seqcore import (
    BaseSequence,
    GeneratorSequence,
    format_sequence,
    parse_base,
    parse_gens,
)

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _print_json(data) -> None:
    print(json.dumps(data, sort_keys=True))


def cmd_analyze(args: argparse.Namespace) -> int:
    seq = parse_gens(args.sequence)
    cert = delorme.is_complete_intersection(seq)
    if args.format == "json":
        _print_json({
            "sequence": list(seq.gens),
            "ci": cert is not None,
            "certificate": delorme.certificate_to_dict(cert) if cert else None,
        })
    elif args.format == "csv":
        print("sequence,ci,certificate")
        text = delorme.format_certificate(cert) if cert else ""
        print(f"\"{seq}\",{str(cert is not None).lower()},\"{text}\"")
    else:
        if cert is None:
            print(f"not CI: {seq}")
        else:
            print(f"CI: {seq}")
            print(f"certificate: {delorme.format_certificate(cert)}")
    return EXIT_OK if cert is not None else EXIT_NEGATIVE


def _scan_rows(base: BaseSequence, members: tuple[int, ...]) -> list[dict]:
    rows = []
    an = base.period
    for j in members:
        cert = shiftscan.ci_at(base, j)
        anatomy = shiftscan.top_split_anatomy(cert)
        rows.append({
            "j": j,
            "m": j // an if j % an == 0 else None,
            "s": anatomy.s if anatomy else None,
            "k": anatomy.k if anatomy else None,
        })
    return rows


def cmd_scan(args: argparse.Namespace) -> int:
    base = parse_base(args.base)
    result = shiftscan.scan(base, args.j_from, args.j_to, budget=args.cap)
    rows = _scan_rows(base, result.members)
    if args.format == "json":
        _print_json({
            "base": list(base.entries),
            "j_from": result.j_from,
            "j_to": result.j_to,
            "members": rows,
        })
    else:
        def cell(v) -> str:
            return "-" if v is None else str(v)

        print("j,m,s,k")
        for row in rows:
            print(f"{row['j']},{cell(row['m'])},{cell(row['s'])},{cell(row['k'])}")
    return EXIT_OK


def _render_report_text(report: shiftscan.PeriodicityReport) -> str:
    J0, P = report.threshold, report.period
    lines = [
        f"base:               {report.base}",
        f"period (a_n):       {P}",
        f"threshold:          {J0}  windows ({J0}, {J0 + P}] and ({J0 + P}, {J0 + 2 * P}]",
        f"eventually empty:   {'yes' if report.eventually_empty else 'no'}",
        f"window consistent:  {'yes' if report.window_consistent else 'no'}",
        f"CI residues mod {P}: "
        + (",".join(str(r) for r in sorted(report.residues)) if report.residues else "(none)"),
        f"base is CI:         {'yes' if report.base_is_ci else 'no'}",
    ]
    if report.base_is_ci and report.eventually_empty:
        lines.append("note: base is CI yet the family has no eventual CI shifts")
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> int:
    base = parse_base(args.base)
    report = shiftscan.eventual_report(base, threshold=args.threshold, budget=args.cap)
    if args.format == "json":
        _print_json(shiftscan.report_to_dict(report))
    elif args.format == "csv":
        print("key,value")
        for key, value in shiftscan.report_to_dict(report).items():
            if isinstance(value, list):
                value = ";".join(str(v) for v in value)
            print(f"{key},{value}")
    else:
        print(_render_report_text(report))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    profile = toricoracle.betti_profile(parse_gens(args.sequence))
    if args.format == "json":
        _print_json(toricoracle.profile_to_dict(profile))
    elif args.format == "csv":
        print("degree,count")
        for degree, count in profile.counts:
            print(f"{degree},{count}")
    else:
        print(f"gens:  {format_sequence(profile.gens)}")
        print(f"bound: {profile.bound}")
        print(f"mu:    {profile.mu}")
        for degree, count in profile.counts:
            print(f"  degree {degree}: {count}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    seq = parse_gens(args.sequence)
    cert = delorme.is_complete_intersection(seq)
    criterion_ci = cert is not None
    mu = toricoracle.betti_profile(seq).mu
    oracle_ci = mu == len(seq) - 1
    agree = criterion_ci == oracle_ci
    if args.format == "json":
        _print_json({
            "sequence": list(seq.gens),
            "criterion_ci": criterion_ci,
            "oracle_ci": oracle_ci,
            "mu": mu,
            "agree": agree,
        })
    else:
        print(f"criterion: {'CI' if criterion_ci else 'not CI'}")
        print(f"oracle:    mu={mu} vs height {len(seq) - 1} -> {'CI' if oracle_ci else 'not CI'}")
        print("agree" if agree else "DISAGREE")
    return EXIT_OK if agree else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# verify-paper fixtures
# ---------------------------------------------------------------------------


def _fixture_family_ci() -> tuple[bool, str]:
    base = BaseSequence((11, 16, 28))
    for m in range(2, 21):
        j = 28 * m
        cert = shiftscan.ci_at(base, j)
        if cert is None:
            return False, f"(28m,...) not CI at m={m}"
        witness = shiftscan.main_theorem_witness(base, j, cert, threshold=0)
        if witness is None:
            return False, f"witness extraction failed at m={m}"
        if witness.s != 1 or witness.k != 4:
            return False, f"unexpected (s, k) = {(witness.s, witness.k)} at m={m}"
        if witness.alphas != (2, 1, 1):
            return False, f"unexpected alphas {witness.alphas} at m={m}"
    return True, "m=2..20 all CI with witness s=1, k=4, alphas=(2,1,1)"


def _fixture_family_periodicity() -> tuple[bool, str]:
    base = BaseSequence((11, 16, 28))
    report = shiftscan.eventual_report(base)
    if report.residues != frozenset({0}):
        return False, f"residues {sorted(report.residues)} != [0]"
    if report.eventually_empty or not report.window_consistent or not report.base_is_ci:
        return False, "unexpected report flags"
    window = shiftscan.scan(base, 785, 841)
    if window.members != (812, 840):
        return False, f"window [785, 841] members {window.members} != (812, 840)"
    return True, "residues {0}, window [785,841] members are the multiples of 28"


def _fixture_sporadic_ci() -> tuple[bool, str]:
    cert = shiftscan.ci_at(BaseSequence((3, 8, 20)), 28)
    if cert is None:
        return False, "(28,31,36,48) not recognized as CI"
    anatomy = shiftscan.top_split_anatomy(cert)
    if anatomy is None or anatomy.singleton_value != 31 or anatomy.k != 4:
        return False, f"unexpected top split {delorme.format_certificate(cert)}"
    if anatomy.pair_reduced != (7, 9, 12):
        return False, f"pair part {anatomy.pair_reduced} != (7, 9, 12)"
    return True, "split 31·(1) ⊔ 4·(7,9,12) found"


def _fixture_sporadic_finite() -> tuple[bool, str]:
    report = shiftscan.eventual_report(BaseSequence((3, 8, 20)))
    if not report.eventually_empty:
        return False, "family not reported eventually empty"
    if shiftscan.solve_two_term(12, 8, 20) is not None:
        return False, "12 = 8b + 20c unexpectedly solvable"
    return True, "eventually empty; 12 = 8b + 20c unsolvable"


def _fixture_converse_failure() -> tuple[bool, str]:
    base = BaseSequence((8, 17, 18))
    report = shiftscan.eventual_report(base)
    if not report.base_is_ci:
        return False, "(8,17,18) should be CI"
    if not report.eventually_empty:
        return False, "family not reported eventually empty"
    if shiftscan.solve_two_term(34, 8, 18, max_sum=2) is not None:
        return False, "2*17 = 8b + 18c with b+c <= 2 unexpectedly solvable"
    if shiftscan.solve_two_term(34, 8, 18) != (2, 1):
        return False, "unbounded solution (2, 1) not found"
    if shiftscan.converse_predicate(base):
        return False, "converse predicate should fail for (8,17,18)"
    return True, "base CI, eventually empty, bounded equation unsolvable"


def _fixture_n2_sweep() -> tuple[bool, str]:
    checked = 0
    for b in range(2, 13):
        for a in range(1, b):
            start = max(a * b, b * (b - a))
            for j in range(start, start + 2 * b + 1):
                present = shiftscan.n2_criterion(a, b, j) is not None
                actual = shiftscan.ci_at(BaseSequence((a, b)), j) is not None
                if present != actual:
                    return False, f"mismatch at (a={a}, b={b}, j={j})"
                checked += 1
    return True, f"{checked} window shifts agree"


def _fixture_n3_sweep() -> tuple[bool, str]:
    # the whole window: bases with a common factor, such as (3, 6, 12), are
    # also CI at shifts off the multiples of c (j = 148 there)
    checked = 0
    for c in range(3, 13):
        for b in range(2, c):
            for a in range(1, b):
                for j in range(c * c + 1, c * c + 2 * c + 1):
                    present = shiftscan.n3_criterion(a, b, c, j) is not None
                    actual = shiftscan.ci_at(BaseSequence((a, b, c)), j) is not None
                    if present != actual:
                        return False, f"mismatch at {(a, b, c)}, j={j}"
                    checked += 1
    return True, f"{checked} shifts in (c^2, c^2+2c] agree"


def _fixture_oracle_sweep(seed: int) -> tuple[bool, str]:
    checked = 0
    for comb in itertools.combinations(range(1, 23), 3):
        if gcd(gcd(comb[0], comb[1]), comb[2]) != 1:
            continue
        seq = GeneratorSequence(comb)
        if (delorme.is_complete_intersection(seq) is not None) != toricoracle.is_ci_oracle(seq):
            return False, f"criterion/oracle disagree on {comb}"
        checked += 1
    rng = random.Random(seed)
    for length, top, trials in ((4, 40, 60), (5, 60, 40)):
        for _ in range(trials):
            comb = tuple(sorted(rng.sample(range(1, top + 1), length)))
            seq = GeneratorSequence(comb)
            if (delorme.is_complete_intersection(seq) is not None) != toricoracle.is_ci_oracle(seq):
                return False, f"criterion/oracle disagree on {comb}"
            checked += 1
    return True, f"{checked} sequences agree"


def _printed_n3_pairing(a: int, b: int, c: int, j: int) -> bool:
    """The n = 3 test with the equations paired exactly as printed.

    Known to be inconsistent with the worked example; kept only as the
    regression trap exercised by verify-paper.
    """
    if j % c:
        return False
    k = gcd(a, c)
    if k != 1 and shiftscan.solve_two_term(k * a, b, c) is not None:
        return True
    k = gcd(b, c)
    if k != 1 and shiftscan.solve_two_term(k * b, a, c, max_sum=k) is not None:
        return True
    return False


def _fixture_trap_printed_pairing() -> tuple[bool, str]:
    # the as-printed pairing must reject the family's canonical CI shift
    j = 812
    actual = shiftscan.ci_at(BaseSequence((11, 16, 28)), j) is not None
    printed = _printed_n3_pairing(11, 16, 28, j)
    if not actual:
        return False, "j=812 should be CI for (11,16,28)"
    if printed:
        return False, "printed pairing unexpectedly accepts (11,16,28); trap lost"
    return True, "printed pairing rejects the CI shift j=812 (typo trapped)"


def _fixture_trap_low_threshold() -> tuple[bool, str]:
    # threshold a_n instead of a_n^2 must misclassify the sporadic j=28
    report = shiftscan.eventual_report(BaseSequence((3, 8, 20)), threshold=20)
    if report.eventually_empty:
        return False, "threshold a_n failed to catch the sporadic CI at j=28; trap lost"
    return True, "threshold a_n wrongly sees eventual CI members (trap fires)"


def cmd_verify_paper(args: argparse.Namespace) -> int:
    fixtures = [
        ("example-family-ci", _fixture_family_ci),
        ("example-family-periodicity", _fixture_family_periodicity),
        ("example-sporadic-ci", _fixture_sporadic_ci),
        ("example-sporadic-finite", _fixture_sporadic_finite),
        ("example-converse-failure", _fixture_converse_failure),
        ("n2-criterion-sweep", _fixture_n2_sweep),
        ("n3-criterion-sweep", _fixture_n3_sweep),
        ("oracle-agreement-sweep", lambda: _fixture_oracle_sweep(args.seed)),
        ("trap-n3-printed-pairing", _fixture_trap_printed_pairing),
        ("trap-low-threshold", _fixture_trap_low_threshold),
    ]
    text = args.format == "text"
    if text:
        print(f"seed: {args.seed}")
    results = []
    for name, fn in fixtures:
        start = time.perf_counter()
        ok, detail = fn()
        elapsed = time.perf_counter() - start
        results.append({"name": name, "ok": ok, "detail": detail, "seconds": elapsed})
        if text:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({elapsed:.2f}s)")
    if not text:
        _print_json({"seed": args.seed, "fixtures": results})
    failures = [r["name"] for r in results if not r["ok"]]
    if failures:
        print(f"FAILED: {failures[0]}", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cishift",
        description="Complete-intersection analysis of monomial curves and shifted families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("text", "json", "csv")) -> None:
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("analyze", help="decide CI for one generator sequence")
    p.add_argument("sequence", help="comma-separated generators, e.g. 28,31,36,48")
    add_format(p)
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("scan", help="list CI members of a shift window")
    p.add_argument("base", help="comma-separated base differences, e.g. 11,16,28")
    p.add_argument("j_from", type=int)
    p.add_argument("j_to", type=int)
    add_format(p)
    p.add_argument("--cap", type=int, default=None, help="cost budget")
    p.set_defaults(run=cmd_scan)

    p = sub.add_parser("report", help="eventual-periodicity report for a base")
    p.add_argument("base")
    p.add_argument("--threshold", type=int, default=None,
                   help="override the default a_n^2 window start")
    add_format(p)
    p.add_argument("--cap", type=int, default=None, help="cost budget")
    p.set_defaults(run=cmd_report)

    p = sub.add_parser("oracle", help="factorization-graph generator counts")
    p.add_argument("sequence")
    add_format(p)
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("compare", help="criterion vs oracle on one sequence")
    p.add_argument("sequence")
    add_format(p, ("text", "json"))
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("verify-paper", help="run the worked-example fixture suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_format(p, ("text", "json"))
    p.set_defaults(run=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
