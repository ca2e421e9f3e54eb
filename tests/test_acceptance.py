"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 4 asserts that every CI shift above a_n^2 is a multiple of
a_n / gcd(a1, ..., an) across a seeded random base sample.  On coprime bases
that is a_n | j.  When the differences share a factor d, whole residue
classes other than 0 mod a_n can stay CI (see README and
tests/test_shiftscan.py::TestOffPeriodMembers: (4, 18) at j = 333, a
multiple of 18 / 2 = 9), but every CI shift is still a multiple of a_n / d.
"""

import itertools
import random
import time
from math import gcd

import pytest

from cishift.cli import main as cli_main
from cishift.delorme import is_complete_intersection
from cishift.semigroup import find_representation_with_sum
from cishift.seqcore import BaseSequence, GeneratorSequence
from cishift.shiftscan import (
    ci_at,
    eventual_report,
    main_theorem_witness,
    n2_criterion,
    scan,
    solve_two_term,
    top_split_anatomy,
)
from cishift.toricoracle import betti_profile, is_ci_oracle

SEED = 1729


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _sample_bases(count: int = 24) -> list[BaseSequence]:
    rng = random.Random(SEED)
    bases: list[BaseSequence] = []
    seen = set()
    while len(bases) < count:
        n = rng.choice((2, 3, 4))
        entries = tuple(sorted(rng.sample(range(1, 25), n)))
        if entries in seen:
            continue
        seen.add(entries)
        bases.append(BaseSequence(entries))
    return bases


@pytest.fixture(scope="module")
def sweep():
    """Window members above a_n^2 for the seeded base sample."""
    bases = _sample_bases()
    members = {}
    for base in bases:
        J0 = base.period ** 2
        members[base] = scan(base, J0 + 1, J0 + 2 * base.period).members
    return bases, members


def test_criterion_01_family_ci_with_witness():
    start = time.perf_counter()
    base = BaseSequence((11, 16, 28))
    failures = []
    for m in range(2, 21):
        j = 28 * m
        cert = ci_at(base, j)
        if cert is None:
            failures.append(f"m={m} not CI")
            continue
        w = main_theorem_witness(base, j, cert, threshold=0)
        if w is None or (w.s, w.k) != (1, 4) or w.alphas != (2, 1, 1):
            failures.append(f"m={m} witness {w}")
        elif sum(w.alphas) != 4:
            failures.append(f"m={m} coefficient sum {sum(w.alphas)}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _line(1, ok, f"(28m,+11,+16,+28) CI with witness s=1,k=4,a=(2,1,1) for m=2..20 "
                 f"[{elapsed:.2f}s]" + (f" failures={failures}" if failures else ""))
    assert ok, failures


def test_criterion_02_sporadic_ci_and_eventual_emptiness():
    start = time.perf_counter()
    base = BaseSequence((3, 8, 20))
    cert = ci_at(base, 28)
    anatomy = top_split_anatomy(cert) if cert else None
    split_ok = (
        anatomy is not None
        and anatomy.singleton_value == 31
        and anatomy.k == 4
        and anatomy.pair_reduced == (7, 9, 12)
    )
    w1 = scan(base, 401, 428).members
    w2 = scan(base, 429, 456).members
    elapsed = time.perf_counter() - start
    ok = split_ok and w1 == () and w2 == () and elapsed < 5.0
    _line(2, ok, f"j=28 splits 31·(1) ⊔ 4·(7,9,12); windows (400,428] and (428,456] "
                 f"empty [{elapsed:.2f}s]")
    assert ok, (split_ok, w1, w2, elapsed)


def test_criterion_03_converse_failure_example():
    start = time.perf_counter()
    base = BaseSequence((8, 17, 18))
    base_ci = is_complete_intersection(GeneratorSequence(base.entries)) is not None
    w1 = scan(base, 325, 342).members
    w2 = scan(base, 343, 360).members
    unsolvable = solve_two_term(2 * 17, 8, 18, max_sum=2) is None
    elapsed = time.perf_counter() - start
    ok = base_ci and w1 == () and w2 == () and unsolvable and elapsed < 2.0
    _line(3, ok, f"(8,17,18) base CI; windows (324,342] and (342,360] empty; "
                 f"2*17 = 8b + 18c with b+c <= 2 unsolvable [{elapsed:.2f}s]")
    assert ok, (base_ci, w1, w2, unsolvable, elapsed)


def test_criterion_04_condition_a_multiples_only(sweep):
    bases, members = sweep
    violations = []
    for base in bases:
        step = base.period // gcd(*base.entries)
        for j in members[base]:
            if j % step:
                violations.append((base.entries, j))
    ok = not violations
    _line(4, ok, f"every CI member above a_n^2 is a multiple of a_n/gcd(a) across "
                 f"{len(bases)} seeded bases"
                 + (f" — violations: {violations}" if violations else ""))
    assert ok, violations


def test_criterion_05_claim1_and_split_shape(sweep):
    bases, members = sweep
    violations = []
    checked = 0
    for base in bases:
        for j in members[base]:
            cert = ci_at(base, j)
            anatomy = top_split_anatomy(cert)
            checked += 1
            if anatomy is None:
                violations.append((base.entries, j, "no singleton split"))
                continue
            if not 1 <= anatomy.s <= base.n - 1:
                violations.append((base.entries, j, f"s={anatomy.s}"))
                continue
            rep = find_representation_with_sum(
                anatomy.singleton_value, anatomy.pair_reduced, anatomy.k
            )
            if rep is None:
                violations.append((base.entries, j, "no representation with sum k"))
    ok = not violations
    _line(5, ok, f"{checked} certificates above threshold: coefficient sum = k and "
                 f"singleton at 1 <= s <= n-1"
                 + (f" — violations: {violations}" if violations else ""))
    assert ok, violations


def test_criterion_06_window_periodicity(sweep):
    bases, members = sweep
    violations = []
    for base in bases:
        P = base.period
        J0 = P * P
        got = set(members[base])
        for j in range(J0 + 1, J0 + P + 1):
            if (j in got) != (j + P in got):
                violations.append((base.entries, j))
    ok = not violations
    _line(6, ok, f"window (a_n^2, a_n^2+a_n] matches (a_n^2+a_n, a_n^2+2a_n] "
                 f"position-by-position for {len(bases)} bases"
                 + (f" — violations: {violations}" if violations else ""))
    assert ok, violations


def test_criterion_07_nonempty_residues_imply_base_ci(sweep):
    bases, _ = sweep
    violations = []
    nonempty = 0
    for base in bases:
        report = eventual_report(base)
        if report.residues:
            nonempty += 1
            if not report.base_is_ci:
                violations.append(base.entries)
    ok = not violations
    _line(7, ok, f"{nonempty} bases with nonempty residues, all of them CI"
                 + (f" — violations: {violations}" if violations else ""))
    assert ok, violations


def test_criterion_08_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for n in (3, 4):
        for comb in itertools.combinations(range(1, 41), n):
            d = 0
            for g in comb:
                d = gcd(d, g)
            if d != 1:
                continue
            checked += 1
            seq = GeneratorSequence(comb)
            if (is_complete_intersection(seq) is not None) != is_ci_oracle(seq):
                mismatches.append(comb)
    rng = random.Random(SEED)
    for _ in range(200):
        comb = tuple(sorted(rng.sample(range(1, 61), 5)))
        checked += 1
        seq = GeneratorSequence(comb)
        if (is_complete_intersection(seq) is not None) != is_ci_oracle(seq):
            mismatches.append(comb)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 600.0
    _line(8, ok, f"criterion == oracle on {checked} sequences (lengths 3-4 "
                 f"exhaustive to 40, 200 random length-5) [{elapsed:.1f}s]"
                 + (f" — mismatches: {mismatches[:5]}" if mismatches else ""))
    assert ok, (mismatches[:5], elapsed)


def test_criterion_09_n2_criterion_and_betti_periodicity():
    mismatches = []
    mu_violations = []
    for b in range(2, 16):
        for a in range(1, b):
            start_j = max(a * b, b * (b - a))
            mus = {}
            for j in range(start_j, start_j + 2 * b + 1):
                base = BaseSequence((a, b))
                present = n2_criterion(a, b, j) is not None
                actual = ci_at(base, j) is not None
                if present != actual:
                    mismatches.append((a, b, j))
                mu = betti_profile((j, j + a, j + b)).mu
                mus[j] = mu
                if mu not in (2, 3):
                    mu_violations.append((a, b, j, mu))
            for j in range(start_j, start_j + b + 1):
                if mus[j] != mus[j + b]:
                    mu_violations.append((a, b, j, "period"))
    ok = not mismatches and not mu_violations
    _line(9, ok, "n=2 closed form matches the recursive decision and mu is "
                 "periodic in {2,3} for all b <= 15"
                 + (f" — {mismatches[:3]} {mu_violations[:3]}" if not ok else ""))
    assert ok, (mismatches[:5], mu_violations[:5])


def test_criterion_10_regression_traps(capsys):
    # trap 1: the as-printed n=3 pairing must reject the worked family
    from cishift.cli import _printed_n3_pairing

    trap1 = (
        ci_at(BaseSequence((11, 16, 28)), 812) is not None
        and not _printed_n3_pairing(11, 16, 28, 812)
    )
    # trap 2: threshold a_n instead of a_n^2 must misclassify (3, 8, 20)
    report = eventual_report(BaseSequence((3, 8, 20)), threshold=20)
    trap2 = not report.eventually_empty
    # both traps are encoded in verify-paper, which must pass end to end
    code = cli_main(["verify-paper"])
    out = capsys.readouterr().out
    suite_ok = code == 0 and "trap-n3-printed-pairing" in out and "trap-low-threshold" in out
    ok = trap1 and trap2 and suite_ok
    _line(10, ok, "printed n3 pairing and low-threshold traps both fire; "
                  "verify-paper exits 0")
    assert ok, (trap1, trap2, code)
