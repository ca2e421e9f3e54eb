import hashlib
import itertools

import pytest

from cishift import clear_caches
from cishift.certificates import Leaf, certificate_to_json
from cishift.errors import (
    CapExceededError,
    InvalidCertificateError,
    NotCompleteIntersectionError,
)
from cishift.seqcore import BaseSequence
from cishift.shiftscan import (
    ci_at,
    converse_predicate,
    eventual_report,
    main_theorem_witness,
    n2_criterion,
    n3_criterion,
    report_from_dict,
    report_to_dict,
    scan,
    solve_two_term,
    top_split_anatomy,
)


class TestCiAt:
    def test_examples(self):
        assert ci_at(BaseSequence((3, 8, 20)), 28) is not None
        assert ci_at(BaseSequence((11, 16, 28)), 56) is not None
        assert ci_at(BaseSequence((1, 2)), 3) is None


class TestScan:
    def test_family_window(self):
        result = scan(BaseSequence((11, 16, 28)), 785, 841)
        assert result.members == (812, 840)

    def test_finite_family_windows_empty(self):
        assert scan(BaseSequence((3, 8, 20)), 401, 440).members == ()
        assert scan(BaseSequence((8, 17, 18)), 325, 360).members == ()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            scan(BaseSequence((1, 2)), 5, 4)
        with pytest.raises(ValueError):
            scan(BaseSequence((1, 2)), 0, 4)

    def test_cost_cap(self):
        with pytest.raises(CapExceededError, match="budget"):
            scan(BaseSequence((11, 16, 28)), 1, 10 ** 7)
        # explicit budgets loosen or tighten the cap
        with pytest.raises(CapExceededError, match="budget"):
            scan(BaseSequence((1, 2)), 1, 50, budget=10)

    def test_default_budget_admits_large_shifts(self):
        # the cost counts 64-bit words of a membership mask, not values
        result = scan(BaseSequence((11, 16, 28)), 100_001, 100_056)
        assert result.members == (100_016, 100_044)

    def test_unchanged_by_cleared_and_evicted_caches(self):
        base = BaseSequence((3, 5, 9))
        warm = scan(base, 80, 180)
        clear_caches()
        assert scan(base, 80, 180) == warm

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_nonpositive_jobs_rejected(self, jobs):
        # scan takes no jobs keyword since it runs serially
        with pytest.raises(TypeError):
            scan(BaseSequence((3, 5, 9)), 80, 180, jobs=jobs)


class TestEventualReport:
    def test_family(self):
        report = eventual_report(BaseSequence((11, 16, 28)))
        assert report.residues == frozenset({0})
        assert not report.eventually_empty
        assert report.window_consistent
        assert report.base_is_ci
        assert report.threshold == 784 and report.period == 28

    def test_finite_families(self):
        r1 = eventual_report(BaseSequence((3, 8, 20)))
        assert r1.eventually_empty and r1.base_is_ci
        r2 = eventual_report(BaseSequence((8, 17, 18)))
        assert r2.eventually_empty and r2.base_is_ci

    def test_threshold_override(self):
        report = eventual_report(BaseSequence((3, 8, 20)), threshold=20)
        assert not report.eventually_empty  # the sporadic j=28 lands in the window

    def test_json_round_trip(self):
        report = eventual_report(BaseSequence((11, 16, 28)))
        assert report_from_dict(report_to_dict(report)) == report


class TestN2Criterion:
    def test_examples(self):
        w = n2_criterion(1, 2, 4)
        assert (w.k, w.alpha, w.beta) == (2, 1, 1)
        assert n2_criterion(1, 2, 3) is None
        w = n2_criterion(3, 9, 81)
        assert (w.k, w.alpha, w.beta) == (9, 6, 3)
        assert w.equation_holds() and w.alpha + w.beta == w.k

    def test_precondition(self):
        with pytest.raises(ValueError):
            n2_criterion(2, 5, 9)  # below max(10, 15)
        with pytest.raises(ValueError):
            n2_criterion(5, 3, 100)

    def test_agrees_with_recursive_decision(self):
        for b in range(2, 11):
            for a in range(1, b):
                start = max(a * b, b * (b - a))
                for j in range(start, start + 2 * b + 1):
                    present = n2_criterion(a, b, j) is not None
                    actual = ci_at(BaseSequence((a, b)), j) is not None
                    assert present == actual, (a, b, j)

    def test_witness_sum_is_k(self):
        for b in range(2, 11):
            for a in range(1, b):
                start = max(a * b, b * (b - a))
                for j in range(start, start + 2 * b + 1):
                    w = n2_criterion(a, b, j)
                    if w is not None:
                        assert w.equation_holds()
                        assert w.alpha + w.beta == w.k

    def test_non_coprime_cofactor_case(self):
        # (10, 12, 14) solves k(j+a) = aj + b(j+b) yet is not CI; the
        # cofactor conditions must reject it
        assert n2_criterion(2, 4, 10) is None
        assert ci_at(BaseSequence((2, 4)), 10) is None


class TestOffPeriodMembers:
    def test_n2_family_with_off_period_ci(self):
        # CI shifts above a_n^2 need not be multiples of a_n when the
        # differences share a factor: gcd(333, 18) = 9 and 9*(333+4) is
        # representable over (333/9, 351/9), so (333, 337, 351) is CI.
        base = BaseSequence((4, 18))
        assert 333 % 18 != 0 and 333 > 18 * 18
        cert = ci_at(base, 333)
        assert cert is not None
        anatomy = top_split_anatomy(cert)
        assert anatomy.s == 1 and anatomy.k == 9
        # the witness extraction reports the anomaly by returning None
        assert main_theorem_witness(base, 333, cert) is None

    def test_residues_report_off_period_classes(self):
        report = eventual_report(BaseSequence((4, 18)))
        assert report.residues == frozenset({0, 9})
        assert report.window_consistent and report.base_is_ci


class TestN3Criterion:
    def test_family_witness(self):
        w = n3_criterion(11, 16, 28, 812)
        assert (w.s, w.k, w.m) == (1, 4, 29)
        assert (w.alpha, w.beta, w.gamma) == (2, 1, 1)
        assert w.k * w.a == w.beta * w.b + w.gamma * w.c

    def test_unsolvable_families(self):
        assert n3_criterion(3, 8, 20, 420) is None
        assert n3_criterion(8, 17, 18, 648) is None

    def test_non_multiple_rejected(self):
        assert n3_criterion(11, 16, 28, 812 + 1) is None

    def test_off_period_witness_has_no_m(self):
        # (3, 6, 12) is CI at j = 148 = 12·12 + 4; m = j / c exists only at
        # multiples of c
        w = n3_criterion(3, 6, 12, 148)
        assert w is not None and w.m is None
        assert (w.s, w.k) == (1, 2)
        assert n3_criterion(3, 6, 12, 156).m == 13

    def test_precondition(self):
        with pytest.raises(ValueError):
            n3_criterion(11, 16, 28, 784)
        with pytest.raises(ValueError):
            n3_criterion(5, 4, 9, 100)

    def test_agrees_with_recursive_decision(self):
        # every shift of the window, not only multiples of c: bases with a
        # common factor, e.g. (3, 6, 12) and (6, 9, 12), are CI at
        # j = 148, 152, 160, 164, multiples of c / gcd(a, b, c) = 4 only;
        # (148, 151, 154, 160) = 151·(1) ⊔ 2·(74,77,80)[77·(1) ⊔ 2·(37,40)]
        for c in range(3, 15):
            for b in range(2, c):
                for a in range(1, b):
                    for j in range(c * c + 1, c * c + 2 * c + 1):
                        present = n3_criterion(a, b, c, j) is not None
                        actual = ci_at(BaseSequence((a, b, c)), j) is not None
                        assert present == actual, (a, b, c, j)


class TestLargeShifts:
    @pytest.mark.parametrize("base", [(11, 16, 28), (3, 8, 20), (4, 18)])
    def test_closed_forms_agree_at_one_million(self, base):
        # membership and witness search cost must not grow with j for this to
        # stay fast: the window (J, J + 2an] at J = 1e6
        family = BaseSequence(base)
        J = 10 ** 6
        members = []
        for j in range(J + 1, J + 2 * base[-1] + 1):
            actual = ci_at(family, j) is not None
            if len(base) == 2:
                witness = n2_criterion(*base, j)
            else:
                witness = n3_criterion(*base, j)
            assert (witness is not None) == actual, (base, j)
            if actual:
                members.append(j)
        if base == (11, 16, 28):
            assert members == [j for j in range(J + 1, J + 57) if j % 28 == 0]


class TestShiftCertificateDigest:
    # SHA-256 of the ci_at certificate JSON ("null" when not CI), one line
    # per shift j in (L, L + 2 a_n] for L = 1000 and 10000: 376 shifts of
    # four paper bases, whose membership masks are j bits long
    DIGEST = "c762981ba08df065bede532732ef3883461de58d8632555fc833d52cb178cdde"

    def test_certificates_unchanged(self):
        digest = hashlib.sha256()
        for level in (1000, 10000):
            for entries in ((11, 16, 28), (5, 13, 17, 28), (4, 18), (3, 8, 20)):
                base = BaseSequence(entries)
                for j in range(level + 1, level + 2 * base.period + 1):
                    cert = ci_at(base, j)
                    text = "null" if cert is None else certificate_to_json(cert)
                    digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestClosedFormDigest:
    # SHA-256 of repr(output) + "\n" for n2_criterion on 1 <= a < b <= 24 at
    # j in [max(ab, b(b-a)), that + 3b] and [10000, 10000 + 2b), then for
    # n3_criterion on 1 <= a < b < c <= 16 at j in (c^2, c^2 + 3c]: 44,696
    # outputs, None or a witness
    DIGEST = "309e9e8213315cb8b438fef9b52bd0952b4667f951001325ad64cd018daeaafe"

    def test_outputs_unchanged(self):
        digest = hashlib.sha256()
        for a, b in itertools.combinations(range(1, 25), 2):
            low = max(a * b, b * (b - a))
            shifts = itertools.chain(range(low, low + 3 * b + 1), range(10000, 10000 + 2 * b))
            for j in shifts:
                digest.update((repr(n2_criterion(a, b, j)) + "\n").encode())
        for a, b, c in itertools.combinations(range(1, 17), 3):
            for j in range(c * c + 1, c * c + 3 * c + 1):
                digest.update((repr(n3_criterion(a, b, c, j)) + "\n").encode())
        assert digest.hexdigest() == self.DIGEST


class TestMainTheoremWitness:
    def test_family_extraction(self):
        base = BaseSequence((11, 16, 28))
        cert = ci_at(base, 812)
        w = main_theorem_witness(base, 812, cert)
        assert (w.s, w.k, w.m, w.kprime) == (1, 4, 29, 1)
        assert w.alphas == (2, 1, 1)
        assert sum(w.alphas) == w.k

    def test_below_threshold_rejected(self):
        base = BaseSequence((3, 8, 20))
        cert = ci_at(base, 28)
        with pytest.raises(ValueError):
            main_theorem_witness(base, 28, cert)

    def test_threshold_override_allows_small_shifts(self):
        base = BaseSequence((11, 16, 28))
        cert = ci_at(base, 56)
        w = main_theorem_witness(base, 56, cert, threshold=0)
        assert (w.s, w.k, w.m) == (1, 4, 2)

    def test_invalid_certificate(self):
        base = BaseSequence((11, 16, 28))
        with pytest.raises(InvalidCertificateError):
            main_theorem_witness(base, 812, Leaf((1, 2)))

    def test_scaled_base(self):
        base = BaseSequence((22, 32, 56))  # 2 * (11, 16, 28)
        j = 56 * 57
        cert = ci_at(base, j)
        assert cert is not None
        w = main_theorem_witness(base, j, cert)
        assert w.kprime == 2 and w.s == 1
        assert sum(w.alphas) == w.k

    def test_small_base_extraction(self):
        base = BaseSequence((1, 2, 4))
        cert = ci_at(base, 20)
        assert cert is not None
        w = main_theorem_witness(base, 20, cert)
        assert w.s in (1, 2) and w.m == 5
        assert sum(w.alphas) == w.k == 2


class TestConversePredicate:
    def test_examples(self):
        assert converse_predicate(BaseSequence((11, 16, 28))) is True
        assert converse_predicate(BaseSequence((8, 17, 18))) is False
        assert converse_predicate(BaseSequence((2, 4))) is True

    def test_requires_ci_base(self):
        with pytest.raises(NotCompleteIntersectionError):
            converse_predicate(BaseSequence((3, 4, 5)))


class TestSolveTwoTerm:
    def test_cases(self):
        assert solve_two_term(12, 8, 20) is None
        assert solve_two_term(34, 8, 18) == (2, 1)
        assert solve_two_term(34, 8, 18, max_sum=2) is None
        assert solve_two_term(44, 16, 28, max_sum=4) == (1, 1)
        assert solve_two_term(0, 3, 5) == (0, 0)
