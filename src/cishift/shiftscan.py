"""Shifted-family analysis: CI sets, eventual periodicity, closed-form criteria.

The family of a base (a1 < ... < an) consists of the curves with generators
(j, j+a1, ..., j+an).  Above the threshold j > an^2 the recursive split
criterion admits only one split shape (a singleton j+a_s, 1 <= s <= n-1,
against the remaining shifted generators scaled by k), which yields the
closed-form tests implemented here for n = 2 and n = 3 and the witness
extraction for general n.

The printed closed forms need two corrections taken from the underlying
split analysis, both exercised by the test suite and both coded once, in
``_singleton_splits``, the split search the n = 2 and n = 3 tests share:

* the scaling k may be any divisor of the relevant gcd, not only the full
  gcd, and the singleton side must admit a cofactor k' with k' | k,
  k' != k and gcd((j+a_s)/k', k) = 1 (otherwise sequences such as
  (10, 12, 14) would be misclassified);
* for n = 3 the equation paired with gcd(b, c) is k*a = beta*b + gamma*c
  and the one paired with gcd(a, c) is k*b = beta*a + gamma*c, each with
  beta + gamma <= k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .certificates import CICertificate, SplitNode, verify_certificate
from .delorme import is_complete_intersection
from .errors import (
    CapExceededError,
    InvalidCertificateError,
    NotCompleteIntersectionError,
)
from .semigroup import divisors, find_representation_with_sum, is_member
from .seqcore import BaseSequence, GeneratorSequence, shift

DEFAULT_SCAN_BUDGET = 50_000_000


@dataclass(frozen=True)
class CISet:
    """Shift values j in [j_from, j_to] whose curve is a complete intersection."""

    base: BaseSequence
    j_from: int
    j_to: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class PeriodicityReport:
    """Eventual description of a family from two windows above the threshold.

    residues holds the classes r mod period that are CI in both windows;
    window_consistent records whether the two windows match position by
    position, the desk-scale certificate of period-an periodicity.
    """

    base: BaseSequence
    threshold: int
    period: int
    residues: frozenset[int]
    eventually_empty: bool
    window_consistent: bool
    base_is_ci: bool


@dataclass(frozen=True)
class MainTheoremWitness:
    """Data extracted from a certificate above the threshold.

    s is the removed-singleton position, k the pair-part scaling of the
    normalized split, m = j / an, alphas the coefficients of the membership
    representation with coefficient sum exactly k, and kprime the gcd of the
    base differences.
    """

    s: int
    k: int
    m: int
    alphas: tuple[int, ...]
    kprime: int


@dataclass(frozen=True)
class N2Witness:
    """Solution data for the n = 2 closed-form test at one shift."""

    a: int
    b: int
    j: int
    k: int
    alpha: int
    beta: int
    s_gcd: int

    def equation_holds(self) -> bool:
        return self.k * (self.j + self.a) == self.alpha * self.j + self.beta * (self.j + self.b)


@dataclass(frozen=True)
class N3Witness:
    """Solution data for the n = 3 closed-form test at one shift.

    m = j / c when c divides j, else None (an off-period CI shift of a base
    whose entries share a factor).
    """

    a: int
    b: int
    c: int
    j: int
    s: int
    k: int
    m: int | None
    alpha: int
    beta: int
    gamma: int


@dataclass(frozen=True)
class TopSplitAnatomy:
    """Shape of a certificate's top split when it isolates one generator."""

    s: int  # index of the singleton within (j, j+a1, ..., j+an); 0 means j itself
    k: int  # scaling of the complementary part
    singleton_value: int  # normalized-frame entry that was isolated
    pair_reduced: tuple[int, ...]  # complementary part divided by k


def ci_at(base: BaseSequence, j: int) -> CICertificate | None:
    """Certificate iff (j, j+a1, ..., j+an) is a complete intersection."""
    return is_complete_intersection(shift(base, j))


def _scan_cost(base: BaseSequence, j_from: int, j_to: int) -> int:
    """Shifts times bipartitions times the 64-bit words of one membership mask."""
    return (j_to - j_from + 1) * (2 ** (base.n + 1)) * (j_to // 64 + 1)


def scan(
    base: BaseSequence,
    j_from: int,
    j_to: int,
    *,
    budget: int | None = None,
) -> CISet:
    """Exact CI membership over a shift window; refuses oversized windows."""
    if not 1 <= j_from <= j_to:
        raise ValueError(f"bad scan window [{j_from}, {j_to}]")
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget
    cost = _scan_cost(base, j_from, j_to)
    if cost > limit:
        raise CapExceededError(
            f"window [{j_from}, {j_to}] for {base} has estimated cost "
            f"{cost} above the budget {limit}"
        )
    members = tuple(
        j for j in range(j_from, j_to + 1) if ci_at(base, j) is not None
    )
    return CISet(base, j_from, j_to, members)


def eventual_report(
    base: BaseSequence,
    *,
    threshold: int | None = None,
    budget: int | None = None,
) -> PeriodicityReport:
    """Scan (J0, J0+P] and (J0+P, J0+2P] with P = an and J0 = an^2 by default."""
    P = base.period
    J0 = P * P if threshold is None else threshold
    if J0 < 0:
        raise ValueError(f"threshold must be non-negative, got {J0}")
    first = scan(base, J0 + 1, J0 + P, budget=budget)
    second = scan(base, J0 + P + 1, J0 + 2 * P, budget=budget)
    m1, m2 = set(first.members), set(second.members)
    consistent = all((j in m1) == (j + P in m2) for j in range(J0 + 1, J0 + P + 1))
    residues = frozenset(j % P for j in m1) & frozenset(j % P for j in m2)
    base_cert = is_complete_intersection(GeneratorSequence(base.entries))
    return PeriodicityReport(
        base=base,
        threshold=J0,
        period=P,
        residues=residues,
        eventually_empty=not m1 and not m2,
        window_consistent=consistent,
        base_is_ci=base_cert is not None,
    )


def _singleton_splits(j: int, removed: int, rest: tuple[int, ...]):
    """Yield (k, kp, rep) for each split of j+removed against the scaled rest
    (j, j+rest...)/k that passes the two corrections of the module
    docstring: k >= 2 runs over the divisors of gcd(j, *rest), descending,
    and kp over the cofactors kp | gcd(k, j+removed), kp != k, with
    gcd((j+removed)/kp, k) = 1.  A split is yielded only when (j+removed)/kp
    is a member of the scaled rest; rep holds the coefficients of a
    representation by exactly k/kp generators, or is None.
    """
    for k in reversed(divisors(gcd(j, *rest))):
        if k < 2:
            continue
        gens = (j // k, *((j + u) // k for u in rest))
        for kp in divisors(gcd(k, j + removed)):
            target = (j + removed) // kp
            if kp != k and gcd(target, k) == 1 and is_member(target, gens):
                yield k, kp, find_representation_with_sum(target, gens, k // kp)


def n2_criterion(a: int, b: int, j: int) -> N2Witness | None:
    """Closed-form CI test for (j, j+a, j+b) at j >= max(ab, b(b-a)).

    Searches scalings k >= 2 dividing gcd(j, b) for a split isolating j+a,
    with the cofactor correction described in the module docstring.  A
    returned witness satisfies k(j+a) = alpha*j + beta*(j+b) with
    alpha + beta = k.

    That sum needs no fallback: with s = k/k' <= b, a representation of
    (j+a)/k' by t terms, y of them (j+b)/k, satisfies (t - s)*j = s*a - y*b.
    As j >= max(ab, b(b-a)), only t = s fits, except at j = ab with s = b,
    where b - a copies of j/k and a of (j+b)/k have sum s as well.
    """
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    bound = max(a * b, b * (b - a))
    if j < bound:
        raise ValueError(f"shift {j} below the criterion threshold {bound}")
    for k, kp, rep in _singleton_splits(j, a, (b,)):
        assert rep is not None
        alpha, beta = (kp * c for c in rep)
        return N2Witness(a, b, j, k, alpha, beta, gcd(a, b - a))
    return None


def solve_two_term(
    target: int, g1: int, g2: int, max_sum: int | None = None
) -> tuple[int, int] | None:
    """First (x, y) >= 0 with x*g1 + y*g2 = target and x + y <= max_sum."""
    x = 0
    while x * g1 <= target:
        if max_sum is not None and x > max_sum:
            return None
        rem = target - x * g1
        if rem % g2 == 0:
            y = rem // g2
            if max_sum is None or x + y <= max_sum:
                return x, y
        x += 1
    return None


def n3_criterion(a: int, b: int, c: int, j: int) -> N3Witness | None:
    """Closed-form CI test for (j, j+a, j+b, j+c) at j > c^2.

    Rejects j unless c / gcd(a, b, c) divides j (above c^2 every CI shift
    is such a multiple: a desk-scale check, not a proof; on coprime bases
    that is j = cm); then tries removing j+a against k | gcd(b, c) with
    k*a = beta*b + gamma*c, or removing j+b against k | gcd(a, c) with
    k*b = beta*a + gamma*c, always with k | j, beta + gamma <= k, the
    cofactor conditions, and the scaled remainder recursively CI through
    the n = 2 test.  The witness's m is j / c, or None when c does not
    divide j.
    """
    if not 0 < a < b < c:
        raise ValueError(f"need 0 < a < b < c, got {(a, b, c)}")
    if j <= c * c:
        raise ValueError(f"shift {j} not above the threshold {c * c}")
    if j % (c // gcd(a, b, c)):
        return None
    for s, removed, (u, v) in ((1, a, (b, c)), (2, b, (a, c))):
        for k, kp, rep in _singleton_splits(j, removed, (u, v)):
            if rep is None:
                continue
            jp, up, vp = j // k, u // k, v // k
            if jp >= max(up * vp, vp * (vp - up)):
                rest_ci = n2_criterion(up, vp, jp) is not None
            else:
                rest_ci = ci_at(BaseSequence((up, vp)), jp) is not None
            if not rest_ci:
                continue
            alpha, beta, gamma = (kp * coeff for coeff in rep)
            m = None if j % c else j // c
            return N3Witness(a, b, c, j, s, k, m, alpha, beta, gamma)
    return None


def top_split_anatomy(cert: CICertificate) -> TopSplitAnatomy | None:
    """Locate the isolated generator and pair scaling of a certificate's top split."""
    if not isinstance(cert, SplitNode):
        return None
    split = cert.split
    if len(split.left_indices) == 1:
        s = split.left_indices[0]
        k = split.k2
        value = split.k1 * split.left_reduced[0]
        pair = split.right_reduced
    elif len(split.right_indices) == 1:
        s = split.right_indices[0]
        k = split.k1
        value = split.k2 * split.right_reduced[0]
        pair = split.left_reduced
    else:
        return None
    return TopSplitAnatomy(s, k, value, pair)


def main_theorem_witness(
    base: BaseSequence,
    j: int,
    cert: CICertificate,
    *,
    threshold: int | None = None,
) -> MainTheoremWitness | None:
    """Extract (s, k, m, alphas, kprime) from a certificate above the threshold.

    Returns None whenever the extraction fails - a singleton at position 0
    or n, a shift that is not a multiple of an, or no membership
    representation with coefficient sum exactly k.  Above the threshold
    every CI shift is a multiple of an / gcd(a1, ..., an), so on coprime
    bases each such event contradicts the eventual-regime structure and
    callers treat None as a reportable anomaly rather than an error.  When
    the differences share a factor, CI shifts off the multiples of an are
    genuine (e.g. (4, 18) at j = 333) and still give None, since m = j / an
    is defined only for multiples of an.
    """
    an = base.period
    limit = an * an if threshold is None else threshold
    if j <= limit:
        raise ValueError(f"shift {j} not above the threshold {limit}")
    seq = shift(base, j)
    if not verify_certificate(seq, cert):
        raise InvalidCertificateError(f"certificate does not validate for {seq}")
    anatomy = top_split_anatomy(cert)
    if anatomy is None:
        return None
    if not 1 <= anatomy.s <= base.n - 1:
        return None
    if j % an:
        return None
    kprime = gcd(*base.entries)
    a_s = base.entries[anatomy.s - 1]
    if (j + a_s) // kprime != anatomy.singleton_value:
        return None
    k = anatomy.k
    if j % k or any(base.entries[i] % k for i in range(base.n) if i != anatomy.s - 1):
        return None
    if gcd((j + a_s) // kprime, k) != 1:
        return None
    alphas = find_representation_with_sum(anatomy.singleton_value, anatomy.pair_reduced, k)
    if alphas is None:
        return None
    return MainTheoremWitness(anatomy.s, k, j // an, alphas, kprime)


def converse_predicate(base: BaseSequence) -> bool:
    """True iff gcd(a_{i+1},...,an) * a_i lies in <a_{i+1},...,an> for each i.

    Requires the base itself to be a complete intersection; bases with
    fewer than three entries satisfy the predicate vacuously.  When true,
    the family is expected to contain a CI shift for some large j, though
    not necessarily inside any fixed window.
    """
    if is_complete_intersection(GeneratorSequence(base.entries)) is None:
        raise NotCompleteIntersectionError(f"base {base} is not a complete intersection")
    if base.n < 3:
        return True
    entries = base.entries
    for i in range(base.n - 1):
        tail = entries[i + 1:]
        k_next = gcd(*tail)
        if not is_member(k_next * entries[i], tail):
            return False
    return True


def report_to_dict(report: PeriodicityReport) -> dict:
    return {
        "base": list(report.base.entries),
        "threshold": report.threshold,
        "period": report.period,
        "residues": sorted(report.residues),
        "eventually_empty": report.eventually_empty,
        "window_consistent": report.window_consistent,
        "base_is_ci": report.base_is_ci,
    }


def report_from_dict(data: dict) -> PeriodicityReport:
    return PeriodicityReport(
        base=BaseSequence(tuple(data["base"])),
        threshold=data["threshold"],
        period=data["period"],
        residues=frozenset(data["residues"]),
        eventually_empty=data["eventually_empty"],
        window_consistent=data["window_consistent"],
        base_is_ci=data["base_is_ci"],
    )
