"""Recursive complete-intersection decision via two-part gluing splits.

A sequence is a complete intersection exactly when it can be written as
k1*B1 disjoint-union k2*B2 with gcd(k1, k2) = 1, k1 in <B2>, k2 in <B1>,
and both parts recursively complete intersections; sequences of length one
or two always qualify.  The decision procedure returns a certificate tree
that an independent verifier can re-check bottom-up.

Both work on gcd-normalized sequences.  A valid split of one has gcd(B1) =
gcd(B2) = 1, so k1 and k2 are the gcds of the two sides and the recursion
never normalizes again: gcd(B1) divides every left entry, and k2 through the
witness of k2 in <B1>, so every right entry too; likewise for B2.

The split search skips a bipartition when gcd(left) * gcd(right) is below
the larger of the two sides' smallest entries; no valid split can come from
it, on any input.  Proof: k1 >= 1 lies in <right/k2>, so k1 >= min(right)/k2,
and likewise k2 >= min(left)/k1; so k1*k2 is at least both smallest entries,
while k1 | gcd(left) and k2 | gcd(right) give k1*k2 <= gcd(left)*gcd(right).
The gluing degree k1*k2 is thus bounded by the sides' gcds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from math import gcd
from operator import mul
from typing import Iterator, Union

from .errors import CapExceededError, InvalidCertificateError
from .semigroup import divisors, find_representation, is_member
from .seqcore import GeneratorSequence, format_sequence, normalize

# is_complete_intersection and enumerate_splits refuse inputs they cannot
# finish fast (_check_size).  The decider builds membership masks as long as
# the largest entry for several sides, so its memory and time grow with
# generators x largest entry (consecutive entries from 2^27: 110 MiB at 3,
# 118 MiB at 4 and at 6; at most 112 MiB and 3.4 s with the product at
# 3 * 2^27), and it walks all 2^m bipartitions of m generators.  It skips
# those that cannot split, which on 100..99+m is all but 2m - 2 of them:
# m = 16 takes 0.03 s and m = 18 0.1 s.  With three or more generators the
# largest entry is then at most 2^27, below the semigroup module's mask cap
# (2^30) on a membership target.  Witness search keeps about
# (coefficient sum) x target bits, which this product does not bound when 1
# is a generator; that cap bounds it instead (1,30001,75002 peaks at 77 MiB
# and is answered; 1,60001,150002 and 1,1000001,2500002 are refused in under
# 0.5 s, below 160 MiB).
MAX_DECIDE_SIZE = 3 << 27
MAX_DECIDE_GENS = 17


@dataclass(frozen=True, slots=True)
class DelormeSplit:
    """A bipartition of a generator sequence with its two scaling factors.

    Entries at left_indices equal k1 * left_reduced entrywise (same for the
    right side).  Validity means gcd(k1, k2) = 1 plus the two cross
    memberships k1 in <right_reduced> and k2 in <left_reduced>.
    """

    left_indices: tuple[int, ...]
    right_indices: tuple[int, ...]
    k1: int
    k2: int
    left_reduced: tuple[int, ...]
    right_reduced: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Leaf:
    """A sequence of length one or two; always a complete intersection."""

    entries: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SplitNode:
    """A valid split with the coefficients of k1 over right_reduced and of
    k2 over left_reduced, and the certificates of its two reduced sides."""

    split: DelormeSplit
    k1_witness: tuple[int, ...]
    k2_witness: tuple[int, ...]
    left_cert: "CICertificate"
    right_cert: "CICertificate"


CICertificate = Union[Leaf, SplitNode]


# maps the digits of a binary numeral to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=4096)
def _indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of mask, ascending.

    A function of the mask alone, so every sequence length shares it, and
    memoized certificates share the tuples it returns.  Past about 12
    generators most calls miss the cache; reading the bits off the binary
    numeral keeps a miss cheaper than a Python loop over the bits.
    """
    bits = format(mask, "b")[::-1].encode().translate(_BIT_BYTES)
    return tuple(compress(count(), bits))


# one valid split: (left, right, k1, k2, left_reduced, right_reduced)
_SplitTuple = tuple[tuple[int, ...], tuple[int, ...], int, int, tuple[int, ...], tuple[int, ...]]


def _iter_splits(entries: tuple[int, ...]) -> Iterator[_SplitTuple]:
    """All valid splits of increasing entries in canonical order, as plain
    tuples (left, right, k1, k2, left_reduced, right_reduced): left bitmask
    ascending, then k1 descending, then k2 descending.

    Each side's gcd is read off a table of all 2^m subset gcds, built with
    one gcd per subset.  A bipartition is skipped when gl * gr, the product
    of the sides' gcds, is below max(min(left), min(right)): a valid split
    has k1 | gl and k2 | gr, and k1*k2 >= both smallest entries, since k1 is
    in <right/k2> and k2 in <left/k1>.  With gl = 1 the test asks
    gr = min(right), as gr | min(right); it also drops sides whose gcds
    exceed 1 but multiply to too little, such as the singleton {j} of a shift
    whose other entries are coprime.  In every other bipartition k1 runs
    over the divisors of gl and k2 over those of gr; each pair with
    gcd(k1, k2) = 1 costs the membership query k1 in <right reduced>, and
    k2 in <left reduced> if that holds.
    """
    gcds = [0]  # gcds[mask]: gcd of the entries whose bits mask sets
    for v in entries:
        gcds += [gcd(g, v) for g in gcds]
    full = len(gcds) - 1
    value = entries.__getitem__
    for mask in range(1, full):
        rmask = full ^ mask
        gl, gr = gcds[mask], gcds[rmask]
        # entries increase, so max(min(left), min(right)) is the smallest entry
        # of the side without entries[0], at that side's lowest set bit
        other = rmask if mask & 1 else mask
        if gl * gr < value((other & -other).bit_length() - 1):
            continue
        left, right = _indices(mask), _indices(rmask)
        left_vals = tuple(map(value, left))
        right_vals = tuple(map(value, right))
        for k1 in reversed(divisors(gl)):
            left_red = tuple(v // k1 for v in left_vals)
            for k2 in reversed(divisors(gr)):
                if gcd(k1, k2) != 1:
                    continue
                right_red = tuple(v // k2 for v in right_vals)
                if not is_member(k1, right_red):
                    continue
                if not is_member(k2, left_red):
                    continue
                yield left, right, k1, k2, left_red, right_red


def _check_size(entries: tuple[int, ...]) -> None:
    """Raise CapExceededError when increasing entries number more than
    MAX_DECIDE_GENS, or generators x largest entry exceeds MAX_DECIDE_SIZE."""
    size = len(entries) * entries[-1]
    if size > MAX_DECIDE_SIZE:
        raise CapExceededError(
            f"decider: {len(entries)} generators x largest entry "
            f"{entries[-1]} = {size} exceeds {MAX_DECIDE_SIZE}"
        )
    if len(entries) > MAX_DECIDE_GENS:
        raise CapExceededError(
            f"decider: {len(entries)} generators, more than {MAX_DECIDE_GENS}"
        )


def enumerate_splits(gens: GeneratorSequence) -> list[DelormeSplit]:
    """All valid splits of a sequence with at least three entries.

    The entries are not normalized, since the divisor loops run on them, and
    the decider's caps (_check_size) apply to them as given.
    """
    if len(gens) < 3:
        raise ValueError("splits are only enumerated for sequences of length >= 3")
    _check_size(gens.gens)
    return [DelormeSplit(*split) for split in _iter_splits(gens.gens)]


# verdict cache keyed by the normalized entry tuple
_CI_MEMO: dict[tuple[int, ...], CICertificate | None] = {}


def clear_caches() -> None:
    """Empty the verdict memo and the split-side indices.

    Answers do not depend on either cache; this only returns their memory.
    """
    _CI_MEMO.clear()
    _indices.cache_clear()


def is_complete_intersection(gens: GeneratorSequence) -> CICertificate | None:
    """Certificate if the sequence is a complete intersection, else None.

    The overall gcd is divided out first. Among all valid splits in
    canonical order, the first whose two reduced parts are recursively
    complete intersections becomes the certificate. Verdicts are memoized
    by the normalized sequence.  Raises CapExceededError, before any search,
    when generators x largest entry of the normalized sequence exceeds
    MAX_DECIDE_SIZE or it has more than MAX_DECIDE_GENS generators.
    """
    _, reduced = normalize(gens)
    _check_size(reduced.gens)
    return _decide(reduced.gens)


def _decide(entries: tuple[int, ...]) -> CICertificate | None:
    if entries in _CI_MEMO:
        return _CI_MEMO[entries]
    if len(entries) <= 2:
        cert: CICertificate | None = Leaf(entries)
        _CI_MEMO[entries] = cert
        return cert
    cert = None
    # the split object and witnesses are built for the certifying split only
    for split in _iter_splits(entries):
        _, _, k1, k2, left_red, right_red = split
        left_cert = _decide(left_red)
        right_cert = _decide(right_red)
        if left_cert is None or right_cert is None:
            continue
        k1_witness = find_representation(k1, right_red)
        k2_witness = find_representation(k2, left_red)
        assert k1_witness is not None and k2_witness is not None
        cert = SplitNode(DelormeSplit(*split), k1_witness, k2_witness, left_cert, right_cert)
        break
    _CI_MEMO[entries] = cert
    return cert


def verify_certificate(gens: GeneratorSequence, cert: CICertificate) -> bool:
    """Re-check every split, witness, and leaf bottom-up; False on any defect.

    Malformed trees never raise; they simply fail verification.
    """
    try:
        _, reduced = normalize(gens)
        return _verify(reduced.gens, cert)
    except Exception:
        return False


def _verify(entries: tuple[int, ...], cert: CICertificate) -> bool:
    if isinstance(cert, Leaf):
        return len(entries) <= 2 and cert.entries == entries
    if not isinstance(cert, SplitNode):
        return False
    split = cert.split
    left, right, k1, k2 = split.left_indices, split.right_indices, split.k1, split.k2
    left_red, right_red = split.left_reduced, split.right_reduced
    # two non-empty sides partition the indices, each k times its reduced form;
    # every number is a plain int, since an equal float or bool would pass the
    # arithmetic below (4 * 1.25 == 5)
    return (
        0 < len(left) < len(entries) and sorted(left + right) == [*range(len(entries))]
        and all(type(v) is int for v in (k1, k2, *left_red, *right_red,
                                         *cert.k1_witness, *cert.k2_witness))
        and k1 >= 1 and k2 >= 1 and gcd(k1, k2) == 1
        and [entries[i] for i in left] == [k1 * v for v in left_red]
        and [entries[i] for i in right] == [k2 * v for v in right_red]
        and _is_witness(cert.k1_witness, k1, right_red)
        and _is_witness(cert.k2_witness, k2, left_red)
        and _verify(left_red, cert.left_cert) and _verify(right_red, cert.right_cert)
    )


def _is_witness(coeffs: tuple[int, ...], k: int, gens: tuple[int, ...]) -> bool:
    """True iff coeffs are len(gens) non-negative numbers with sum(c * g) == k."""
    return (len(coeffs) == len(gens) and min(coeffs, default=0) >= 0
            and sum(map(mul, coeffs, gens)) == k)


def format_certificate(cert: CICertificate) -> str:
    """Nested human-readable form, e.g. "31·(1) ⊔ 4·(7,9,12)[7·(1) ⊔ 3·(3,4)]"."""
    if isinstance(cert, Leaf):
        return f"({format_sequence(cert.entries)})"

    def side(k: int, reduced: tuple[int, ...], sub: CICertificate) -> str:
        text = f"{k}·({format_sequence(reduced)})"
        if isinstance(sub, SplitNode):
            text += f"[{format_certificate(sub)}]"
        return text

    left = side(cert.split.k1, cert.split.left_reduced, cert.left_cert)
    right = side(cert.split.k2, cert.split.right_reduced, cert.right_cert)
    return f"{left} ⊔ {right}"


def certificate_to_dict(cert: CICertificate) -> dict:
    if isinstance(cert, Leaf):
        return {"type": "leaf", "entries": list(cert.entries)}
    split = cert.split
    return {
        "type": "split",
        "k1": split.k1,
        "k2": split.k2,
        "left_indices": list(split.left_indices),
        "right_indices": list(split.right_indices),
        "left_reduced": list(split.left_reduced),
        "right_reduced": list(split.right_reduced),
        "k1_witness": list(cert.k1_witness),
        "k2_witness": list(cert.k2_witness),
        "left": certificate_to_dict(cert.left_cert),
        "right": certificate_to_dict(cert.right_cert),
    }


def _int_field(data: dict, key: str) -> int:
    value = data[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {type(value).__name__}")
    return value


def _ints_field(data: dict, key: str) -> tuple[int, ...]:
    value = data[key]
    if not isinstance(value, (list, tuple)) or any(type(v) is not int for v in value):
        raise TypeError(f"{key} must be a list of integers")
    return tuple(value)


def _from_dict(data: dict) -> CICertificate:
    if not isinstance(data, dict):
        raise TypeError(f"a certificate node must be an object, not {type(data).__name__}")
    if data["type"] == "leaf":
        return Leaf(_ints_field(data, "entries"))
    if data["type"] != "split":
        raise ValueError(f"unknown certificate node type {data['type']!r}")
    split = DelormeSplit(
        _ints_field(data, "left_indices"),
        _ints_field(data, "right_indices"),
        _int_field(data, "k1"),
        _int_field(data, "k2"),
        # each reduced side must be strictly increasing and positive
        GeneratorSequence(_ints_field(data, "left_reduced")).gens,
        GeneratorSequence(_ints_field(data, "right_reduced")).gens,
    )
    return SplitNode(
        split,
        _ints_field(data, "k1_witness"),
        _ints_field(data, "k2_witness"),
        _from_dict(data["left"]),
        _from_dict(data["right"]),
    )


def certificate_from_dict(data: dict) -> CICertificate:
    """Rebuild a certificate from the form certificate_to_dict gives.

    Raises InvalidCertificateError on every structural defect: a node that
    is not an object, a missing field, a field of the wrong type (integers
    must be JSON integers, not booleans or floats), an unknown node type, a
    reduced side that is not strictly increasing and positive, or nesting
    too deep to rebuild.  Whether the tree certifies a given sequence is
    left to verify_certificate.
    """
    try:
        return _from_dict(data)
    except KeyError as exc:
        raise InvalidCertificateError(f"certificate field {exc} is missing") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise InvalidCertificateError(f"malformed certificate: {exc}") from None


def certificate_to_json(cert: CICertificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True)


def certificate_from_json(text: str) -> CICertificate:
    """Parse certificate_to_json's output; InvalidCertificateError when the
    text is not JSON, nests too deep to parse, or is not a certificate."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidCertificateError(f"malformed certificate JSON: {exc}") from None
    return certificate_from_dict(data)
