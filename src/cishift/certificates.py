"""Complete-intersection certificates: their types, JSON and text forms, and
the checker.

By Delorme's gluing theorem a sequence is a complete intersection when it is
k1*B1 disjoint-union k2*B2 with gcd(k1, k2) = 1, k1 in <B2>, k2 in <B1>, and
both parts complete intersections; length one or two always qualifies.  A
certificate is the tree of such splits, with the coefficients that witness
each membership.  verify_certificate re-checks it bottom-up with integer
arithmetic alone; this module imports nothing of the search that builds it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from operator import lt, mul
from typing import Sequence, Union

from .errors import InvalidCertificateError


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


def _is_increasing(entries: tuple[int, ...]) -> bool:
    """True iff entries are a non-empty, strictly increasing run of
    positive plain ints: the rule every generator sequence obeys."""
    return ({*map(type, entries)} == {int} and entries[0] >= 1
            and all(map(lt, entries, entries[1:])))


def verify_certificate(gens: Sequence[int], cert: CICertificate) -> bool:
    """Re-check every split, witness, and leaf bottom-up; False on any defect.

    gens is a GeneratorSequence or any sequence of ints; one that is not
    strictly increasing and positive verifies nothing.  Its gcd is divided
    out first.  Malformed trees never raise; they simply fail verification.
    """
    try:
        # a GeneratorSequence keeps its entries in .gens; tuple() of a tuple
        # is the same object, so the common case copies nothing
        entries = tuple(getattr(gens, "gens", gens))
        if not _is_increasing(entries):
            return False
        d = gcd(*entries)
        if d != 1:
            entries = tuple(v // d for v in entries)
        return _verify(entries, cert)
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
        return f"({','.join(map(str, cert.entries))})"

    def side(k: int, reduced: tuple[int, ...], sub: CICertificate) -> str:
        text = f"{k}·({','.join(map(str, reduced))})"
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


def _side_field(data: dict, key: str) -> tuple[int, ...]:
    value = _ints_field(data, key)
    if not _is_increasing(value):
        raise ValueError(f"{key} must be strictly increasing and positive, got {value}")
    return value


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
        _side_field(data, "left_reduced"),
        _side_field(data, "right_reduced"),
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
