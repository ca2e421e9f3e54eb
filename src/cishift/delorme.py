"""Recursive complete-intersection decision: the search for gluing splits.

A sequence is a complete intersection exactly when it can be written as
k1*B1 disjoint-union k2*B2 with gcd(k1, k2) = 1, k1 in <B2>, k2 in <B1>,
and both parts recursively complete intersections; sequences of length one
or two always qualify.  The search returns the first such tree as a
certificate (the types, forms and checker live in the certificates module).

Every split it lists or searches is a split of the gcd-normalized
sequence: both public entry points divide out the gcd first (_normalized),
which is the frame every certificate and its checker use.  A valid split of
a normalized sequence has gcd(B1) = gcd(B2) = 1, so k1 and k2 are the gcds
of the two sides and the recursion never normalizes again: gcd(B1) divides
every left entry, and k2 through the witness of k2 in <B1>, so every right
entry too; likewise for B2.

The split search skips a bipartition when gcd(left) * gcd(right) is below
the larger of the two sides' smallest entries; no valid split can come from
it, on any input.  Proof: k1 >= 1 lies in <right/k2>, so k1 >= min(right)/k2,
and likewise k2 >= min(left)/k1; so k1*k2 is at least both smallest entries,
while k1 | gcd(left) and k2 | gcd(right) give k1*k2 <= gcd(left)*gcd(right).
The gluing degree k1*k2 is thus bounded by the sides' gcds.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence

from .certificates import CICertificate, DelormeSplit, Leaf, SplitNode
# unused here: the benchmark harness calls and traces delorme.verify_certificate
from .certificates import verify_certificate  # noqa: F401
from .errors import CapExceededError
from .semigroup import divisors, find_representation, is_member
from .seqcore import GeneratorSequence, normalize

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


@lru_cache(maxsize=4096)
def _indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of mask, ascending.

    A function of the mask alone, so every sequence length shares it, and
    memoized certificates share the tuples it returns.  Most calls miss the
    cache when most of the 2^m bipartitions pass the gluing-degree bound (as
    on 1, 2, 4, ..., 2^16); peeling off the lowest set bit takes one step per
    set bit, where testing each bit position takes one per position.
    """
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


# one valid split: (left, right, k1, k2, left_reduced, right_reduced)
_SplitTuple = tuple[tuple[int, ...], tuple[int, ...], int, int, tuple[int, ...], tuple[int, ...]]


def _iter_splits(entries: tuple[int, ...]) -> Iterator[_SplitTuple]:
    """All valid splits of increasing entries of gcd 1 in canonical order, as
    plain tuples (left, right, k1, k2, left_reduced, right_reduced): left
    bitmask ascending, then k1 descending, then k2 descending.

    Each side's gcd is read off a table of all 2^m subset gcds, built with
    one gcd per subset.  A bipartition is skipped when gl * gr, the product
    of the sides' gcds, is below max(min(left), min(right)): a valid split
    has k1 | gl and k2 | gr, and k1*k2 >= both smallest entries, since k1 is
    in <right/k2> and k2 in <left/k1>.  With gl = 1 the test asks
    gr = min(right), as gr | min(right); it also drops sides whose gcds
    exceed 1 but multiply to too little, such as the singleton {j} of a shift
    whose other entries are coprime.  In every other bipartition k1 runs
    over the divisors of gl and k2 over those of gr.  Every pair is coprime,
    as gcd(gl, gr) = gcd(entries) = 1, and costs the membership query k1 in
    <right reduced>, and k2 in <left reduced> if that holds.  Only the pair
    (gl, gr) can pass both (see the module docstring); the loops over the
    other divisors still run, and cost most of the queries.
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
                right_red = tuple(v // k2 for v in right_vals)
                if is_member(k1, right_red) and is_member(k2, left_red):
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


def _normalized(gens: Sequence[int] | GeneratorSequence) -> tuple[int, ...]:
    """The entries of gens with their gcd divided out, within the caps.

    A plain sequence is read as a GeneratorSequence, which checks it.  Raises
    CapExceededError when the normalized entries fail _check_size.
    """
    seq = gens if isinstance(gens, GeneratorSequence) else GeneratorSequence(gens)
    entries = normalize(seq)[1].gens
    _check_size(entries)
    return entries


def enumerate_splits(gens: Sequence[int] | GeneratorSequence) -> list[DelormeSplit]:
    """All valid splits of the gcd-normalized form of a sequence with at
    least three entries, in canonical order.

    These are the splits the decider searches, in the frame its certificates
    use: c*g has the splits of g.  A plain sequence is read as a
    GeneratorSequence.  Raises CapExceededError as is_complete_intersection
    does.
    """
    if len(gens) < 3:
        raise ValueError("splits are only enumerated for sequences of length >= 3")
    return [DelormeSplit(*split) for split in _iter_splits(_normalized(gens))]


# verdict cache keyed by the normalized entry tuple
_CI_MEMO: dict[tuple[int, ...], CICertificate | None] = {}


def clear_caches() -> None:
    """Empty the verdict memo and the split-side indices.

    Answers do not depend on either cache; this only returns their memory.
    """
    _CI_MEMO.clear()
    _indices.cache_clear()


def is_complete_intersection(gens: Sequence[int] | GeneratorSequence) -> CICertificate | None:
    """Certificate if the sequence is a complete intersection, else None.

    A plain sequence is read as a GeneratorSequence, which checks it.  The
    overall gcd is divided out first. Among the valid splits of the
    normalized sequence (enumerate_splits) in canonical order, the first
    whose two reduced parts are recursively complete intersections becomes
    the certificate. Verdicts are memoized by the normalized sequence.
    Raises CapExceededError, before any search, when generators x largest
    entry of the normalized sequence exceeds MAX_DECIDE_SIZE or it has more
    than MAX_DECIDE_GENS generators.
    """
    return _decide(_normalized(gens))


def _decide(entries: tuple[int, ...]) -> CICertificate | None:
    if entries in _CI_MEMO:
        return _CI_MEMO[entries]
    if len(entries) <= 2:
        _CI_MEMO[entries] = Leaf(entries)
        return _CI_MEMO[entries]
    cert: CICertificate | None = None
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
