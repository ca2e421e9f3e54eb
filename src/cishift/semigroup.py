"""Numerical-semigroup arithmetic: membership, representations, Frobenius numbers.

Everything here is a pure function of (value, generator tuple), answered
from big-integer bitsets whose bit v stands for the value v:

* membership reads one shift-or mask, built by ``_member_bits`` in
  O(len(gens) * log(b)) big-integer operations;
* the Frobenius number F of a pair is Sylvester's, read with no mask; of
  more generators it is the highest zero bit of such a mask, grown from a
  lower bound on F until it holds F + 2*max bits (``_frobenius_bound``,
  which the oracle shares), so its length follows F, not Schur's bound;
* representation search keeps one mask per exact coefficient count t, so a
  witness with coefficient sum t costs O(len(gens) * t) big-integer
  operations, however large the target; it returns the coefficient tuple.

This module alone decides how large a bitset may be: MAX_MASK_BITS.  Each
kernel raises CapExceededError before it builds a mask that would pass it:
membership and witness search on a target b >= MAX_MASK_BITS, witness search
once its layers together pass it, and ``_frobenius_bound`` once F + 2*max
passes its cut, MAX_MASK_BITS // copies for a caller that holds that many
masks of that length (1 for ``frobenius``, n^2 for the oracle).

Generators are checked once, where input enters (``_entries``): a
GeneratorSequence was checked when it was built, and any other sequence must
hold only positive entries.  The bitset kernels take that for granted.

Nothing is kept between calls: each membership query builds its mask just
long enough to reach its target, and drops it on return.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Sequence

from .errors import CapExceededError
from .seqcore import GeneratorSequence

GensLike = GeneratorSequence | Sequence[int]

# The bits of the masks one call may hold at once (128 MiB): a membership
# mask is as long as its target; witness search keeps every layer, about
# (coefficient sum) x target bits, so with 1 among the generators its memory
# grows with the square of the target; and the oracle (toricoracle._prepare)
# holds n^2 vertex and edge masks of the degree bound.
MAX_MASK_BITS = 1 << 30


def _entries(gens: GensLike) -> tuple[int, ...]:
    if isinstance(gens, GeneratorSequence):
        return gens.gens
    entries = tuple(gens)
    # a generator 0 would keep the bitset loops below from ever terminating
    if min(entries, default=1) < 1:
        raise ValueError(f"generators must be positive, got {entries}")
    return entries


def _named(entries: tuple[int, ...]) -> str:
    """entries as a refusal names them: past eight, by their count, the
    first three and the last."""
    if len(entries) > 8:
        head = ", ".join(map(str, entries[:3]))
        return f"{len(entries)} generators ({head}, ..., {entries[-1]})"
    return str(entries)


def _mask_refusal(subject: str, bits: int) -> CapExceededError:
    return CapExceededError(f"{subject} needs at least {bits} mask bits, more than {MAX_MASK_BITS}")


def _member_bits(gens: tuple[int, ...], nbits: int) -> int:
    """Bitmask integer with bit v set iff v is in the semigroup, v < nbits.

    Shift-or closure: after OR-ing in the mask shifted by g, 2g, 4g, ...,
    the set is closed under adding any multiple of g below nbits.
    """
    full = (1 << nbits) - 1
    mask = 1
    for g in gens:
        shift = g
        while shift < nbits:
            mask |= (mask << shift) & full
            shift <<= 1
    return mask


def is_member(b: int, gens: GensLike) -> bool:
    """True iff b is a non-negative integer combination of the generators.

    Raises CapExceededError when b >= MAX_MASK_BITS, before its b + 1 bit
    mask is built.
    """
    if b < 0:
        raise ValueError(f"membership target must be non-negative, got {b}")
    if b >= MAX_MASK_BITS:
        raise _mask_refusal(f"membership of {b} in {_named(_entries(gens))}", b + 1)
    return bool(_member_bits(_entries(gens), b + 1) >> b & 1)


def _count_layers(b: int, gens: tuple[int, ...]):
    """Yield layer t = 0, 1, ...: layer[i] holds, as a bitmask over 0..b,
    the values that are sums of exactly t entries of gens[i:].

    layer[len(gens)] is the empty tail; each layer costs len(gens) big-int
    operations, via R_i[t] = R_{i+1}[t] | (R_i[t-1] << g_i), with the shift
    skipped for a g_i > b, which sets no bit up to b.  Callers keep the
    layers, so CapExceededError is raised once the bits yielded pass
    MAX_MASK_BITS, and before any mask when b >= MAX_MASK_BITS.
    """
    n = len(gens)
    if b >= MAX_MASK_BITS:
        raise _mask_refusal(f"witness search for {b} over {_named(gens)}", b + 1)
    full = (1 << (b + 1)) - 1
    layer = [1] * (n + 1)
    bits = 0
    while True:
        bits += sum(map(int.bit_length, layer))
        if bits > MAX_MASK_BITS:
            raise _mask_refusal(f"witness search for {b} over {_named(gens)}", bits)
        yield layer
        prev = layer
        layer = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            layer[i] = layer[i + 1]
            if gens[i] <= b:  # a larger one sets no bit, yet would build an int that wide
                layer[i] |= (prev[i] << gens[i]) & full


def _lex_smallest(
    b: int, gens: tuple[int, ...], layers: list[list[int]]
) -> tuple[int, ...]:
    """Greedy reconstruction, minimizing each coefficient from the left.

    Requires bit b of layers[-1][0], i.e. b is a sum of exactly
    len(layers) - 1 generators.
    """
    coeffs = []
    v, s = b, len(layers) - 1
    for i, g in enumerate(gens):
        t = 0
        while not layers[s - t][i + 1] >> (v - t * g) & 1:
            t += 1
        coeffs.append(t)
        v, s = v - t * g, s - t
    return tuple(coeffs)


def find_representation(b: int, gens: GensLike) -> tuple[int, ...] | None:
    """Coefficients c >= 0 with sum(c * g) == b, minimizing sum(c).

    Ties are broken by the lexicographically smallest coefficient vector,
    so results are reproducible across runs.
    """
    if b < 0:
        raise ValueError(f"representation target must be non-negative, got {b}")
    entries = _entries(gens)
    layers = []
    for layer in _count_layers(b, entries):
        layers.append(layer)
        if layer[0] >> b & 1:
            return _lex_smallest(b, entries, layers)
        if not layer[0]:
            return None  # t entries already exceed b, and so will more


def find_representation_with_sum(
    b: int, gens: GensLike, total: int
) -> tuple[int, ...] | None:
    """Coefficients c >= 0 with sum(c * g) == b and sum(c) == total.

    Ties are broken by the lexicographically smallest coefficient vector.
    """
    if b < 0:
        raise ValueError(f"representation target must be non-negative, got {b}")
    if total < 0:
        return None
    entries = _entries(gens)
    layers = list(itertools.islice(_count_layers(b, entries), total + 1))
    if not layers[-1][0] >> b & 1:
        return None
    return _lex_smallest(b, entries, layers)


def _frobenius_floor(gens: tuple[int, ...]) -> int:
    """A gap <= F of sorted gcd-1 positive gens: Sylvester's
    F = g0*g1 - g0 - g1 for a pair; otherwise (s+1)*min - 1, s the largest
    integer with s*(max - min) < min - 1.  That is a gap: a member below
    (s+1)*min sums r <= s generators, so lies in [r*min, r*max], and
    r*max < (s+1)*min - 1."""
    if len(gens) == 2:
        return gens[0] * gens[1] - gens[0] - gens[1]
    return ((gens[0] - 2) // max(gens[-1] - gens[0], 1) + 1) * gens[0] - 1


def _frobenius_bound(gens: tuple[int, ...], copies: int, what: str) -> tuple[int, int]:
    """(F + 2*max, mask) for sorted gcd-1 positive gens, the membership mask
    holding at least 0..F + 2*max, for a caller that holds `copies` masks
    of that length.

    No mask passes the cut min(MAX_MASK_BITS // copies, S) with Schur's
    S = (min-1)(max-1) + 2*max, which F + 2*max never reaches.  The bound
    starts from _frobenius_floor.  Each round builds the mask on
    min(4*bound, cut) + 1 bits and reads F as its highest zero bit.  That is
    exact once F + 2*max < nbits, since the 2*max >= min members above it
    admit every larger value; else F + 2*max >= nbits is the next bound.  A
    bound past the cut raises CapExceededError: `what` needs at least copies
    times that many mask bits.
    """
    cut = min(MAX_MASK_BITS // copies, (gens[0] - 1) * (gens[-1] - 1) + 2 * gens[-1])
    bound = _frobenius_floor(gens) + 2 * gens[-1]
    while bound <= cut:
        nbits = min(4 * bound, cut) + 1
        mask = _member_bits(gens, nbits)
        bound = (~mask & ((1 << nbits) - 1)).bit_length() - 1 + 2 * gens[-1]
        if bound < nbits:
            return bound, mask
    raise _mask_refusal(f"{what} for {_named(gens)}", copies * bound)


def frobenius(gens: GensLike) -> int:
    """Largest integer outside the semigroup; -1 when 1 is a generator.

    A pair's F is Sylvester's, read with no mask.  Otherwise F is read off a
    membership mask grown from a lower bound on F (see _frobenius_bound),
    never past Schur's bound F < (min-1)(max-1); CapExceededError when F +
    2*max passes MAX_MASK_BITS.
    """
    entries = tuple(sorted(_entries(gens)))
    d = gcd(*entries)
    if d != 1:
        raise ValueError(f"frobenius number undefined: gcd({entries}) = {d}")
    if len(entries) == 2:
        return _frobenius_floor(entries)
    return _frobenius_bound(entries, 1, "Frobenius number")[0] - 2 * entries[-1]


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors of non-positive {n}")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])
