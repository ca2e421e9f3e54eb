"""Brute-force oracle: count minimal binomial generators of a curve's ideal.

For each semigroup degree b, the factorizations of b form a graph (edges
join factorizations sharing a generator with positive coefficient); the
ideal needs exactly (components - 1) minimal generators in that degree.
A sequence of m+1 generators is a complete intersection iff the total mu
equals m.

Two interchangeable engines compute the per-degree component counts:

* "graph" (default) works on the much smaller graph whose vertices are the
  generators g with b - g in the semigroup, with an edge g ~ h whenever
  b - g - h is in the semigroup.  Factorizations containing g form a clique,
  and two cliques meet exactly when such an edge exists, so both graphs have
  the same component count.  It shifts the semigroup module's big-integer
  membership mask by g and by g + h and closes the graphs of all degrees at
  once: n * C(n-1, 2) AND/OR pairs for n generators.  Marking each component
  at its smallest vertex, is_ci_oracle reads mu as the marks' popcount minus
  that of their union, with no per-degree profile.
* "enumerate" lists every factorization per degree (depth-first, subject to
  a cap) and unions them coordinate by coordinate, exactly mirroring the
  definition.  It exists as the slow reference path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CapExceededError
from .semigroup import GensLike, _entries, _member_bits
from .seqcore import GeneratorSequence, normalize

DEFAULT_FACTORIZATION_CAP = 50_000

# the oracle refuses an input whose Schur-sized membership mask, or whose
# len(gens)^2 reach masks sized by the degree bound, would hold more bits than this,
MAX_ORACLE_BITS = 1 << 30
# or whose closure, about len(gens)^3 times the reach mask length in bit
# operations, would take more: intervals 160..319 and 200..399 take 0.25 s
# (4.6e9) and 0.6 s (1.1e10) on one core
MAX_CLOSURE_WORK = 1 << 33


@dataclass(frozen=True)
class FactorizationSet:
    """All coefficient vectors representing `degree` over `gens`, lex sorted."""

    degree: int
    gens: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, slots=True)
class BettiProfile:
    """Per-degree minimal generator counts and their total mu."""

    gens: tuple[int, ...]
    bound: int
    counts: tuple[tuple[int, int], ...]  # (degree, count), degree ascending
    mu: int

    def counts_dict(self) -> dict[int, int]:
        return dict(self.counts)


def factorizations(b: int, gens: GensLike, cap: int = DEFAULT_FACTORIZATION_CAP) -> FactorizationSet:
    """Enumerate every representation of b by depth-first search over indices."""
    if b < 0:
        raise ValueError(f"degree must be non-negative, got {b}")
    entries = _entries(gens)
    n = len(entries)
    out: list[tuple[int, ...]] = []
    vec = [0] * n

    def rec(i: int, rem: int) -> None:
        if i == n - 1:
            g = entries[i]
            if rem % g == 0:
                vec[i] = rem // g
                if len(out) >= cap:
                    raise CapExceededError(
                        f"more than {cap} factorizations at degree {b} over {entries}"
                    )
                out.append(tuple(vec))
                vec[i] = 0
            return
        g = entries[i]
        for c in range(rem // g + 1):
            vec[i] = c
            rec(i + 1, rem - c * g)
        vec[i] = 0

    rec(0, b)
    return FactorizationSet(b, entries, tuple(out))


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def graph_components(fset: FactorizationSet) -> int:
    """Connected components of the factorization graph at one degree.

    Vertices sharing a positive coordinate are unioned through one bucket
    pass per coordinate, avoiding the quadratic pairwise scan.
    """
    if not fset.vectors:
        raise ValueError(f"no factorizations at degree {fset.degree}")
    uf = _UnionFind(len(fset.vectors))
    for coord in range(len(fset.gens)):
        prev = -1
        for i, vec in enumerate(fset.vectors):
            if vec[coord] > 0:
                if prev >= 0:
                    uf.union(prev, i)
                prev = i
    return len({uf.find(i) for i in range(len(fset.vectors))})


def _component_firsts(gens: tuple[int, ...], mask: int, upto: int) -> tuple[list[int], int, int]:
    """(firsts, ones, twos) for the factorization graphs of degrees 1..upto.

    `mask` is the membership mask of gens on at least 0..upto.  Bit b of
    reach[i][j] says whether generators i and j are joined at degree b (bit
    b of reach[i][i]: whether i is a vertex there), so one boolean
    Floyd-Warshall over these masks closes the graphs of all degrees at once.
    reach is symmetric and every edge mask lies inside the vertex masks of
    its ends, so the closure updates the pairs i < j off k only, writing
    both halves, and leaves the diagonal alone: n * C(n-1, 2) AND/OR pairs.
    Each component is counted at its smallest vertex i, by bit b of firsts[i].
    """
    n = len(gens)
    full = (1 << (upto + 1)) - 1
    mask &= full  # shift only the bits that can land inside full
    reach = [[0] * n for _ in range(n)]
    for i, gi in enumerate(gens):
        reach[i][i] = (mask << gi) & full
        for j in range(i + 1, n):
            reach[i][j] = reach[j][i] = (mask << (gi + gens[j])) & full
    for k, row_k in enumerate(reach):
        for i, row_i in enumerate(reach):
            if i == k:
                continue
            via = row_k[i]
            for j in range(i + 1, n):
                if j != k:
                    row_i[j] = reach[j][i] = row_i[j] | (via & row_k[j])
    firsts = []
    ones = twos = 0  # degrees with at least one / two components
    for i, row in enumerate(reach):
        joined = 0
        for x in row[:i]:
            joined |= x
        first = row[i] & ~joined
        firsts.append(first)
        twos |= ones & first
        ones |= first
    return firsts, ones, twos


def _disconnected_degrees(gens: tuple[int, ...], mask: int, upto: int) -> dict[int, int]:
    """{degree: components - 1} for every degree 1..upto with a disconnected graph."""
    firsts, _, twos = _component_firsts(gens, mask, upto)
    out = {}
    while twos:
        b = twos.bit_length() - 1
        twos ^= 1 << b
        out[b] = sum(first >> b & 1 for first in firsts) - 1
    return out


def _refuse_oversized(entries: tuple[int, ...], amount: int, limit: int, unit: str) -> None:
    if amount > limit:
        if len(entries) > 8:
            head = ", ".join(map(str, entries[:3]))
            name = f"{len(entries)} generators ({head}, ..., {entries[-1]})"
        else:
            name = str(entries)
        raise CapExceededError(f"oracle for {name} needs about {amount} {unit}, more than {limit}")


def _prepare(seq: GeneratorSequence) -> tuple:
    """(d, rgens, B, mask) for seq = d * rgens: the degree bound B = F + 2*max
    over rgens and the membership mask of rgens on at least 0..B.  B suffices:
    past it every b - g - h exceeds F, so every pair of generators is joined.

    The mask is sized by Schur's bound F < (min-1)(max-1), cut where n^2 reach
    masks would pass MAX_ORACLE_BITS; F is its highest zero bit.  An F past
    the cut leaves a gap in the mask's top min bits (min members in a row
    would admit every larger value), so the B read off exceeds the cut too.
    """
    d, reduced = normalize(seq)
    rgens, gmax = reduced.gens, reduced.gens[-1]
    n = len(rgens)
    # the uncut mask, of fewer than min*max + 2*max bits, must fit too, or a
    # pair such as 100000, 100001 would build 2^28 bits before its refusal
    _refuse_oversized(seq.gens, rgens[0] * gmax + 2 * gmax, MAX_ORACLE_BITS, "mask bits")
    nbits = min((rgens[0] - 1) * (gmax - 1) + 2 * gmax, MAX_ORACLE_BITS // (n * n) + 1)
    mask = _member_bits(rgens, nbits)
    B = (~mask & ((1 << nbits) - 1)).bit_length() - 1 + 2 * gmax
    # n(n+1)/2 reach masks of B bits, then the closure
    _refuse_oversized(seq.gens, n * n * B, MAX_ORACLE_BITS, "mask bits")
    _refuse_oversized(seq.gens, n**3 * B, MAX_CLOSURE_WORK, "closure bit operations")
    return d, rgens, B, mask


def betti_profile(gens: GensLike, *, engine: str = "graph") -> BettiProfile:
    """Count minimal generators per degree up to the bound frobenius + 2*max
    over the gcd-normalized sequence (see _prepare).

    An unknown engine raises ValueError before any mask is built.  Inputs
    over MAX_ORACLE_BITS or MAX_CLOSURE_WORK raise CapExceededError before
    the reach masks are built: the Schur-sized membership mask is checked
    first, then the reach masks and the closure, once, at the bound.
    """
    if engine not in ("graph", "enumerate"):
        raise ValueError(f"unknown engine {engine!r}")
    seq = gens if isinstance(gens, GeneratorSequence) else GeneratorSequence(gens)
    d, rgens, B, mask = _prepare(seq)

    if engine == "graph":
        disconnected = _disconnected_degrees(rgens, mask, B)
    else:
        disconnected = {}
        for b in range(1, B + 1):
            fset = factorizations(b, rgens, DEFAULT_FACTORIZATION_CAP)
            comps = graph_components(fset) if len(fset) >= 2 else 1
            if comps > 1:
                disconnected[b] = comps - 1

    counts = tuple(sorted((b * d, c) for b, c in disconnected.items()))
    mu = sum(c for _, c in counts)
    return BettiProfile(seq.gens, B * d, counts, mu)


def is_ci_oracle(gens: GensLike) -> bool:
    """Complete intersection iff mu equals (number of generators) - 1.

    Past two generators, equal to betti_profile(gens).mu == len(gens) - 1, errors included."""
    seq = gens if isinstance(gens, GeneratorSequence) else GeneratorSequence(gens)
    if len(seq) <= 2:
        return True
    _, rgens, B, mask = _prepare(seq)
    firsts, ones, _ = _component_firsts(rgens, mask, B)
    return sum(first.bit_count() for first in firsts) - ones.bit_count() == len(seq) - 1


def profile_to_dict(profile: BettiProfile) -> dict:
    return {
        "gens": list(profile.gens),
        "bound": profile.bound,
        "counts": [{"degree": b, "count": c} for b, c in profile.counts],
        "mu": profile.mu,
    }


def profile_from_dict(data: dict) -> BettiProfile:
    return BettiProfile(
        tuple(data["gens"]),
        data["bound"],
        tuple((item["degree"], item["count"]) for item in data["counts"]),
        data["mu"],
    )


def profile_to_json(profile: BettiProfile) -> str:
    return json.dumps(profile_to_dict(profile), sort_keys=True)


def profile_from_json(text: str) -> BettiProfile:
    return profile_from_dict(json.loads(text))
