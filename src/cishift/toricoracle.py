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
  membership mask by g and by g + h and resolves the graphs of all degrees
  at once, eliminating the generators from the largest down: C(n, 3)
  AND/OR pairs for n generators.  Marking each component at its smallest
  vertex, is_ci_oracle reads mu as the marks' popcount minus that of their
  union, with no per-degree profile.  Degrees run to F + 2*max.  F is read
  off the membership mask itself, grown from a lower bound on F; the
  semigroup module sizes that mask for the n^2 vertex and edge masks the
  closure holds, and refuses an input whose masks would be too large (see
  _prepare).
* "enumerate" lists every factorization per degree (depth-first, subject to
  a cap) and unions them coordinate by coordinate, exactly mirroring the
  definition.  It exists as the slow reference path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import CapExceededError
from .semigroup import GensLike, _entries, _frobenius_bound, _named
from .seqcore import GeneratorSequence, normalize

DEFAULT_FACTORIZATION_CAP = 50_000

# the oracle refuses an input whose closure, charged its C(len(gens), 3)
# AND/OR pairs times the degree bound in bit operations, would take more than
# this: intervals 220..439 and 300..599 take 0.45 s (1.9e9) and 1.1 s (6.7e9)
# on one core
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
    mask << g says whether generator g is a vertex at degree b, and bit b of
    mask << (g + h) whether g and h are joined there; each edge mask lies
    inside the vertex masks of its ends.  Each component is counted at its
    smallest vertex i, by bit b of firsts[i]: i is joined to no smaller
    generator.  A path from i to a smaller generator reaches the first one
    through larger generators only, so eliminating the generators from the
    largest down decides this: eliminating i joins each pair of its smaller
    neighbours, and leaves i's edges to them final.  That is one AND/OR pair
    per triple, C(n, 3) for n generators.  The C(n, 2) edge masks lie in the
    order of combinations over the generators reversed: each generator's
    edges to the smaller ones form a slice, and the pairs among those follow
    it in the order of combinations over that slice.  Bits past upto never
    reach a first, so only the vertex masks are cut.
    """
    full = (1 << (upto + 1)) - 1
    mask &= full  # a longer mask's bits past upto would lengthen every shift
    edges = [mask << (g + h) for g, h in combinations(gens[::-1], 2)]
    firsts = []
    start = 0
    for i in range(len(gens) - 1, -1, -1):
        row = edges[start:start + i]  # generator i to i-1, ..., 0
        start += i
        p = start
        joined = 0
        for x, y in combinations(row, 2):
            edges[p] |= x & y
            p += 1
        for x in row:
            joined |= x
        firsts.append((mask << gens[i]) & full & ~joined)
    firsts.reverse()
    ones = twos = 0  # degrees with at least one / two components
    for first in firsts:
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


def _prepare(seq: GeneratorSequence) -> tuple:
    """(d, rgens, B, mask) for seq = d * rgens: the degree bound B = F + 2*max
    over rgens and the membership mask of rgens on at least 0..B.  B suffices:
    past it every b - g - h exceeds F, so every pair of generators is joined.

    _frobenius_bound sizes the mask for the n^2 masks of B bits the closure
    holds, and refuses an input whose B would make them too large.  The
    closure is charged its C(n, 3) AND/OR pairs of B bits.
    """
    d, reduced = normalize(seq)
    rgens = reduced.gens
    n = len(rgens)
    B, mask = _frobenius_bound(rgens, n * n, "oracle")
    work = comb(n, 3) * B
    if work > MAX_CLOSURE_WORK:
        raise CapExceededError(
            f"oracle for {_named(rgens)} needs at least {work} closure bit "
            f"operations, more than {MAX_CLOSURE_WORK}"
        )
    return d, rgens, B, mask


def betti_profile(gens: GensLike, *, engine: str = "graph") -> BettiProfile:
    """Count minimal generators per degree up to the bound frobenius + 2*max
    over the gcd-normalized sequence (see _prepare).

    An unknown engine raises ValueError before any mask is built.  Inputs
    whose masks the semigroup module refuses, or whose closure would pass
    MAX_CLOSURE_WORK, raise CapExceededError before the vertex and edge
    masks are built.
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
    n = len(seq.gens)
    if n <= 2:
        return True
    _, rgens, B, mask = _prepare(seq)
    firsts, ones, _ = _component_firsts(rgens, mask, B)
    return sum(map(int.bit_count, firsts)) - ones.bit_count() == n - 1


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
