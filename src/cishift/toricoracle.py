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
  the same component count.  Membership comes from the bitmask of the
  semigroup module, and for up to five generators all degrees are resolved
  at once through numpy and a precomputed component-count lookup table.
* "enumerate" lists every factorization per degree (depth-first, subject to
  a cap) and unions them coordinate by coordinate, exactly mirroring the
  definition.  It exists as the slow reference path.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import BoundTooSmallError, CapExceededError
from .semigroup import GensLike, _entries, _member_bytes, frobenius
from .seqcore import GeneratorSequence, normalize

DEFAULT_FACTORIZATION_CAP = 50_000

# component-count lookup tables go up to this many generators
_TABLE_MAX_GENS = 5


@dataclass(frozen=True)
class FactorizationSet:
    """All coefficient vectors representing `degree` over `gens`, lex sorted."""

    degree: int
    gens: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
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


def _member_array(gens: tuple[int, ...], length: int):
    raw = np.frombuffer(_member_bytes(gens, (length + 7) // 8), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length].astype(bool)


_COMP_TABLES: dict[int, np.ndarray] = {}


def _component_table(nv: int) -> np.ndarray:
    """table[vmask << E | emask] = components of the graph it encodes."""
    table = _COMP_TABLES.get(nv)
    if table is not None:
        return table
    pairs = list(itertools.combinations(range(nv), 2))
    E = len(pairs)
    table = np.zeros(1 << (nv + E), dtype=np.uint8)
    for vmask in range(1 << nv):
        verts = [i for i in range(nv) if vmask >> i & 1]
        base = vmask << E
        for emask in range(1 << E):
            uf = _UnionFind(nv)
            for bit, (i, j) in enumerate(pairs):
                if emask >> bit & 1 and vmask >> i & 1 and vmask >> j & 1:
                    uf.union(i, j)
            table[base | emask] = len({uf.find(i) for i in verts})
    _COMP_TABLES[nv] = table
    return table


def _counts_graph_numpy(gens: tuple[int, ...], mem, upto: int) -> np.ndarray:
    """(components - 1) per member degree 0..upto, vectorized via the table."""
    n = len(gens)
    pairs = list(itertools.combinations(range(n), 2))
    E = len(pairs)
    L = upto + 1
    code = np.zeros(L, dtype=np.int64)
    for i, g in enumerate(gens):
        v = np.zeros(L, dtype=bool)
        if g < L:
            v[g:] = mem[: L - g]
        code |= v.astype(np.int64) << (E + i)
    for bit, (i, j) in enumerate(pairs):
        s = gens[i] + gens[j]
        if s < L:
            e = np.zeros(L, dtype=bool)
            e[s:] = mem[: L - s]
            code |= e.astype(np.int64) << bit
    comps = _component_table(n)[code].astype(np.int64)
    contrib = np.where(mem[:L], comps - 1, 0)
    contrib[0] = 0
    return contrib


def _counts_graph_python(gens: tuple[int, ...], mem, upto: int) -> list[int]:
    n = len(gens)
    contrib = [0] * (upto + 1)
    for b in range(1, upto + 1):
        if not mem[b]:
            continue
        verts = [i for i in range(n) if b >= gens[i] and mem[b - gens[i]]]
        uf = _UnionFind(n)
        for i, j in itertools.combinations(verts, 2):
            r = b - gens[i] - gens[j]
            if r >= 0 and mem[r]:
                uf.union(i, j)
        contrib[b] = len({uf.find(i) for i in verts}) - 1
    return contrib


def betti_profile(
    gens: GensLike,
    bound: int | None = None,
    *,
    cap: int = DEFAULT_FACTORIZATION_CAP,
    engine: str = "graph",
) -> BettiProfile:
    """Count minimal generators per degree up to a bound, then guard-check.

    The default bound is frobenius + 2*max over the gcd-normalized sequence.
    A window of one extra max(gens) stretch past the bound must contain no
    disconnected degree, otherwise BoundTooSmallError is raised; this keeps
    an undersized bound from silently undercounting mu.
    """
    entries = _entries(gens)
    d, reduced = normalize(GeneratorSequence(entries))
    rgens = reduced.gens
    gmax = rgens[-1]

    if bound is not None and bound < entries[-1]:
        raise ValueError(f"bound {bound} below max generator {entries[-1]}")

    if len(rgens) == 1:
        B = bound if bound is not None else entries[-1]
        return BettiProfile(entries, B, (), 0)

    if bound is None:
        B = frobenius(rgens) + 2 * gmax
    else:
        B = bound // d
    upto = B + gmax  # guard window (B, B + gmax]
    mem = _member_array(rgens, upto + 1)

    if engine == "graph":
        if len(rgens) <= _TABLE_MAX_GENS:
            contrib = _counts_graph_numpy(rgens, mem, upto)
        else:
            contrib = _counts_graph_python(rgens, mem, upto)
    elif engine == "enumerate":
        contrib = [0] * (upto + 1)
        for b in range(1, upto + 1):
            fset = factorizations(b, rgens, cap)
            if len(fset) >= 2:
                contrib[b] = graph_components(fset) - 1
    else:
        raise ValueError(f"unknown engine {engine!r}")

    for b in range(B + 1, upto + 1):
        if contrib[b] > 0:
            raise BoundTooSmallError(
                f"disconnected degree {b * d} beyond bound {B * d} for {entries}"
            )
    counts = tuple(
        (b * d, int(contrib[b])) for b in range(1, B + 1) if contrib[b] > 0
    )
    mu = sum(c for _, c in counts)
    return BettiProfile(entries, B * d, counts, mu)


def is_ci_oracle(gens: GensLike, *, cap: int = DEFAULT_FACTORIZATION_CAP) -> bool:
    """Complete intersection iff mu equals (number of generators) - 1."""
    entries = _entries(gens)
    if len(entries) <= 2:
        return True
    profile = betti_profile(entries, cap=cap)
    return profile.mu == len(entries) - 1


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
