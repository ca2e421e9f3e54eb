import hashlib
import itertools
import random
import tracemalloc
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cishift import semigroup, toricoracle
from cishift.delorme import is_complete_intersection
from cishift.errors import CapExceededError
from cishift.semigroup import _member_bits, frobenius
from cishift.seqcore import GeneratorSequence
from cishift.toricoracle import (
    _disconnected_degrees,
    betti_profile,
    factorizations,
    graph_components,
    is_ci_oracle,
    profile_from_json,
    profile_to_json,
)


class TestFactorizations:
    def test_examples(self):
        assert factorizations(6, (2, 3)).vectors == ((0, 2), (3, 0))
        assert factorizations(0, (5, 9)).vectors == ((0, 0),)
        assert factorizations(7, (3, 5)).vectors == ()
        for gens in [(-2, 3), (0, 3)]:
            with pytest.raises(ValueError, match="generators must be positive"):
                factorizations(6, gens)

    def test_lexicographic_order(self):
        fset = factorizations(24, (2, 3, 4))
        assert list(fset.vectors) == sorted(fset.vectors)

    def test_all_vectors_valid_and_distinct(self):
        fset = factorizations(30, (3, 5, 7))
        assert len(set(fset.vectors)) == len(fset.vectors)
        for vec in fset.vectors:
            assert sum(c * g for c, g in zip(vec, fset.gens)) == 30

    def test_cap(self):
        with pytest.raises(CapExceededError):
            factorizations(600, (1, 2, 3), cap=100)


class TestGraphComponents:
    def test_examples(self):
        assert graph_components(factorizations(6, (2, 3))) == 2
        assert graph_components(factorizations(12, (4, 6))) == 2
        assert graph_components(factorizations(9, (9, 14))) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            graph_components(factorizations(7, (3, 5)))

    def test_matches_pairwise_definition(self):
        def components_quadratic(fset):
            vecs = fset.vectors
            n = len(vecs)
            adj = {i: set() for i in range(n)}
            for i in range(n):
                for j in range(i + 1, n):
                    if any(a > 0 and b > 0 for a, b in zip(vecs[i], vecs[j])):
                        adj[i].add(j)
                        adj[j].add(i)
            seen = set()
            comps = 0
            for i in range(n):
                if i in seen:
                    continue
                comps += 1
                stack = [i]
                while stack:
                    x = stack.pop()
                    if x in seen:
                        continue
                    seen.add(x)
                    stack.extend(adj[x])
            return comps

        for gens in [(2, 3), (3, 4, 5), (4, 6, 9), (5, 6, 7)]:
            for b in range(1, 45):
                fset = factorizations(b, gens)
                if fset.vectors:
                    assert graph_components(fset) == components_quadratic(fset), (b, gens)


class TestBettiProfile:
    def test_two_three(self):
        profile = betti_profile((2, 3))
        assert profile.counts_dict() == {6: 1}
        assert profile.mu == 1

    def test_345(self):
        profile = betti_profile((3, 4, 5))
        assert profile.mu == 3
        assert set(profile.counts_dict()) == {8, 9, 10}

    def test_7912(self):
        profile = betti_profile((7, 9, 12))
        assert profile.mu == 2
        assert profile.counts_dict() == {21: 1, 36: 1}

    def test_10_11_13(self):
        # a caller-chosen bound of 36 used to drop the degrees 50 and 52
        profile = betti_profile((10, 11, 13))
        assert profile.counts_dict() == {33: 1, 50: 1, 52: 1}
        assert profile.mu == 3

    def test_engines_agree(self):
        # the last case has six generators, more than the other cases
        for gens in [(2, 3), (3, 4, 5), (5, 6, 7), (4, 6, 9), (7, 9, 12), (1, 2, 3),
                     (6, 10, 15), (28, 31, 36, 48), (5, 6, 7, 8, 9, 11)]:
            fast = betti_profile(gens)
            slow = betti_profile(gens, engine="enumerate")
            assert fast == slow, gens

    def test_scale_invariance(self):
        for gens in [(2, 3), (3, 4, 5), (4, 6, 9)]:
            base_profile = betti_profile(gens)
            for d in (2, 3):
                scaled = betti_profile(tuple(d * g for g in gens))
                assert scaled.mu == base_profile.mu
                assert scaled.counts_dict() == {
                    d * b: c for b, c in base_profile.counts
                }

    def test_mu_at_least_height(self):
        for n in (3, 4):
            for comb in itertools.combinations(range(1, 13), n):
                d = 0
                for g in comb:
                    d = gcd(d, g)
                if d != 1:
                    continue
                assert betti_profile(comb).mu >= n - 1, comb

    def test_deterministic(self):
        runs = {betti_profile((5, 7, 9, 11)) for _ in range(3)}
        assert len(runs) == 1

    def test_singleton(self):
        assert betti_profile((7,)).mu == 0

    def test_large_degree_bound(self):
        # shift j = 5000 of the base (11, 16, 28): 940,141 degrees, and the
        # profile JSON pinned by its digest
        profile = betti_profile((5000, 5011, 5016, 5028))
        assert profile.bound == 940_141
        assert profile.mu == 4
        assert hashlib.sha256(profile_to_json(profile).encode()).hexdigest() == (
            "9dbc95d6d7a10d501db11ecce81490d98aed0c6a929e068f17274e20026d0d23"
        )

    def test_oversized_input_refused_before_any_mask(self):
        # the membership mask alone would take 1e10 bits
        with pytest.raises(CapExceededError):
            betti_profile((100000, 100001))
        # 600 generators: a small membership mask, but 600^2 reach masks of
        # 2,997 bits each
        with pytest.raises(CapExceededError):
            betti_profile(tuple(range(600, 1200)))

    def test_oversized_input_builds_no_mask(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the reach masks were built")

        def member_bits(gens, nbits):
            assert nbits <= limit, (len(gens), nbits)
            return _member_bits(gens, nbits)

        # the vertex and edge masks are built by the closure, after every
        # refusal, and no membership mask passes the length at which n^2
        # masks of the bound would pass the cap
        monkeypatch.setattr(toricoracle, "_component_firsts", refuse)
        monkeypatch.setattr(semigroup, "_member_bits", member_bits)
        for gens, unit, no_mask in [
            # 600^2 masks at the lower bound 2,997 on B, which is exact here
            (tuple(range(600, 1200)), "at least .* mask bits", True),
            # the masks fit, but closing them would take C(450, 3) * 2,247
            # bit operations
            (tuple(range(450, 900)), "at least .* closure bit operations", False),
            # the lower bound on F refuses these before any mask: 10000..10019
            # needs at least 400 * (527 * 10000 - 1 + 2 * 10019) mask bits
            (tuple(range(10000, 10020)), "at least 2116014800 mask bits", True),
            (tuple(range(20000, 20020)), "at least .* mask bits", True),
            ((30000, 30001, 30002), "at least .* mask bits", True),
            # F is at least 29,999 only: the masks grow to the cut, and F is
            # still not exact there
            ((30000, 59998, 59999), "at least .* mask bits", False),
        ]:
            limit = -1 if no_mask else semigroup.MAX_MASK_BITS // len(gens) ** 2 + 1
            with pytest.raises(CapExceededError, match=unit):
                betti_profile(gens)
            with pytest.raises(CapExceededError, match=unit):
                is_ci_oracle(gens)
        limit = -1  # no membership mask at all
        with pytest.raises(CapExceededError):
            betti_profile((100000, 100001))
        with pytest.raises(CapExceededError):
            is_ci_oracle((100000, 100001, 100002))

    def test_far_entry_answered_at_the_real_bound(self):
        # the mask is cut at MAX_MASK_BITS // n^2 + 1 bits, not at Schur's
        # bound: 2000..2018, 500000 needs 2.7 million bits, (1000, 1001,
        # 1200000) 9.6 million, and the shift j = 33,000 of (11, 16, 28) is
        # answered at B = 39,204,141 < 2^30 / 16
        profile = betti_profile(tuple(range(2000, 2019)) + (500000,))
        assert (profile.bound, profile.mu) == (1_223_999, 171)
        profile = betti_profile((1000, 1001, 1200000))
        assert (profile.bound, profile.mu) == (3_398_999, 2)
        profile = betti_profile((33000, 33011, 33016, 33028))
        assert (profile.bound, profile.mu) == (39_204_141, 4)

    @pytest.mark.parametrize("gens", [(8177, 8188, 8193, 8205), (100000, 100001)])
    def test_unknown_engine_refused_before_any_mask(self, monkeypatch, gens):
        def refuse(*args):
            raise AssertionError("a mask was built")

        monkeypatch.setattr(semigroup, "_member_bits", refuse)
        with pytest.raises(ValueError, match="unknown engine 'nope'"):
            betti_profile(gens, engine="nope")

    def test_many_generators_answered_at_the_real_bound(self):
        # 50 generators: the closure fits at B = F + 2*max = 20,999 + 46,000,
        # though not at the 3*max - 1 = 68,999 that an earlier check sized it by
        gens = tuple(range(1000, 1049)) + (23000,)
        profile = betti_profile(gens)
        assert profile.bound == 66_999
        assert profile.mu == 1138
        assert is_ci_oracle(gens) is False

    def test_cap_sized_by_the_real_bound(self):
        # shift j = 8177 of the base (11, 16, 28): 16 reach masks sized by
        # min*max would exceed MAX_MASK_BITS, but the real degree bound
        # needs only 16 * 2.5 million bits
        gens = (8177, 8188, 8193, 8205)
        profile = betti_profile(gens)
        assert profile.bound == frobenius(gens) + 2 * gens[-1]
        assert profile.mu >= len(gens) - 1


def reference_disconnected_degrees(gens, upto):
    """The ordered n^3 boolean Floyd-Warshall over every pair (i, j)."""
    full = (1 << (upto + 1)) - 1
    mask = _member_bits(gens, upto + 1)
    reach = [
        [(mask << (gi if i == j else gi + gj)) & full for j, gj in enumerate(gens)]
        for i, gi in enumerate(gens)
    ]
    for k, row_k in enumerate(reach):
        for i, row_i in enumerate(reach):
            via = row_i[k]
            if via:
                reach[i] = [x | (via & y) for x, y in zip(row_i, row_k)]
    firsts = []
    for i, row in enumerate(reach):
        joined = 0
        for x in row[:i]:
            joined |= x
        firsts.append(row[i] & ~joined)
    out = {}
    for b in range(upto + 1):
        count = sum(first >> b & 1 for first in firsts)
        if count > 1:
            out[b] = count - 1
    return out


class TestClosureReference:
    # lengths past the reach of the enumerate engine
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 200), min_size=2, max_size=10, unique=True)
        .map(lambda xs: tuple(sorted(xs)))
        .filter(lambda g: gcd(*g) == 1),
        st.data(),
    )
    def test_matches_ordered_floyd_warshall(self, gens, data):
        # betti_profile hands over a mask longer than the degrees asked for
        gmax = gens[-1]
        nbits = gens[0] * gmax + 2 * gmax + 1
        upto = data.draw(st.integers(gmax, frobenius(gens) + 3 * gmax))
        mask = _member_bits(gens, nbits)
        assert _disconnected_degrees(gens, mask, upto) == (
            reference_disconnected_degrees(gens, upto)
        )

    def test_closure_memory_stays_with_the_masks(self):
        # 80 generators: 82,160 AND/OR pairs on 3,160 edge masks of 557
        # bits, which take about 0.4 MiB
        gens = tuple(range(80, 160))
        upto = frobenius(gens) + 3 * gens[-1]
        mask = _member_bits(gens, upto + 1)
        tracemalloc.start()
        try:
            _disconnected_degrees(gens, mask, upto)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


# gcd-1 sequences of length 2..7 on 1..24; entries of at least length - 2
# keep the factorization counts, and so the enumerate engine, small (about
# 0.15 s per sequence at worst, and clear of the factorization cap)
gcd_one_sequences = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.integers(max(1, n - 2), 24), min_size=n, max_size=n, unique=True)
).map(lambda xs: tuple(sorted(xs))).filter(lambda g: gcd(*g) == 1)


class TestOracleProperties:
    @settings(max_examples=60, deadline=None)
    @given(gcd_one_sequences)
    def test_graph_engine_matches_enumerate(self, gens):
        assert betti_profile(gens) == betti_profile(gens, engine="enumerate")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True))
    def test_decider_matches_oracle(self, entries):
        seq = GeneratorSequence(tuple(sorted(entries)))
        assert (is_complete_intersection(seq) is not None) == is_ci_oracle(seq)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 60), min_size=2, max_size=6, unique=True)
        .map(lambda xs: tuple(sorted(xs)))
        .filter(lambda g: gcd(*g) == 1)
    )
    def test_default_bound_misses_nothing(self, gens):
        # no degree past the bound has a disconnected graph, looking out to
        # twice the bound plus max
        bound = betti_profile(gens).bound
        assert bound == frobenius(gens) + 2 * gens[-1]
        upto = 2 * (bound + gens[-1])
        mask = _member_bits(gens, upto + 1)
        assert max(_disconnected_degrees(gens, mask, upto), default=0) <= bound

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(
            st.lists(st.integers(2, 120), min_size=2, max_size=6, unique=True),
            st.lists(st.integers(121, 30000), max_size=1),
        )
        .map(lambda t: tuple(sorted(t[0] + t[1])))
        .filter(lambda g: len(g) >= 3 and gcd(*g) == 1),
        st.integers(10, 20),
    )
    # with a far entry, Schur's bound min*max + 2*max can pass the cap where
    # n^2 masks of B do not: these are answered
    @example((40, 41, 2001), 16)
    @example((100, 101, 103, 107, 20000), 20)
    def test_caps_decide_on_the_real_bound(self, gens, log_bits):
        # with the cap lowered, the membership mask is mostly cut short of
        # F + 2*max; the refusal must still follow the true B
        n = len(gens)
        bound = frobenius(gens) + 2 * gens[-1]
        refused = (n * n * bound > 1 << log_bits
                   or comb(n, 3) * bound > toricoracle.MAX_CLOSURE_WORK)
        expected = None if refused else betti_profile(gens)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semigroup, "MAX_MASK_BITS", 1 << log_bits)
            if refused:
                with pytest.raises(CapExceededError):
                    betti_profile(gens)
            else:
                assert betti_profile(gens) == expected

    @settings(max_examples=100, deadline=None)
    @given(gcd_one_sequences.filter(lambda g: len(g) <= 5))
    def test_one_component_past_the_bound(self, gens):
        # the bound's proof, checked without the closure: on (B, B + max]
        # every factorization graph is connected
        bound = frobenius(gens) + 2 * gens[-1]
        for b in range(bound + 1, bound + gens[-1] + 1):
            assert graph_components(factorizations(b, gens)) == 1


class TestProfileGolden:
    # SHA-256 of the profile JSON, one line per gcd-1 sequence of length 3
    # or 4 on 1..18 (3,631 profiles)
    DIGEST = "e4fffdd84a76cdb88455e4ab2cc85eaa84344deaa32fdb6db05e91fc90d64e9e"

    def test_profiles_unchanged(self):
        digest = hashlib.sha256()
        for n in (3, 4):
            for comb in itertools.combinations(range(1, 19), n):
                if gcd(*comb) != 1:
                    continue
                digest.update(profile_to_json(betti_profile(comb)).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestSeededProfileGolden:
    # SHA-256 of the profile JSON, one line per seeded input: 600 inputs of
    # 2..8 entries on 1..200, common factors allowed (none raises)
    DIGEST = "a345c23437eaef92c8b1b7fdf7880d22105d276f6ec7eb621413813c6576367f"

    def test_profiles_and_errors_unchanged(self):
        rng = random.Random(600)
        digest = hashlib.sha256()
        for _ in range(600):
            n = rng.randint(2, 8)
            gens = tuple(sorted(rng.sample(range(1, 201), n)))
            digest.update(profile_to_json(betti_profile(gens)).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestIsCiOracle:
    @pytest.mark.parametrize(
        "gens, expected",
        [
            ((4, 6, 9), True),
            ((3, 4, 5), False),
            ((28, 31, 36, 48), True),
            ((2, 3), True),
            ((9,), True),
        ],
    )
    def test_examples(self, gens, expected):
        assert is_ci_oracle(gens) is expected

    @pytest.mark.parametrize("gens", [(3, 2), (0,), (5, 5), (-1, 4)])
    def test_invalid_short_input_rejected(self, gens):
        with pytest.raises(ValueError):
            is_ci_oracle(gens)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 200), min_size=1, max_size=8).flatmap(
            lambda xs: st.sampled_from([tuple(xs), tuple(sorted(set(xs)))])
        )
    )
    def test_matches_profile(self, gens):
        # common factors allowed; unsorted or repeated entries must raise alike
        try:
            expected = betti_profile(gens).mu == len(gens) - 1
        except (CapExceededError, ValueError) as exc:
            with pytest.raises(type(exc)):
                is_ci_oracle(gens)
        else:
            assert is_ci_oracle(gens) is expected


class TestProfileSerialization:
    def test_json_round_trip(self):
        for gens in [(2, 3), (3, 4, 5), (7, 9, 12)]:
            profile = betti_profile(gens)
            assert profile_from_json(profile_to_json(profile)) == profile
