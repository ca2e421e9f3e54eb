import hashlib
import itertools
import time
import tracemalloc
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cishift import clear_caches, semigroup
from cishift.certificates import certificate_to_json
from cishift.delorme import is_complete_intersection
from cishift.errors import CapExceededError
from cishift.semigroup import (
    _frobenius_floor,
    _member_bits,
    divisors,
    find_representation,
    find_representation_with_sum,
    frobenius,
    is_member,
)
from cishift.seqcore import BaseSequence, GeneratorSequence
from cishift.shiftscan import n2_criterion, scan


@lru_cache(maxsize=None)
def naive_member(b, gens):
    """Reference membership by plain recursion, independent of the DP."""
    if b == 0:
        return True
    return any(g <= b and naive_member(b - g, gens) for g in gens)


def all_representations(b, gens):
    """Exhaustive nested enumeration of coefficient vectors."""
    if len(gens) == 1:
        if b % gens[0] == 0:
            yield (b // gens[0],)
        return
    g = gens[0]
    for c in range(b // g + 1):
        for rest in all_representations(b - c * g, gens[1:]):
            yield (c,) + rest


def is_witness(coeffs, b, gens):
    """coeffs are len(gens) non-negative integers with sum(c * g) == b."""
    return (len(coeffs) == len(gens) and min(coeffs, default=0) >= 0
            and sum(c * g for c, g in zip(coeffs, gens)) == b)


def reachable(upto, gens):
    """reach[v] iff v is a sum of generators, by one pass over 0..upto."""
    reach = [True] + [False] * upto
    for v in range(1, upto + 1):
        reach[v] = any(g <= v and reach[v - g] for g in gens)
    return reach


gen_tuples = st.lists(
    st.integers(1, 40), min_size=1, max_size=4, unique=True
).map(lambda xs: tuple(sorted(xs)))


class TestBitsetProperties:
    @settings(max_examples=150, deadline=None)
    @given(gen_tuples, st.lists(st.integers(0, 2000), min_size=1, max_size=12))
    def test_member_matches_reachability(self, gens, queries):
        reach = reachable(max(queries), gens)
        for b in queries:
            assert is_member(b, gens) == reach[b], (b, gens)

    @settings(max_examples=150, deadline=None)
    @given(gen_tuples, st.integers(0, 60))
    def test_representation_minimal_then_lex_smallest(self, gens, b):
        reps = list(all_representations(b, gens))
        rep = find_representation(b, gens)
        if not reps:
            assert rep is None
            return
        best = min(sum(v) for v in reps)
        assert rep is not None and is_witness(rep, b, gens)
        assert rep == min(v for v in reps if sum(v) == best)

    @settings(max_examples=150, deadline=None)
    @given(gen_tuples, st.integers(0, 60), st.integers(-1, 15))
    def test_representation_with_sum(self, gens, b, total):
        matching = [v for v in all_representations(b, gens) if sum(v) == total]
        rep = find_representation_with_sum(b, gens, total)
        if not matching:
            assert rep is None
        else:
            assert rep is not None and rep == min(matching)

    @settings(max_examples=150, deadline=None)
    @given(gen_tuples.filter(lambda g: gcd(*g) == 1))
    def test_frobenius_is_last_gap(self, gens):
        reach = reachable(gens[0] * gens[-1], gens)
        gaps = [v for v, ok in enumerate(reach) if not ok]
        assert frobenius(gens) == (gaps[-1] if gaps else -1)


class TestCertificateGolden:
    # SHA-256 of the certificate JSON ("null" when not CI), one line per
    # gcd-1 sequence of length 3 or 4 on 1..18.  The witnesses inside come
    # from find_representation, so a change in which representation it
    # picks shows here.
    DIGEST = "9dc6cc26a8665eb651204f7cbca1318ebf44b7d0606b670e01acd8a400569c77"

    @staticmethod
    def digest() -> str:
        digest = hashlib.sha256()
        for n in (3, 4):
            for comb in itertools.combinations(range(1, 19), n):
                if gcd(*comb) != 1:
                    continue
                cert = is_complete_intersection(GeneratorSequence(comb))
                text = "null" if cert is None else certificate_to_json(cert)
                digest.update(text.encode() + b"\n")
        return digest.hexdigest()

    def test_certificates_unchanged(self):
        assert self.digest() == self.DIGEST

    def test_memo_memory_bounded(self):
        # what the caches keep after a cold pass: the verdict memo with its
        # 3,695 entries and the side indices
        clear_caches()
        tracemalloc.start()
        try:
            self.digest()
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current < 2.4 * 2**20


class TestTableCap:
    # membership keeps no table between queries; these check its answers
    # and the memory of deep scans and cold decides
    @pytest.mark.parametrize("every", [1, 512])
    @settings(max_examples=100, deadline=None)
    @given(st.lists(gen_tuples, min_size=3, max_size=4, unique=True),
           st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2000)),
                    min_size=1, max_size=30))
    def test_member_matches_reachability_under_eviction(self, every, tuples, queries):
        # queries hop between tuples, large and small targets interleaved;
        # all caches are emptied before every `every`-th query (1: before
        # each one, 512: only before the first), which must not change
        # any answer
        reach = [reachable(2000, gens) for gens in tuples]
        for k, (which, b) in enumerate(queries):
            if k % every == 0:
                clear_caches()
            i = which % len(tuples)
            assert is_member(b, tuples[i]) == reach[i][b]

    def test_deep_scan_memory_bounded(self):
        clear_caches()
        tracemalloc.start()
        try:
            result = scan(BaseSequence((11, 16, 28)), 1_000_001, 1_000_056)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.members == (1_000_020, 1_000_048)
        # keeping one j-bit mask per generator tuple would reach 32 MiB here
        assert peak < 8 * 2**20

    def test_cold_decide_memory_bounded(self):
        # 2^15 bipartitions of 16 consecutive entries ask about tens of
        # thousands of distinct sides; keeping a mask per side takes 17 MiB
        clear_caches()
        tracemalloc.start()
        try:
            cert = is_complete_intersection(GeneratorSequence(tuple(range(100, 116))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            clear_caches()
        assert cert is None
        assert peak < 8 * 2**20


class TestMaskCap:
    @pytest.mark.parametrize("call, args", [
        # j + 3 = 10^20 + 3 is a membership target over (j/5, (j+5)/5): its
        # mask would be an int too wide to build (OverflowError)
        pytest.param(n2_criterion, (3, 5, 10**20), id="n2_criterion"),
        # masks of 1e11 and 1e10 bits (MemoryError); F + 2*max of three
        # generators near 1e6 passes 5e11
        pytest.param(is_member, (10**11, (3, 5)), id="is_member"),
        pytest.param(frobenius, ((10**6, 10**6 + 1, 10**6 + 2),), id="frobenius"),
        pytest.param(find_representation, (10**10, (3, 5)), id="find_representation"),
        pytest.param(find_representation_with_sum, (10**10, (3, 5), 2),
                     id="find_representation_with_sum"),
    ])
    def test_oversized_target_refused_before_its_mask(self, call, args):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(CapExceededError, match="needs at least .* mask bits"):
                call(*args)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 8 << 20

    def test_cut_boundary(self, monkeypatch):
        # a target below MAX_MASK_BITS is answered, one at it refused
        monkeypatch.setattr(semigroup, "MAX_MASK_BITS", 1000)
        assert is_member(999, (3, 5)) is True
        assert is_member(999, (1000,)) is False
        with pytest.raises(CapExceededError, match="membership of 1000 in"):
            is_member(1000, (3, 5))
        # the layers of 997 over (997,) hold 2 + 998 bits
        assert find_representation(997, (997,)) == (1,)
        assert find_representation(999, (1000,)) is None
        assert find_representation_with_sum(999, (1000,), 1) is None
        for call, args in [(find_representation, (1000, (1001,))),
                           (find_representation_with_sum, (1000, (1001,), 1))]:
            with pytest.raises(CapExceededError, match="witness search for 1000 over"):
                call(*args)


class TestMembership:
    @pytest.mark.parametrize(
        "b, gens, expected",
        [(0, (3, 5), True), (7, (3, 5), False), (8, (3, 5), True)],
    )
    def test_examples(self, b, gens, expected):
        assert is_member(b, gens) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            is_member(-1, (2, 3))

    def test_nonpositive_generators_rejected(self):
        positive = "generators must be positive"
        for gens in [(0, 3), (-2, 5), (-1, 3)]:
            # 0 is checked like any other target, though its 1-bit mask needs
            # no generator
            for b in (0, 7):
                with pytest.raises(ValueError, match=positive):
                    is_member(b, gens)
            with pytest.raises(ValueError, match=positive):
                find_representation(7, gens)
            with pytest.raises(ValueError, match=positive):
                find_representation_with_sum(7, gens, 2)

    def test_matches_naive_enumeration(self):
        gen_sets = [
            (3, 5), (2, 7), (4, 6, 9), (5, 6, 7), (3, 11, 13, 29),
            (7, 9, 12), (6, 10, 15), (2, 3, 4, 30),
        ]
        # every pair with entries <= 30, plus seeded triples and quadruples
        gen_sets += list(itertools.combinations(range(1, 31), 2))
        rng = __import__("random").Random(5)
        for size in (3, 4):
            for _ in range(60):
                gen_sets.append(tuple(sorted(rng.sample(range(1, 31), size))))
        for gens in gen_sets:
            for b in range(201):
                assert is_member(b, gens) == naive_member(b, gens), (b, gens)

    def test_step_consistency(self):
        gens = (4, 9, 11)
        for b in range(1, 150):
            expected = any(b >= g and is_member(b - g, gens) for g in gens)
            assert is_member(b, gens) == expected

    def test_scale_invariance(self):
        gens = (3, 7)
        for d in (2, 3, 5):
            scaled = tuple(d * g for g in gens)
            for b in range(60):
                assert is_member(b, gens) == is_member(d * b, scaled)


class TestFindRepresentation:
    @pytest.mark.parametrize(
        "b, gens, expected",
        [
            (9, (3, 5), (3, 0)),
            (2, (3, 5), None),
            (44, (16, 28), (1, 1)),
        ],
    )
    def test_examples(self, b, gens, expected):
        rep = find_representation(b, gens)
        assert rep == expected

    def test_determinism_contract(self):
        # minimal coefficient sum, ties broken by lexicographically smallest
        for gens in [(2, 3, 4), (3, 5, 7), (2, 5), (4, 6, 9, 10)]:
            for b in range(0, 61):
                rep = find_representation(b, gens)
                reps = list(all_representations(b, gens))
                if not reps:
                    assert rep is None
                    continue
                best_sum = min(sum(v) for v in reps)
                expected = min(v for v in reps if sum(v) == best_sum)
                assert rep is not None and rep == expected, (b, gens)

    def test_layer_bits_capped(self, monkeypatch):
        # the witness of 10,000 over (1, 30000) is found in layer 10,000, and
        # layer t holds a mask of t + 1 bits: about 5e7 bits in all
        assert find_representation(10_000, (1, 30_000)) == (10_000, 0)
        monkeypatch.setattr(semigroup, "MAX_MASK_BITS", 10**7)
        with pytest.raises(CapExceededError, match="witness search"):
            find_representation(10_000, (1, 30_000))
        with pytest.raises(CapExceededError, match="witness search"):
            find_representation_with_sum(10_000, (1, 30_000), 10_000)
        assert find_representation(1_000, (1, 30_000)) == (1_000, 0)

    def test_generator_past_target_answered_at_once(self):
        # a generator past the target is never shifted in: shifting by it
        # would build an int 10^12 bits wide (MemoryError), or one wider
        # than an int can be (OverflowError)
        start = time.perf_counter()
        assert find_representation(3, (1, 10**12)) == (3, 0)
        assert find_representation(5, (2, 3, 10**20)) == (1, 1, 0)
        assert find_representation_with_sum(3, (1, 10**12), 3) == (3, 0)
        assert find_representation_with_sum(5, (2, 3, 10**20), 2) == (1, 1, 0)
        assert find_representation_with_sum(5, (2, 3, 10**20), 3) is None
        assert time.perf_counter() - start < 0.1

    def test_returned_representation_valid(self):
        for b in range(0, 80):
            rep = find_representation(b, (4, 7, 9))
            if rep is not None:
                assert is_witness(rep, b, (4, 7, 9))


class TestFindRepresentationWithSum:
    @pytest.mark.parametrize(
        "b, gens, total, expected",
        [
            (6, (2, 4), 2, (1, 1)),
            (6, (2, 4), 3, (3, 0)),
            (6, (4, 5), 1, None),
        ],
    )
    def test_examples(self, b, gens, total, expected):
        rep = find_representation_with_sum(b, gens, total)
        assert rep == expected
        if expected is not None:
            assert sum(rep) == total

    def test_exact_sum_against_enumeration(self):
        gens = (3, 4, 10)
        for b in range(0, 50):
            for total in range(0, 12):
                rep = find_representation_with_sum(b, gens, total)
                matching = [v for v in all_representations(b, gens) if sum(v) == total]
                if matching:
                    assert rep is not None and rep == min(matching)
                else:
                    assert rep is None


class TestFrobenius:
    @pytest.mark.parametrize(
        "gens, expected",
        [((3, 5), 7), ((2, 3), 1), ((1, 7), -1), ((6, 10, 15), 29)],
    )
    def test_examples(self, gens, expected):
        assert frobenius(gens) == expected

    def test_requires_gcd_one(self):
        with pytest.raises(ValueError):
            frobenius((4, 6))

    @pytest.mark.parametrize("gens", [(0, 1, 3), (-3, -2, 5), (-1, 2)])
    def test_rejects_nonpositive(self, gens):
        # gcd 1, and no mask would be built for them (the first two start
        # from a lower bound on F past Schur's bound, the pair from
        # Sylvester's formula), so only the generator check rejects them
        with pytest.raises(ValueError, match="generators must be positive"):
            frobenius(gens)

    def test_is_last_gap(self):
        for gens in [(3, 5), (5, 6, 7), (4, 9, 11), (3, 7, 8)]:
            f = frobenius(gens)
            assert not is_member(f, gens)
            assert all(is_member(v, gens) for v in range(f + 1, f + 40))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.lists(st.integers(1, 300), min_size=n, max_size=n, unique=True)
        )
        .map(lambda xs: tuple(sorted(xs)))
        .filter(lambda g: gcd(*g) == 1)
    )
    def test_frobenius_floor_is_a_gap(self, gens):
        # the lower bound the masks grow from never passes F, and is F on pairs
        floor = _frobenius_floor(gens)
        assert floor <= frobenius(gens)
        assert floor < 0 or not _member_bits(gens, floor + 1) >> floor & 1
        if len(gens) == 2:
            assert floor == frobenius(gens)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(1, 2000), min_size=2, max_size=7, unique=True),
            # small entries and one large one
            st.tuples(
                st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True),
                st.integers(61, 2000),
            ).map(lambda t: t[0] + [t[1]]),
        )
        .map(lambda xs: tuple(sorted(xs)))
        .filter(lambda g: gcd(*g) == 1)
    )
    def test_matches_schur_sized_mask(self, gens):
        # the reference reads F off one mask on Schur's bound (min-1)(max-1)
        nbits = (gens[0] - 1) * (gens[-1] - 1)
        schur = (~_member_bits(gens, nbits) & ((1 << nbits) - 1)).bit_length() - 1
        assert frobenius(gens) == schur

    def test_far_entry_builds_a_short_mask(self):
        # Schur's bound would size the mask at 1.2e8 bits (15 MiB); the mask
        # grown from the lower bound stops at a few million
        tracemalloc.start()
        try:
            assert frobenius((1000, 1001, 120000)) == 998999
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_pair_builds_no_mask(self):
        # Sylvester's formula; a mask holding F + 2*max would take 2.0e8
        # bits (24 MiB)
        tracemalloc.start()
        try:
            assert frobenius((10000, 19999)) == 199_960_001
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestDivisors:
    def test_small(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(28) == (1, 2, 4, 7, 14, 28)

    def test_definition(self):
        for n in range(1, 200):
            ds = divisors(n)
            assert list(ds) == sorted(ds)
            assert set(ds) == {d for d in range(1, n + 1) if n % d == 0}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors(0)
