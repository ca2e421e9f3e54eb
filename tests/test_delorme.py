import ast
import dataclasses
import inspect
import itertools
import json
import time
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cishift import certificates, clear_caches, delorme
from cishift.certificates import (
    DelormeSplit,
    Leaf,
    SplitNode,
    certificate_from_dict,
    certificate_from_json,
    certificate_to_json,
    format_certificate,
    verify_certificate,
)
from cishift.delorme import _indices, enumerate_splits, is_complete_intersection
from cishift.errors import CapExceededError, InvalidCertificateError
from cishift.seqcore import GeneratorSequence
from cishift.toricoracle import is_ci_oracle


def ci(gens):
    return is_complete_intersection(GeneratorSequence(gens))


def _reachable(b, gens):
    """Membership of b in <gens> by a plain sieve over 0..b."""
    reach = [True] + [False] * b
    for x in range(1, b + 1):
        reach[x] = any(g <= x and reach[x - g] for g in gens)
    return reach[b]


def reference_splits(gens):
    """Every valid split by brute force, in canonical order: every bipartition,
    every k1 | gcd(left) and k2 | gcd(right) with gcd(k1, k2) = 1, both
    memberships, nothing skipped."""
    m = len(gens)
    found = []
    for mask in range(1, (1 << m) - 1):
        left = tuple(i for i in range(m) if mask >> i & 1)
        right = tuple(i for i in range(m) if not mask >> i & 1)
        left_vals = [gens[i] for i in left]
        right_vals = [gens[i] for i in right]
        gl, gr = gcd(*left_vals), gcd(*right_vals)
        for k1 in [d for d in range(gl, 0, -1) if gl % d == 0]:
            for k2 in [d for d in range(gr, 0, -1) if gr % d == 0]:
                left_red = tuple(v // k1 for v in left_vals)
                right_red = tuple(v // k2 for v in right_vals)
                if gcd(k1, k2) == 1 and _reachable(k1, right_red) and _reachable(k2, left_red):
                    found.append((left, right, k1, k2, left_red, right_red))
    return found


class TestEnumerateSplits:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 30), min_size=3, max_size=7, unique=True)
        .map(lambda xs: tuple(sorted(xs)))
        .filter(lambda g: gcd(*g) == 1),
    )
    def test_matches_unskipped_reference(self, gens):
        # the splits of the gcd-normalized sequence: on gcd-1 input they are
        # the reference's, and each has k1 = gcd(left), k2 = gcd(right)
        splits = enumerate_splits(GeneratorSequence(gens))
        assert [
            (s.left_indices, s.right_indices, s.k1, s.k2, s.left_reduced, s.right_reduced)
            for s in splits
        ] == reference_splits(gens)
        for s in splits:
            assert s.k1 == gcd(*(gens[i] for i in s.left_indices))
            assert s.k2 == gcd(*(gens[i] for i in s.right_indices))
        # a multiple of the sequence has the splits of the sequence itself
        for c in range(2, 7):
            assert enumerate_splits(GeneratorSequence(tuple(c * g for g in gens))) == splits

    @settings(max_examples=200, deadline=None)
    @given(
        # raw inputs, not normalized: factors 2-6 give every side a common
        # factor and so many divisor pairs
        st.lists(st.integers(1, 30), min_size=3, max_size=6, unique=True)
        .map(lambda xs: tuple(sorted(xs)))
        .filter(lambda g: gcd(*g) == 1),
        st.sampled_from([1, 2, 3, 4, 5, 6]),
    )
    def test_reference_splits_obey_gluing_degree_bound(self, gens, factor):
        # the bound the search skips by: k1 in <right/k2> and k2 in <left/k1>
        # give k1*k2 >= max(min(left), min(right))
        scaled = tuple(factor * g for g in gens)
        for left, right, k1, k2, _, _ in reference_splits(scaled):
            assert k1 * k2 >= max(scaled[left[0]], scaled[right[0]]), (left, k1, k2)

    def test_requires_three_entries(self):
        with pytest.raises(ValueError):
            enumerate_splits(GeneratorSequence((2, 3)))

    def test_oversized_input_refused_fast(self):
        # divisors(10**20 + 1) alone would take 10^10 trial divisions; the
        # decider's size cap applies to the normalized entries
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="decider"):
            enumerate_splits(GeneratorSequence((6, 10, 10**20 + 1)))
        assert time.perf_counter() - start < 0.1

    def test_469_contains_expected_split(self):
        splits = enumerate_splits(GeneratorSequence((4, 6, 9)))
        match = [
            s for s in splits
            if s.k1 == 2 and s.k2 == 9
            and s.left_reduced == (2, 3) and s.right_reduced == (1,)
        ]
        assert match, [repr(s) for s in splits]

    def test_worked_example_split_present(self):
        splits = enumerate_splits(GeneratorSequence((28, 31, 36, 48)))
        match = [
            s for s in splits
            if s.k1 == 31 and s.k2 == 4
            and s.left_reduced == (1,) and s.right_reduced == (7, 9, 12)
        ]
        assert match

    def test_plain_sequence(self):
        assert enumerate_splits((4, 6, 9)) == enumerate_splits(GeneratorSequence((4, 6, 9)))
        assert enumerate_splits([8, 12, 18]) == enumerate_splits((4, 6, 9))
        with pytest.raises(ValueError):
            enumerate_splits((4, 4, 9))

    def test_345_has_no_splits(self):
        assert enumerate_splits(GeneratorSequence((3, 4, 5))) == []

    def test_canonical_order(self):
        # left bitmask ascending, then k1 descending, then k2 descending
        for gens in [(4, 6, 9), (28, 31, 36, 48), (2, 3, 6), (12, 18, 20, 27)]:
            splits = enumerate_splits(GeneratorSequence(gens))
            keys = [
                (sum(1 << i for i in s.left_indices), -s.k1, -s.k2) for s in splits
            ]
            assert keys == sorted(keys), gens

    def test_splits_validate(self):
        for gens in [(4, 6, 9), (28, 31, 36, 48), (2, 3, 6), (12, 18, 20, 27)]:
            entries = GeneratorSequence(gens)
            for s in enumerate_splits(entries):
                left_vals = [entries.gens[i] for i in s.left_indices]
                right_vals = [entries.gens[i] for i in s.right_indices]
                assert sorted(s.left_indices + s.right_indices) == list(range(len(gens)))
                assert all(v % s.k1 == 0 for v in left_vals)
                assert all(v % s.k2 == 0 for v in right_vals)
                assert gcd(s.k1, s.k2) == 1
                assert tuple(v // s.k1 for v in left_vals) == s.left_reduced
                assert tuple(v // s.k2 for v in right_vals) == s.right_reduced
                # on a gcd-1 sequence both reduced sides have gcd 1
                assert s.k1 == gcd(*left_vals) and s.k2 == gcd(*right_vals)
                assert gcd(*s.left_reduced) == gcd(*s.right_reduced) == 1


class TestBipartitions:
    def test_order_matches_bitmask_reference(self):
        for m in range(1, 13):
            reference = [
                (
                    tuple(i for i in range(m) if mask >> i & 1),
                    tuple(i for i in range(m) if not mask >> i & 1),
                )
                for mask in range(1, (1 << m) - 1)
            ]
            full = (1 << m) - 1
            sides = [(_indices(mask), _indices(full ^ mask)) for mask in range(1, full)]
            assert sides == reference, m

    def test_side_index_cache_bounded_and_cleared(self):
        clear_caches()
        # 2*(100..113) normalizes to 100..113, where the gluing-degree bound
        # lets 26 of the 2^14 - 2 bipartitions read their sides' indices
        assert enumerate_splits(GeneratorSequence(tuple(range(200, 228, 2)))) == []
        info = _indices.cache_info()
        assert 0 < info.currsize <= info.maxsize
        clear_caches()
        assert _indices.cache_info().currsize == 0

    def test_reads_only_bipartitions_within_the_bound(self, monkeypatch):
        # (J, J+11, J+16, J+28) at J = 1001 = 7*11*13: the singleton {J}
        # and its mirror have gcds 1001 and 1, whose product is below
        # min(J+11, J+16, J+28); so is 11 * 3 for {J, J+11} | {J+16, J+28},
        # though neither side has gcd 1.  The singletons of the other three
        # entries meet the bound with equality.
        read = []
        monkeypatch.setattr(delorme, "_indices", lambda mask: read.append(mask) or _indices(mask))
        assert list(delorme._iter_splits((1001, 1012, 1017, 1029))) == []
        left_masks = read[0::2]
        assert read[1::2] == [0b1111 ^ mask for mask in left_masks]
        assert 0b0001 not in left_masks and 0b1110 not in left_masks
        assert left_masks == [0b0010, 0b0100, 0b0111, 0b1000, 0b1011, 0b1101]


class TestDecision:
    @pytest.mark.parametrize(
        "gens, expected",
        [
            ((28, 31, 36, 48), True),
            ((8, 17, 18), True),
            ((3, 4, 5), False),
            ((4, 6, 9), True),
            ((7, 9, 12), True),
            ((5,), True),
            ((4, 9), True),
        ],
    )
    def test_examples(self, gens, expected):
        assert (ci(gens) is not None) is expected

    def test_canonical_top_split(self):
        cert = ci((28, 31, 36, 48))
        assert isinstance(cert, SplitNode)
        assert cert.split.k1 == 31 and cert.split.k2 == 4
        assert cert.split.right_reduced == (7, 9, 12)

    def test_leaves(self):
        assert isinstance(ci((5,)), Leaf)
        assert isinstance(ci((4, 9)), Leaf)
        # normalization happens before the leaf is recorded
        assert ci((10, 15)).entries == (2, 3)

    def test_scale_invariance(self):
        for gens in [(3, 4, 5), (4, 6, 9), (28, 31, 36, 48), (5, 6, 7)]:
            verdict = ci(gens) is not None
            for d in (2, 3, 5):
                scaled = tuple(d * g for g in gens)
                assert (ci(scaled) is not None) is verdict

    def test_redundant_generator_sequences(self):
        # sequences whose defining ideal eliminates a variable linearly
        assert ci((1, 2, 3)) is not None
        assert ci((2, 3, 6)) is not None
        assert ci((2, 3, 5)) is not None
        assert ci((3, 4, 5, 6)) is None  # adds a redundant entry to a non-CI core

    def test_witnesses_inside_certificate(self):
        cert = ci((28, 31, 36, 48))
        split = cert.split
        # each witness weighs its k over the other side's reduced entries
        for coeffs, k, gens in [
            (cert.k1_witness, 31, split.right_reduced), (cert.k2_witness, 4, split.left_reduced),
        ]:
            assert len(coeffs) == len(gens) and min(coeffs) >= 0
            assert sum(c * g for c, g in zip(coeffs, gens)) == k

    def test_plain_sequence(self):
        # read as a GeneratorSequence, like the oracle's inputs
        assert is_complete_intersection((28, 31, 36, 48)) == ci((28, 31, 36, 48))
        assert is_complete_intersection([56, 62, 72, 96]) == ci((28, 31, 36, 48))
        assert is_complete_intersection([3, 4, 5]) is None
        for bad in [(31, 28), (0, 3), (4, 4)]:
            with pytest.raises(ValueError):
                is_complete_intersection(bad)


class TestVerifier:
    def test_plain_sequence(self):
        cert = ci((28, 31, 36, 48))
        for gens in [(28, 31, 36, 48), [28, 31, 36, 48], (56, 62, 72, 96)]:
            assert verify_certificate(gens, cert) is True
        assert verify_certificate((3, 4, 5), cert) is False
        # a sequence that is not strictly increasing and positive verifies
        # nothing, not even the leaf equal to it
        for gens in [(-1, 2), (0, 2), (2, 2), (3, 2), (2.0, 3), (True, 2), ()]:
            leaf = Leaf(tuple(gens))
            assert verify_certificate(gens, leaf) is False, gens
        assert verify_certificate((2, 2), Leaf((1, 1))) is False
        assert verify_certificate((48, 36, 31, 28), cert) is False

    def test_round_trip_accepts(self):
        for gens in [(28, 31, 36, 48), (4, 6, 9), (8, 17, 18), (2, 3), (7,), (1, 2, 3)]:
            cert = ci(gens)
            assert cert is not None
            assert verify_certificate(GeneratorSequence(gens), cert)

    def test_rejects_wrong_sequence(self):
        cert = ci((28, 31, 36, 48))
        assert not verify_certificate(GeneratorSequence((3, 4, 5)), cert)

    def test_rejects_tampered_witness(self):
        cert = ci((4, 6, 9))
        assert isinstance(cert, SplitNode)
        bad_witness = tuple(c + 1 for c in cert.k1_witness)
        tampered = SplitNode(
            cert.split, bad_witness, cert.k2_witness, cert.left_cert, cert.right_cert
        )
        assert not verify_certificate(GeneratorSequence((4, 6, 9)), tampered)

    def test_rejects_malformed_tree(self):
        assert not verify_certificate(GeneratorSequence((4, 6, 9)), Leaf((4, 6, 9)))
        assert not verify_certificate(GeneratorSequence((4, 6, 9)), "garbage")

    def test_rejects_witness_with_negative_coefficient(self):
        # 31 = 1*7 + 0*9 + 2*12 over (7, 9, 12), rewritten as -8*7 + 7*9 + 2*12
        seq = GeneratorSequence((28, 31, 36, 48))
        cert = ci(seq.gens)
        assert (cert.split.k1, cert.split.right_reduced) == (31, (7, 9, 12))
        assert cert.k1_witness == (1, 0, 2)
        bad = (-8, 7, 2)
        assert sum(c * g for c, g in zip(bad, (7, 9, 12))) == 31
        assert verify_certificate(seq, dataclasses.replace(cert, k1_witness=bad)) is False

    def test_rejects_forgery_with_coefficient_minus_one(self):
        # (3, 4, 5) is not CI, yet 3·(1) ⊔ 1·(4,5) holds with 3 = 2*4 - 1*5,
        # so a sign check that let -1 through would accept it
        forged = SplitNode(DelormeSplit((0,), (1, 2), 3, 1, (1,), (4, 5)), (2, -1), (1,),
                           Leaf((1,)), Leaf((4, 5)))
        assert verify_certificate((3, 4, 5), forged) is False

    def test_rejects_witness_longer_than_its_gens(self):
        # a trailing 0 leaves the weighted sum alone, but not the length
        seq = GeneratorSequence((4, 6, 9))
        cert = ci(seq.gens)
        for field in ("k1_witness", "k2_witness"):
            witness = getattr(cert, field)
            bad = witness + (0,)
            assert verify_certificate(seq, dataclasses.replace(cert, **{field: bad})) is False

    def test_rejects_repeated_index(self):
        # index 1 of (4, 8, 9) on both sides of 8·(1) ⊔ 1·(4,9): each side is
        # k times its reduced form, the witness 8 = 0*4 + 1*8 + 0*9 holds, and
        # the right side, now the whole sequence, has its own certificate, so
        # only the partition of the indices rejects the tree
        seq = GeneratorSequence((4, 8, 9))
        cert = ci(seq.gens)
        assert format_certificate(cert) == "8·(1) ⊔ 1·(4,9)"
        split = dataclasses.replace(cert.split, right_indices=(0, 1, 2), right_reduced=seq.gens)
        bad = dataclasses.replace(cert, split=split, k1_witness=(0, 1, 0), right_cert=cert)
        assert verify_certificate(seq, bad) is False
        # listed twice on one side, or on both sides with the rest unchanged
        split = cert.split
        left, right = split.left_indices, split.right_indices
        for bad_left, bad_right in [
            (left + left, right), (left, right + right[:1]), (left + right[:1], right),
        ]:
            bad = dataclasses.replace(split, left_indices=bad_left, right_indices=bad_right)
            assert verify_certificate(seq, dataclasses.replace(cert, split=bad)) is False


# certificates for (3, 4, 5), which is not CI, that hold only because an
# equal float passes the arithmetic: 4 * 1.25 == 5 in a reduced side, and
# 3 == 0.75 * 4 in a witness
_FLOAT_FORGERIES = [
    SplitNode(DelormeSplit((0,), (1, 2), 3, 4, (1,), (1, 1.25)), (3, 0), (4,),
              Leaf((1,)), Leaf((1, 1.25))),
    SplitNode(DelormeSplit((0,), (1, 2), 3, 1, (1,), (4, 5)), (0.75, 0), (1,),
              Leaf((1,)), Leaf((4, 5))),
]


def _with_float(values, i):
    return values[:i] + (float(values[i]),) + values[i + 1:]


class TestVerifierIntegerTypes:
    @pytest.mark.parametrize("forged", _FLOAT_FORGERIES)
    def test_rejects_float_forgery(self, forged):
        assert ci((3, 4, 5)) is None
        assert verify_certificate(GeneratorSequence((3, 4, 5)), forged) is False

    def test_rejects_equal_float_in_any_number_of_a_node(self):
        seq = GeneratorSequence((28, 31, 36, 48))
        cert = ci(seq.gens)
        assert verify_certificate(seq, cert)
        split = cert.split
        bad = [dataclasses.replace(cert, split=dataclasses.replace(split, **{f: float(getattr(split, f))}))
               for f in ("k1", "k2")]
        for f in ("left_reduced", "right_reduced"):
            for i in range(len(getattr(split, f))):
                floated = _with_float(getattr(split, f), i)
                bad.append(dataclasses.replace(cert, split=dataclasses.replace(split, **{f: floated})))
        for f in ("k1_witness", "k2_witness"):
            for i in range(len(getattr(cert, f))):
                bad.append(dataclasses.replace(cert, **{f: _with_float(getattr(cert, f), i)}))
        assert len(bad) == 2 + 4 + 4
        for forged in bad:
            assert verify_certificate(seq, forged) is False, forged


def _node_entries(split):
    """The entries a split node stands for, rebuilt from its two sides."""
    vals = dict(zip(split.left_indices, (split.k1 * v for v in split.left_reduced)))
    vals.update(zip(split.right_indices, (split.k2 * v for v in split.right_reduced)))
    return tuple(vals[i] for i in sorted(vals))


def _with_coefficient(witness, i, delta):
    coeffs = list(witness)
    coeffs[i] += delta
    return tuple(coeffs)


def single_field_mutations(cert, root):
    """Every tree that differs from cert in one field of one node.

    root, a split node, stands in for a leaf when a node type is swapped.
    """
    if isinstance(cert, Leaf):
        for i, delta in itertools.product(range(len(cert.entries)), (-1, 1)):
            entries = list(cert.entries)
            entries[i] += delta
            yield Leaf(tuple(entries))
        yield root
        return
    split = cert.split
    yield Leaf(_node_entries(split))
    for field in ("k1", "k2"):
        for delta in (-1, 1):
            bad = dataclasses.replace(split, **{field: getattr(split, field) + delta})
            yield dataclasses.replace(cert, split=bad)
    for field in ("k1_witness", "k2_witness"):
        witness = getattr(cert, field)
        for i, delta in itertools.product(range(len(witness)), (-1, 1)):
            yield dataclasses.replace(cert, **{field: _with_coefficient(witness, i, delta)})
    for i in split.left_indices + split.right_indices:
        # index i changes sides
        left = tuple(sorted(set(split.left_indices) ^ {i}))
        right = tuple(sorted(set(split.right_indices) ^ {i}))
        yield dataclasses.replace(
            cert, split=dataclasses.replace(split, left_indices=left, right_indices=right)
        )
    for field in ("left_cert", "right_cert"):
        for bad in single_field_mutations(getattr(cert, field), root):
            yield dataclasses.replace(cert, **{field: bad})


def _gcd_one_sequences(min_size=3, max_size=5):
    """Sorted gcd-1 sequences on 1..40."""
    return (
        st.lists(st.integers(1, 40), min_size=min_size, max_size=max_size, unique=True)
        .map(lambda xs: tuple(sorted(xs)))
        .filter(lambda g: gcd(*g) == 1)
    )


class TestVerifierProperties:
    @settings(max_examples=150, deadline=None)
    @given(_gcd_one_sequences())
    def test_every_single_field_mutation_rejected(self, gens):
        seq = GeneratorSequence(gens)
        cert = is_complete_intersection(seq)
        assume(isinstance(cert, SplitNode))
        assert verify_certificate(seq, cert)
        mutations = list(single_field_mutations(cert, cert))
        assert mutations
        for bad in mutations:
            assert verify_certificate(seq, bad) is False, bad

    @settings(max_examples=150, deadline=None)
    @given(_gcd_one_sequences(), st.integers(0, 4), st.sampled_from((-3, -2, -1, 1, 2, 3)))
    # a verifier that stops tying the left side's entries to k1 times its
    # reduced form accepts the certificate of (2, 5, 7) for (3, 5, 7)
    @example((2, 5, 7), 0, 1)
    def test_certificate_rejected_for_a_moved_entry(self, gens, i, delta):
        cert = ci(gens)
        assume(cert is not None)
        moved = list(gens)
        moved[i % len(gens)] += delta
        assume(moved[0] >= 1 and all(a < b for a, b in zip(moved, moved[1:])))
        assert verify_certificate(GeneratorSequence(moved), cert) is False

    @settings(max_examples=150, deadline=None)
    @given(_gcd_one_sequences().flatmap(
        lambda g: st.tuples(st.just(g), _gcd_one_sequences(len(g), len(g)))))
    def test_certificate_rejected_for_another_ci_sequence(self, pair):
        gens, other = pair
        assume(other != gens)
        cert, other_cert = ci(gens), ci(other)
        assume(cert is not None and other_cert is not None)
        assert verify_certificate(GeneratorSequence(other), cert) is False
        assert verify_certificate(GeneratorSequence(gens), other_cert) is False


def _small_sums(entries):
    """The sums of one or two entries, each a member of <entries>."""
    return {*entries, *(a + b for a, b in itertools.combinations_with_replacement(entries, 2))}


_COPRIME_PAIRS = [(a, b) for a in range(2, 10) for b in range(a + 1, 17) if gcd(a, b) == 1]


@st.composite
def ci_sequences(draw, length):
    """A sorted gcd-1 complete intersection of the given length, glued as
    k1*B1 ⊔ k2*B2 from two smaller ones, with gcd(k1, k2) = 1, k1 in <B2> and
    k2 in <B1>; a leaf is (1,) or a coprime pair."""
    if length == 1:
        return (1,)
    if length == 2:
        return draw(st.sampled_from(_COPRIME_PAIRS))
    n1 = draw(st.integers(1, length - 1))
    left, right = draw(ci_sequences(n1)), draw(ci_sequences(length - n1))
    glued = [
        tuple(sorted({k1 * v for v in left} | {k2 * v for v in right}))
        for k1 in sorted(_small_sums(right)) for k2 in sorted(_small_sums(left))
        if gcd(k1, k2) == 1
    ]
    glued = [g for g in glued if len(g) == length]
    assume(glued)
    return draw(st.sampled_from(glued))


class TestSerialization:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 7).flatmap(ci_sequences))
    @example((28, 31, 36, 48))
    @example((4, 6, 9))
    @example((2, 3))
    def test_json_round_trip(self, gens):
        cert = ci(gens)
        assert cert is not None, gens
        text = certificate_to_json(cert)
        again = certificate_from_json(text)
        assert again == cert
        assert certificate_to_json(again) == text

    def test_text_form(self):
        cert = ci((28, 31, 36, 48))
        text = format_certificate(cert)
        assert text.startswith("31·(1) ⊔ 4·(7,9,12)")
        assert format_certificate(ci((2, 3))) == "(2,3)"


# JSON values of every type; a field is retyped to one its schema rejects
JSON_VALUES = (None, True, 1.5, "x", 7, [7], ["x"], [1.5], [True], {})
DELETED = object()


def _retyped(key, value) -> bool:
    if key in ("k1", "k2"):
        return type(value) is not int
    if key in ("type", "left", "right"):
        return True  # none of JSON_VALUES is a node type or a node
    return not (isinstance(value, list) and all(type(v) is int for v in value))


def _nodes(tree):
    yield tree
    if tree["type"] == "split":
        yield from _nodes(tree["left"])
        yield from _nodes(tree["right"])


def single_field_defects(tree):
    """Copies of a certificate dict with one field of one node deleted or
    retyped, for every node and field."""
    text = json.dumps(tree)
    for i, node in enumerate(_nodes(tree)):
        for key in node:
            for value in (DELETED, *JSON_VALUES):
                if value is not DELETED and not _retyped(key, value):
                    continue
                bad = json.loads(text)
                target = list(_nodes(bad))[i]
                if value is DELETED:
                    del target[key]
                else:
                    target[key] = value
                yield bad


class TestMalformedCertificate:
    @pytest.mark.parametrize(
        "text",
        [
            '{"type": "split"}',
            "[1]",
            '{"type": "leaf", "entries": 5}',
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["missing-fields", "not-an-object", "mistyped-entries", "deeply-nested"],
    )
    def test_raises_invalid_certificate(self, text):
        with pytest.raises(InvalidCertificateError):
            certificate_from_json(text)

    def test_not_json(self):
        with pytest.raises(InvalidCertificateError):
            certificate_from_json("{not json")

    @pytest.mark.parametrize("side", ["left_reduced", "right_reduced"])
    @pytest.mark.parametrize(
        "value", [[3, 2], [2, 2], [0, 1], [-1], []],
        ids=["decreasing", "repeated", "zero", "negative", "empty"],
    )
    def test_reduced_side_not_increasing_and_positive_raises(self, side, value):
        tree = json.loads(certificate_to_json(ci((28, 31, 36, 48))))
        tree[side] = value
        with pytest.raises(InvalidCertificateError):
            certificate_from_json(json.dumps(tree))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=3, max_size=5, unique=True)
        .map(lambda xs: tuple(sorted(xs)))
        .filter(lambda g: gcd(*g) == 1)
    )
    def test_every_deleted_or_retyped_field_raises(self, gens):
        cert = ci(gens)
        assume(isinstance(cert, SplitNode))
        for bad in single_field_defects(json.loads(certificate_to_json(cert))):
            with pytest.raises(InvalidCertificateError):
                certificate_from_dict(bad)
            with pytest.raises(InvalidCertificateError):
                certificate_from_json(json.dumps(bad))


class TestOracleAgreementDeskScale:
    def test_exhaustive_small(self):
        # the full <= 40 sweep lives in the acceptance suite
        for n in (3, 4):
            for comb in itertools.combinations(range(1, 15), n):
                d = 0
                for g in comb:
                    d = gcd(d, g)
                if d != 1:
                    continue
                assert (ci(comb) is not None) == is_ci_oracle(comb), comb


class TestModuleBoundary:
    def test_certificates_imports_only_errors_from_the_package(self):
        tree = ast.parse(inspect.getsource(certificates))
        imported = {"." * node.level + (node.module or "") for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
        assert {name for name in imported if name.startswith((".", "cishift"))} == {".errors"}

    def test_delorme_keeps_the_checker_name(self):
        # the benchmark harness calls and traces delorme.verify_certificate
        assert delorme.verify_certificate is certificates.verify_certificate
