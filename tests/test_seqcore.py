import pytest

from cishift.seqcore import (
    BaseSequence,
    GeneratorSequence,
    differences,
    format_sequence,
    normalize,
    parse_base,
    parse_gens,
    shift,
)


class TestConstruction:
    def test_base_requires_increasing(self):
        with pytest.raises(ValueError):
            BaseSequence((3, 3, 5))
        with pytest.raises(ValueError):
            BaseSequence((5, 3))
        with pytest.raises(ValueError):
            BaseSequence(())

    def test_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            BaseSequence((0, 2))
        with pytest.raises(ValueError):
            GeneratorSequence((-1, 4))

    def test_bool_entries_rejected(self):
        # True == 1 and hashes alike, so an accepted (True, 3) would sit in
        # the decider's memo under the key (1, 3) and leak into its output
        with pytest.raises(ValueError, match="positive integers"):
            GeneratorSequence((True, 3))
        with pytest.raises(ValueError, match="positive integers"):
            BaseSequence((True, 2))

    def test_singleton_ok(self):
        assert BaseSequence((8,)).n == 1
        assert len(GeneratorSequence((5,))) == 1


class TestShift:
    @pytest.mark.parametrize(
        "base, j, expected",
        [
            ((11, 16, 28), 28, (28, 39, 44, 56)),
            ((3, 8, 20), 28, (28, 31, 36, 48)),
            ((1, 2), 2, (2, 3, 4)),
        ],
    )
    def test_examples(self, base, j, expected):
        assert shift(BaseSequence(base), j).gens == expected

    def test_requires_positive_shift(self):
        with pytest.raises(ValueError):
            shift(BaseSequence((1, 2)), 0)

    def test_entrywise_monotone_in_j(self):
        base = BaseSequence((2, 7, 9))
        for j in range(1, 30):
            lo = shift(base, j).gens
            hi = shift(base, j + 1).gens
            assert all(a < b for a, b in zip(lo, hi))


class TestNormalize:
    @pytest.mark.parametrize(
        "gens, d, reduced",
        [
            ((4, 6, 9), 1, (4, 6, 9)),
            ((14, 18, 24), 2, (7, 9, 12)),
            ((5,), 5, (1,)),
        ],
    )
    def test_examples(self, gens, d, reduced):
        got_d, got = normalize(GeneratorSequence(gens))
        assert (got_d, got.gens) == (d, reduced)

    def test_idempotent(self):
        for gens in [(14, 18, 24), (10, 15), (7,), (6, 8, 10, 14)]:
            _, reduced = normalize(GeneratorSequence(gens))
            d2, again = normalize(reduced)
            assert d2 == 1 and again == reduced


class TestDifferences:
    @pytest.mark.parametrize(
        "base, expected",
        [
            ((11, 16, 28), (11, 5, 12)),
            ((3, 8, 20), (3, 5, 12)),
            ((8,), (8,)),
        ],
    )
    def test_examples(self, base, expected):
        assert differences(BaseSequence(base)) == expected

    def test_sum_is_last_entry(self):
        for base in [(1, 2), (3, 8, 20), (2, 5, 9, 24)]:
            b = BaseSequence(base)
            assert sum(differences(b)) == b.period


class TestParsing:
    def test_round_trip(self):
        for text in ["11,16,28", "5", "1,2"]:
            assert format_sequence(parse_gens(text).gens) == text

    def test_spaces_tolerated(self):
        assert parse_base(" 3, 8 , 20 ").entries == (3, 8, 20)

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            parse_gens("")
        with pytest.raises(ValueError):
            parse_gens("3,x,5")
