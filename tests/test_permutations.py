import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from rskcheck.permutations import MAX_SIZE, Permutation, iterate_sn, next_permutation, unrank


def perms(min_size=1, max_size=12):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(Permutation)


class TestConstruction:
    def test_worked_example(self):
        w = Permutation([5, 2, 3, 1, 4])
        assert w == (5, 2, 3, 1, 4)
        assert w.n == 5

    def test_singleton(self):
        assert Permutation([1]) == (1,)

    def test_empty_is_allowed(self):
        assert Permutation([]).n == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Permutation([1, 1, 2]),
            lambda: Permutation(iter([1, 1, 2])),
            lambda: Permutation.parse("112"),
            lambda: Permutation(values=[1, 1, 2]),
        ],
        ids=["list", "iter", "parse", "keyword"],
    )
    def test_duplicate_rejected_with_position(self, build):
        with pytest.raises(ValueError, match=r"duplicate value 1 at position 2"):
            build()

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match=r"entry 0 at position 1"):
            Permutation([0, 1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=r"entry -3 at position 2"):
            Permutation([1, -3])

    def test_too_large_value_rejected(self):
        with pytest.raises(ValueError, match=r"entry 4 at position 3 exceeds the length 3"):
            Permutation([1, 2, 4])

    def test_size_bound(self):
        Permutation(range(1, MAX_SIZE + 1))
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            Permutation(range(1, MAX_SIZE + 2))


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["5 2 3 1 4", "5,2,3,1,4", "52314", "  5 2 3 1 4  ", "5, 2, 3, 1, 4"],
    )
    def test_formats(self, text):
        assert Permutation.parse(text) == (5, 2, 3, 1, 4)

    def test_single_value(self):
        assert Permutation.parse("1") == (1,)

    def test_two_digit_values_need_separators(self):
        assert Permutation.parse("10 2 3 4 5 6 7 8 9 1").n == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty permutation"):
            Permutation.parse("   ")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="invalid integer"):
            Permutation.parse("1 two 3")
        with pytest.raises(ValueError, match="cannot parse permutation from '²'"):
            Permutation.parse("²")
        # a token is one optional sign and ASCII digits; int() alone reads more
        for text, token in [
            ("３ １ ２ ５ ４", "３"),
            ("1_0 2 3 4 5 6 7 8 9 1", "1_0"),
            ("1 ² 2", "²"),
            ("+-1 2", "+-1"),
            ("1, 2, ٣", "٣"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                Permutation.parse(text)
            assert str(excinfo.value) == f"invalid integer {token!r} in permutation text"
        with pytest.raises(ValueError, match="not a positive integer"):
            Permutation.parse("-1 2")

    def test_canonical_output_is_space_separated(self):
        assert str(Permutation([5, 2, 3, 1, 4])) == "5 2 3 1 4"

    @given(perms())
    def test_roundtrip(self, w):
        assert Permutation.parse(str(w)) == w


class TestOperators:
    def test_reverse_examples(self):
        assert Permutation.parse("52314").reverse() == Permutation.parse("41325")
        assert Permutation([1]).reverse() == Permutation([1])
        assert Permutation.parse("1634257").reverse() == Permutation.parse("7524361")

    def test_complement_examples(self):
        assert Permutation.parse("52314").complement() == Permutation.parse("14352")
        assert Permutation.parse("231").complement() == Permutation.parse("213")
        assert Permutation([1]).complement() == Permutation([1])

    def test_inverse_examples(self):
        assert Permutation.parse("52314").inverse() == Permutation.parse("42351")
        assert Permutation.parse("12345").inverse() == Permutation.parse("12345")
        assert Permutation.parse("231").inverse() == Permutation.parse("312")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_involutions_exhaustive(self, n):
        for w in iterate_sn(n):
            # the operators build their results unvalidated
            for image in (w.reverse(), w.complement(), w.inverse()):
                assert Permutation(image) == image
            assert w.reverse().reverse() == w
            assert w.complement().complement() == w
            assert w.inverse().inverse() == w

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reverse_complement_commute_exhaustive(self, n):
        for w in iterate_sn(n):
            assert w.reverse().complement() == w.complement().reverse()

    @given(perms(max_size=MAX_SIZE))
    def test_involutions_random(self, w):
        assert w.reverse().reverse() == w
        assert w.complement().complement() == w
        assert w.inverse().inverse() == w
        assert w.reverse().complement() == w.complement().reverse()


class TestIteration:
    def test_s0_yields_one_empty(self):
        assert list(iterate_sn(0)) == [Permutation([])]

    def test_s3_lexicographic(self):
        got = list(iterate_sn(3))
        assert got == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]

    def test_s5_length(self):
        assert sum(1 for _ in iterate_sn(5)) == 120

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_itertools_oracle(self, n):
        # itertools.permutations of a sorted pool yields lexicographic order
        oracle = [perm for perm in itertools.permutations(range(1, n + 1))]
        assert list(iterate_sn(n)) == oracle

    def test_no_repeats(self):
        seen = set(iterate_sn(5))
        assert len(seen) == 120

    @pytest.mark.parametrize(
        "n, message",
        [(-1, "size must be nonnegative"), (MAX_SIZE + 1, "size 21 exceeds the supported maximum 20")],
        ids=["negative", "above_max"],
    )
    def test_size_out_of_range(self, n, message):
        # the generator is lazy: the error comes at the first step
        generator = iterate_sn(n)
        with pytest.raises(ValueError, match=message):
            next(generator)


class TestUnrank:
    def test_extremes(self):
        assert unrank(3, 0) == Permutation([1, 2, 3])
        assert unrank(3, 5) == Permutation([3, 2, 1])

    def test_middle_by_brute_force(self):
        oracle = list(itertools.permutations([1, 2, 3]))
        assert unrank(3, 2) == oracle[2] == (2, 1, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            unrank(3, 6)
        with pytest.raises(ValueError, match="out of range"):
            unrank(3, -1)
        # the size bound holds though unrank builds its result unvalidated
        with pytest.raises(ValueError, match="size 21 exceeds the supported maximum 20"):
            unrank(21, 0)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_agrees_with_iteration_exhaustive(self, n):
        for r, w in enumerate(iterate_sn(n)):
            assert unrank(n, r) == w

    def test_bijection(self):
        images = {unrank(4, r) for r in range(factorial(4))}
        assert len(images) == 24

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complement_reverses_rank(self, n):
        # Complement reverses every comparison of values, so it reverses
        # lexicographic order: the n! suites look complements up by rank.
        top = factorial(n) - 1
        for r in range(top + 1):
            assert unrank(n, r).complement() == unrank(n, top - r)


class TestNextPermutation:
    def test_advances(self):
        values = [1, 2, 3]
        assert next_permutation(values)
        assert values == [1, 3, 2]

    def test_final(self):
        values = [3, 2, 1]
        assert not next_permutation(values)
        assert values == [3, 2, 1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_steps_through_every_permutation_in_order(self, n):
        # Most steps swap w_i with a letter before the last one, which the
        # two cases above never do.
        values = list(range(1, n + 1))
        for expected in itertools.permutations(range(1, n + 1)):
            assert tuple(values) == expected
            stepped = next_permutation(values)
        assert not stepped
        assert values == list(range(n, 0, -1))
