import itertools

import pytest
from hypothesis import given, strategies as st

from rskcheck.permutations import Permutation
from rskcheck.rsk import rsk
from rskcheck.tableaux import (
    Cell,
    Shape,
    StandardYoungTableau,
    count_syt,
    enumerate_syt,
    partitions,
    validate_grid,
)


def brute_force_syt(parts):
    """Independent oracle: try every assignment of 1..n to the cells row by
    row and keep the standard ones."""
    n = sum(parts)
    found = []
    for perm in itertools.permutations(range(1, n + 1)):
        rows = []
        idx = 0
        for length in parts:
            rows.append(perm[idx : idx + length])
            idx += length
        if _is_standard(rows):
            found.append(rows)
    return found


def _is_standard(rows):
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            return False
    return True


def syt_strategy(max_size=9):
    # recording tableaux of random permutations cover all shapes
    return (
        st.integers(1, max_size)
        .flatmap(lambda n: st.permutations(range(1, n + 1)))
        .map(lambda values: rsk(Permutation(values)).q)
    )


class TestShape:
    def test_valid(self):
        assert Shape([3, 1, 1]) == (3, 1, 1)
        assert Shape([]).size == 0
        assert Shape([2, 2, 1]).size == 5

    @pytest.mark.parametrize("given", [list, iter])
    def test_increasing_parts_rejected(self, given):
        with pytest.raises(ValueError, match="weakly decrease"):
            Shape(given([1, 2]))

    def test_nonpositive_part_rejected(self):
        with pytest.raises(ValueError, match="not positive"):
            Shape([2, 0])

    def test_conjugate_symmetric(self):
        assert Shape([3, 1, 1]).conjugate() == Shape([3, 1, 1])

    def test_conjugate_brute_force(self):
        # count column heights directly off the diagram
        parts = (3, 3, 1)
        columns = [sum(1 for p in parts if p > j) for j in range(parts[0])]
        assert Shape(parts).conjugate() == tuple(columns) == (3, 2, 2)

    def test_conjugate_row_column_duality(self):
        assert Shape([4]).conjugate() == Shape([1, 1, 1, 1])
        assert Shape([1, 1, 1, 1]).conjugate() == Shape([4])

    @given(st.integers(0, 10))
    def test_conjugate_involution(self, n):
        for shape in partitions(n):
            assert shape.conjugate().conjugate() == shape


class TestHookPredicates:
    def test_is_hook(self):
        assert Shape([3, 1, 1]).is_hook()
        assert not Shape([3, 3, 1]).is_hook()
        assert Shape([1]).is_hook()
        assert Shape([1, 1, 1]).is_hook()
        assert not Shape([4]).is_hook()
        assert not Shape([2, 2]).is_hook()

    def test_is_symmetric_hook(self):
        assert Shape([3, 1, 1]).is_symmetric_hook()
        assert Shape([2, 1]).is_symmetric_hook()
        assert Shape([4, 1, 1, 1]).is_symmetric_hook()
        assert Shape([1]).is_symmetric_hook()
        assert not Shape([4, 1, 1]).is_symmetric_hook()
        assert not Shape([2, 1, 1]).is_symmetric_hook()
        assert not Shape([3, 3, 1]).is_symmetric_hook()

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError, match="empty shape"):
            Shape([]).is_hook()
        with pytest.raises(ValueError, match="empty shape"):
            Shape([]).is_symmetric_hook()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_symmetric_hook_equals_hook_and_self_conjugate(self, n):
        for shape in partitions(n):
            expected = shape.is_hook() and shape.conjugate() == shape
            assert shape.is_symmetric_hook() == expected

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_no_symmetric_hook_for_even_sizes(self, n):
        assert not any(shape.is_symmetric_hook() for shape in partitions(n))

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
    def test_exactly_one_symmetric_hook_for_odd_sizes(self, n):
        hooks = [shape for shape in partitions(n) if shape.is_symmetric_hook()]
        assert hooks == [Shape(((n + 1) // 2,) + (1,) * ((n - 1) // 2))]


class TestPartitions:
    @pytest.mark.parametrize(
        "n,count", [(0, 1), (1, 1), (4, 5), (8, 22), (12, 77)]
    )
    def test_counts(self, n, count):
        shapes = list(partitions(n))
        assert len(shapes) == count
        assert len(set(shapes)) == count
        assert all(s.size == n for s in shapes)


class TestTableauConstruction:
    def test_worked_example_tableau(self):
        t = StandardYoungTableau([[1, 3, 5], [2], [4]])
        assert t.shape == Shape([3, 1, 1])
        assert t.n == 5

    @pytest.mark.parametrize("given", [list, iter])
    def test_duplicate_entry(self, given):
        with pytest.raises(ValueError, match=r"duplicate entry 2"):
            StandardYoungTableau(given([[1, 2], [2]]))

    def test_row_order_violation(self):
        with pytest.raises(ValueError, match=r"row order violated at \(1,2\)"):
            StandardYoungTableau([[2, 1]])

    def test_column_order_violation(self):
        with pytest.raises(ValueError, match=r"column order violated at \(2,1\)"):
            StandardYoungTableau([[2, 3], [1]])

    def test_non_partition_rows(self):
        with pytest.raises(ValueError, match="row lengths must weakly decrease"):
            StandardYoungTableau([[1], [2, 3]])

    def test_missing_entry(self):
        with pytest.raises(ValueError, match="missing entry 3"):
            StandardYoungTableau([[1, 5], [2]])

    def test_cell_of(self):
        t = StandardYoungTableau([[1, 3, 5], [2], [4]])
        assert t.cell_of(4) == Cell(3, 1)
        assert t.cell_of(2) == Cell(2, 1)
        with pytest.raises(ValueError, match="not present"):
            t.cell_of(9)

    def test_ascii(self):
        t = StandardYoungTableau([[1, 3, 5], [2], [4]])
        assert t.ascii() == "1 3 5\n2\n4"


class TestValidateGrid:
    def test_accepts_partial_fill(self):
        assert validate_grid([[2, 3, 5], [4]]) == ((2, 3, 5), (4,))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate entry 4"):
            validate_grid([[2, 4], [4]])

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError, match="row 2 is empty"):
            validate_grid([[1], []])


class TestTranspose:
    def test_examples(self):
        t = StandardYoungTableau([[1, 3, 5], [2], [4]])
        assert t.transpose() == StandardYoungTableau([[1, 2, 4], [3], [5]])
        assert StandardYoungTableau([[1]]).transpose() == StandardYoungTableau([[1]])
        assert StandardYoungTableau([[1, 2, 3]]).transpose() == StandardYoungTableau(
            [[1], [2], [3]]
        )

    def test_involution_and_shape_exhaustive_small(self):
        for n in range(1, 9):
            for shape in partitions(n):
                for t in enumerate_syt(shape):
                    transposed = t.transpose()
                    assert StandardYoungTableau(transposed) == transposed
                    assert transposed.transpose() == t
                    assert transposed.shape == Shape(t.shape.conjugate())

    @given(syt_strategy())
    def test_involution_random(self, t):
        assert t.transpose().transpose() == t
        assert t.transpose().shape == t.shape.conjugate()


class TestEnumerateSyt:
    def test_forced_column(self):
        assert enumerate_syt(Shape([1, 1])) == [StandardYoungTableau([[1], [2]])]

    def test_forced_order_two_by_one(self):
        got = enumerate_syt(Shape([2, 1]))
        assert got == [
            StandardYoungTableau([[1, 2], [3]]),
            StandardYoungTableau([[1, 3], [2]]),
        ]

    @pytest.mark.parametrize(
        "parts", [(3, 1, 1), (2, 2), (4,), (2, 1, 1), (3, 2), (1, 1, 1, 1)]
    )
    def test_against_brute_force_oracle(self, parts):
        oracle = brute_force_syt(parts)
        got = enumerate_syt(Shape(parts))
        assert len(got) == len(oracle)
        assert set(got) == {
            tuple(tuple(row) for row in rows) for rows in oracle
        }

    def test_sorted_by_reading_word(self):
        for parts in [(3, 1, 1), (2, 2, 1)]:
            words = [t.reading_word() for t in enumerate_syt(Shape(parts))]
            assert words == sorted(words)

    def test_no_duplicates_size_eight(self):
        for shape in partitions(8):
            tableaux = enumerate_syt(shape)
            assert len(set(tableaux)) == len(tableaux)


class TestCountSyt:
    def test_examples(self):
        assert count_syt(Shape([3, 1, 1])) == 6
        assert count_syt(Shape([1])) == 1
        # the symmetric hook of size 5 has C(4,2) fillings
        assert count_syt(Shape([3, 1, 1])) == 6

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_symmetric_hook_is_central_binomial(self, n):
        from math import comb

        hook = Shape(((n + 1) // 2,) + (1,) * ((n - 1) // 2))
        assert count_syt(hook) == comb(n - 1, (n - 1) // 2)

    def test_matches_enumeration_for_all_shapes_up_to_eight(self):
        for n in range(0, 9):
            for shape in partitions(n):
                tableaux = enumerate_syt(shape)
                assert count_syt(shape) == len(tableaux)
                # enumerate_syt builds its tableaux unvalidated
                for t in tableaux:
                    assert StandardYoungTableau(t) == t
                    assert t.shape == shape
