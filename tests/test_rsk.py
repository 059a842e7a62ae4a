import random

import pytest
from hypothesis import given, strategies as st

from rskcheck.permutations import Permutation, iterate_sn
from rskcheck.rsk import (
    TableauPair,
    inverse_rsk,
    recording_cells,
    row_insert,
    rsk,
    same_recording_tableau,
)
from rskcheck.tableaux import Cell, StandardYoungTableau


def naive_insertion_pair(values):
    """Independent straightforward re-implementation of the bump rule,
    structured around whole-row rebuilds instead of in-place bumping."""
    p_rows, q_rows = [], []
    for step, x in enumerate(values, start=1):
        carried = x
        row_index = 0
        while True:
            if row_index == len(p_rows):
                p_rows.append([carried])
                landing = row_index
                break
            row = p_rows[row_index]
            larger = [j for j, u in enumerate(row) if carried < u]
            if not larger:
                row.append(carried)
                landing = row_index
                break
            j = larger[0]
            carried, row[j] = row[j], carried
            row_index += 1
        if landing == len(q_rows):
            q_rows.append([step])
        else:
            q_rows[landing].append(step)
    return (
        tuple(tuple(r) for r in p_rows),
        tuple(tuple(r) for r in q_rows),
    )


def brute_force_longest_monotone(values, decreasing=False):
    """Check every subsequence; exponential, so only for small n."""
    best = 0
    n = len(values)
    for mask in range(1, 2**n):
        sub = [values[i] for i in range(n) if mask >> i & 1]
        pairs = zip(sub, sub[1:])
        ok = all(a > b for a, b in pairs) if decreasing else all(
            a < b for a, b in zip(sub, sub[1:])
        )
        if ok:
            best = max(best, len(sub))
    return best


def perms(min_size=1, max_size=12):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(Permutation)


class TestRowInsert:
    def test_bump_into_new_row(self):
        out = row_insert([[5]], 2)
        assert out.rows == ((2,), (5,))
        assert out.new_cell == Cell(2, 1)
        assert out.bump_path == (Cell(1, 1), Cell(2, 1))

    def test_cascading_bumps(self):
        out = row_insert([[2, 3], [5]], 1)
        assert out.rows == ((1, 3), (2,), (5,))
        assert out.new_cell == Cell(3, 1)
        assert out.bump_path == (Cell(1, 1), Cell(2, 1), Cell(3, 1))

    def test_append_to_first_row(self):
        out = row_insert([[1, 3], [2], [5]], 4)
        assert out.rows == ((1, 3, 4), (2,), (5,))
        assert out.new_cell == Cell(1, 3)
        assert out.bump_path == (Cell(1, 3),)

    def test_insert_into_empty(self):
        out = row_insert([], 7)
        assert out.rows == ((7,),)
        assert out.new_cell == Cell(1, 1)

    def test_already_present_rejected(self):
        with pytest.raises(ValueError, match="already present"):
            row_insert([[2, 3], [5]], 3)

    def test_bump_path_rows_strictly_increase(self):
        for w in iterate_sn(5):
            grid = []
            for x in w:
                out = row_insert(grid, x)
                path_rows = [cell.row for cell in out.bump_path]
                assert path_rows == sorted(set(path_rows))
                assert out.bump_path[-1] == out.new_cell
                grid = out.rows

    def test_bump_path_carries_each_bumped_value_down(self):
        for w in iterate_sn(5):
            grid = ()
            for x in w:
                out = row_insert(grid, x)
                carried = x
                for cell in out.bump_path:
                    assert out.rows[cell.row - 1][cell.col - 1] == carried
                    if cell != out.new_cell:
                        carried = grid[cell.row - 1][cell.col - 1]
                grid = out.rows

    def test_matches_naive_insertion_exhaustive(self):
        # inserting the last letter into P of the rest gives P of the word
        for n in range(1, 7):
            for w in iterate_sn(n):
                grid, _ = naive_insertion_pair(w[:-1])
                out = row_insert(grid, w[-1])
                assert out.rows == naive_insertion_pair(w)[0]


class TestRsk:
    def test_worked_example(self):
        pair = rsk(Permutation.parse("52314"))
        assert pair.p == StandardYoungTableau([[1, 3, 4], [2], [5]])
        assert pair.q == StandardYoungTableau([[1, 3, 5], [2], [4]])

    def test_identity_never_bumps(self):
        for n in (1, 4, 9):
            pair = rsk(Permutation(range(1, n + 1)))
            expected = StandardYoungTableau([list(range(1, n + 1))])
            assert pair.p == expected
            assert pair.q == expected

    def test_derived_example_12543(self):
        pair = rsk(Permutation.parse("12543"))
        p_rows, q_rows = naive_insertion_pair([1, 2, 5, 4, 3])
        assert pair.p == p_rows == ((1, 2, 3), (4,), (5,))
        assert pair.q == q_rows == ((1, 2, 3), (4,), (5,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            rsk(Permutation([]))

    def test_shapes_match_exhaustive(self):
        for n in range(1, 8):
            for w in iterate_sn(n):
                pair = rsk(w)
                assert pair.p.shape == pair.q.shape
                # rsk builds its tableaux unvalidated; the constructor agrees
                assert StandardYoungTableau(pair.p) == pair.p
                assert StandardYoungTableau(pair.q) == pair.q

    def test_against_independent_reimplementation_exhaustive(self):
        for w in iterate_sn(5):
            pair = rsk(w)
            p_rows, q_rows = naive_insertion_pair(w)
            assert pair.p == p_rows
            assert pair.q == q_rows

    @given(perms(max_size=16))
    def test_against_independent_reimplementation_random(self, w):
        pair = rsk(w)
        p_rows, q_rows = naive_insertion_pair(w)
        assert (pair.p, pair.q) == (p_rows, q_rows)

    def test_reverse_transposes_insertion_tableau_exhaustive(self):
        for n in range(1, 8):
            for w in iterate_sn(n):
                assert rsk(w.reverse()).p == rsk(w).p.transpose()


class TestTableauPair:
    def test_shape_mismatch_rejected(self):
        p = StandardYoungTableau([[1, 2]])
        q = StandardYoungTableau([[1], [2]])
        with pytest.raises(ValueError, match="shape mismatch"):
            TableauPair(p, q)


class TestInverseRsk:
    def test_worked_example_roundtrip(self):
        pair = TableauPair(
            StandardYoungTableau([[1, 3, 4], [2], [5]]),
            StandardYoungTableau([[1, 3, 5], [2], [4]]),
        )
        assert inverse_rsk(pair) == Permutation.parse("52314")

    def test_identity(self):
        row = StandardYoungTableau([[1, 2, 3, 4]])
        assert inverse_rsk(TableauPair(row, row)) == Permutation([1, 2, 3, 4])

    def test_roundtrip_exhaustive_to_s7(self):
        for n in range(1, 8):
            for w in iterate_sn(n):
                assert inverse_rsk(rsk(w)) == w

    @given(perms(max_size=16))
    def test_roundtrip_random(self, w):
        assert inverse_rsk(rsk(w)) == w


class TestRecordingHelpers:
    def test_recording_cells_match_q(self):
        for w in iterate_sn(4):
            cells = recording_cells(w)
            q = rsk(w).q
            assert [q.cell_of(i) for i in range(1, w.n + 1)] == cells

    def test_same_recording_tableau_matches_full_comparison_exhaustive(self):
        for n in range(1, 7):
            for w in iterate_sn(n):
                expected = rsk(w).q == rsk(w.reverse()).q
                assert same_recording_tableau(w, w[::-1]) == expected

    @given(perms(max_size=10), st.randoms())
    def test_same_recording_tableau_matches_full_comparison_random_pairs(self, w, rng):
        shuffled = list(w)
        rng.shuffle(shuffled)
        v = Permutation(shuffled)
        expected = rsk(w).q == rsk(v).q
        assert same_recording_tableau(w, v) == expected


def recording_cells_of(word):
    """Each step of Q(word), mapped to the cell it makes."""
    q = naive_insertion_pair(word)[1]
    return {x: (r, c) for r, row in enumerate(q) for c, x in enumerate(row)}


def check_every_split(u, v):
    """same_recording_tableau on the tails of u and v after each split k,
    started from the heads' P rows, against steps k+1 onwards of Q(u) and
    Q(v)."""
    cells_u, cells_v = recording_cells_of(u), recording_cells_of(v)
    for k in range(len(u) + 1):
        start = (naive_insertion_pair(u[:k])[0], naive_insertion_pair(v[:k])[0])
        later = all(cells_u[x] == cells_v[x] for x in range(k + 1, len(u) + 1))
        assert same_recording_tableau(u[k:], v[k:], start=start) == later, (u, v, k)


class TestResumedComparison:
    def test_every_split_of_every_reversal_pair_exhaustive(self):
        for w in iterate_sn(7):
            check_every_split(w, w[::-1])

    def test_every_split_of_random_pairs(self):
        rng = random.Random(27)
        for _ in range(300):
            n = rng.randint(1, 10)
            check_every_split(rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n))

    # The first pair differs at step 3; the second agrees through step 4.
    @pytest.mark.parametrize("u, v", [((1, 2, 4, 3), (3, 4, 2, 1)), ((2, 1, 3, 4), (3, 1, 2, 4))])
    def test_start_rows_are_not_changed(self, u, v):
        heads = [[list(row) for row in naive_insertion_pair(x[:2])[0]] for x in (u, v)]
        before = [[row[:] for row in rows] for rows in heads]
        same_recording_tableau(u[2:], v[2:], start=(heads[0], heads[1]))
        assert heads == before

    def test_default_start_is_empty_rows(self):
        for w in iterate_sn(6):
            u, v = w, w[::-1]
            expected = rsk(w).q == rsk(w.reverse()).q
            assert same_recording_tableau(u, v) == expected
            assert same_recording_tableau(u, v, start=((), ())) == expected


class TestLongestMonotone:
    # Schensted: the first row of Q(w) is as long as the longest increasing
    # subsequence of w, and Q(w) has as many rows as the longest decreasing one.
    @pytest.mark.parametrize("n", range(1, 8))
    def test_brute_force_oracle_exhaustive(self, n):
        for w in iterate_sn(n):
            q_shape = rsk(w).q.shape
            assert brute_force_longest_monotone(w) == q_shape[0]
            assert brute_force_longest_monotone(w, decreasing=True) == len(q_shape)
