import pytest
from hypothesis import given, strategies as st

from rskcheck.evacuation import delta, evacuation, evacuation_trace
from rskcheck.permutations import Permutation, iterate_sn
from rskcheck.rsk import recording_cells, rsk
from rskcheck.tableaux import Cell, StandardYoungTableau, enumerate_syt, partitions


def syt_strategy(max_size=10):
    return (
        st.integers(1, max_size)
        .flatmap(lambda n: st.permutations(range(1, n + 1)))
        .map(lambda values: rsk(Permutation(values)).q)
    )


def cells_in_entry_order(rows):
    """Cells listed by increasing entry, independent of the entry labels."""
    located = []
    for r, row in enumerate(rows, start=1):
        for c, v in enumerate(row, start=1):
            located.append((v, Cell(r, c)))
    return [cell for _, cell in sorted(located)]


class TestDelta:
    def test_first_step(self):
        grid, vacated = delta(StandardYoungTableau([[1, 3, 5], [2], [4]]))
        assert grid == ((2, 3, 5), (4,))
        assert vacated == Cell(3, 1)

    def test_second_step_on_partial_grid(self):
        grid, vacated = delta([[2, 3, 5], [4]])
        assert grid == ((3, 5), (4,))
        assert vacated == Cell(1, 3)

    def test_single_cell(self):
        grid, vacated = delta([[1]])
        assert grid == ()
        assert vacated == Cell(1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty tableau"):
            delta([])

    def test_entries_are_not_renumbered(self):
        grid, _ = delta(StandardYoungTableau([[1, 2], [3]]))
        assert sorted(v for row in grid for v in row) == [2, 3]


class TestEvacuation:
    def test_worked_example(self):
        t = StandardYoungTableau([[1, 3, 5], [2], [4]])
        trace = evacuation_trace(t)
        assert trace.evacuation == StandardYoungTableau([[1, 2, 4], [3], [5]])
        assert trace.vacated_cells == (
            Cell(3, 1),
            Cell(1, 3),
            Cell(2, 1),
            Cell(1, 2),
            Cell(1, 1),
        )

    def test_single_cell(self):
        assert evacuation(StandardYoungTableau([[1]])) == StandardYoungTableau([[1]])

    def test_single_row(self):
        for n in (2, 5, 8):
            t = StandardYoungTableau([list(range(1, n + 1))])
            assert evacuation(t) == t

    def test_trace_covers_every_cell_once(self):
        t = rsk(Permutation.parse("3142675")).q
        trace = evacuation_trace(t)
        assert len(set(trace.vacated_cells)) == t.n

    def test_shape_preserved_and_involution_small_sizes(self):
        for n in range(1, 9):
            for shape in partitions(n):
                for t in enumerate_syt(shape):
                    ev = evacuation(t)
                    assert StandardYoungTableau(ev) == ev
                    assert ev.shape == t.shape
                    assert evacuation(ev) == t

    @given(syt_strategy(max_size=12))
    def test_shape_preserved_and_involution_random(self, t):
        ev = evacuation(t)
        assert ev.shape == t.shape
        assert evacuation(ev) == t

    def test_recording_tableau_of_reverse_exhaustive_s5(self):
        for w in iterate_sn(5):
            expected = evacuation(rsk(w).q).transpose()
            assert rsk(w.reverse()).q == expected

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.permutations(range(1, n + 1))
        ).map(Permutation)
    )
    def test_recording_tableau_of_reverse_random(self, w):
        assert rsk(w.reverse()).q == evacuation(rsk(w).q).transpose()


class TestDeltaPrefixRelation:
    def test_dropping_the_first_letter_exhaustive_s6(self):
        # deleting the minimal recording entry tracks the recording tableau
        # of the word with its first letter removed, up to relabeling
        for w in iterate_sn(6):
            grid, _ = delta(rsk(w).q)
            suffix = w[1:]
            suffix_cells = recording_cells(suffix)
            assert cells_in_entry_order(grid) == suffix_cells
