import pytest
from hypothesis import given, strategies as st

from rskcheck.permutations import Permutation, iterate_sn
from rskcheck.reverse_maps import (
    is_in_H,
    is_in_M,
    is_in_R,
    phi,
    satisfies_first_row_property,
    theta,
)
from rskcheck.rsk import rsk
from rskcheck.tableaux import StandardYoungTableau, enumerate_syt, partitions


def valid_lift_params(n):
    m = n + 2
    return [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]


@st.composite
def perm_with_params(draw, max_size=10):
    n = draw(st.integers(1, max_size))
    w = Permutation(draw(st.permutations(range(1, n + 1))))
    a, b = draw(st.sampled_from(valid_lift_params(n)))
    return w, a, b


class TestPhi:
    def test_worked_examples(self):
        w = Permutation.parse("52314")
        assert phi(w, 1, 2) == Permutation.parse("1745362")
        assert phi(w, 1, 7) == Permutation.parse("1634257")
        assert phi(w, 5, 3) == Permutation.parse("5724163")
        assert phi(w, 3, 5) == Permutation.parse("3724165")

    def test_equal_parameters_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            phi(Permutation([1]), 2, 2)

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError, match=r"a=0 outside \[1, 3\]"):
            phi(Permutation([1]), 0, 2)
        with pytest.raises(ValueError, match=r"b=4 outside \[1, 3\]"):
            phi(Permutation([1]), 1, 4)

    @pytest.mark.parametrize(
        "a, b, message",
        [(1.0, 3, "a=1.0 is not an integer"), (1, True, "b=True is not an integer")],
    )
    def test_parameters_that_are_not_integers_rejected(self, a, b, message):
        # The lift is built unchecked, so these would otherwise reach it.
        with pytest.raises(ValueError, match=message):
            phi(Permutation([1]), a, b)

    def test_endpoints(self):
        w = Permutation.parse("231")
        lifted = phi(w, 4, 2)
        assert lifted[0] == 4
        assert lifted[-1] == 2

    def test_identity_preserved_only_by_extreme_parameters(self):
        e4 = Permutation([1, 2, 3, 4])
        assert phi(e4, 1, 6) == Permutation([1, 2, 3, 4, 5, 6])
        assert phi(e4, 2, 6) != Permutation([1, 2, 3, 4, 5, 6])

    def test_order_preservation_exhaustive_s5(self):
        for w in iterate_sn(5):
            for a, b in valid_lift_params(5):
                lifted = phi(w, a, b)
                inner = lifted[1:-1]
                for i in range(5):
                    for j in range(i + 1, 5):
                        assert (w[i] < w[j]) == (inner[i] < inner[j])

    @given(perm_with_params())
    def test_result_is_valid_permutation(self, case):
        w, a, b = case
        lifted = phi(w, a, b)
        # phi builds its result unchecked, so check that it is a permutation
        assert Permutation(lifted) == lifted
        assert lifted.n == w.n + 2

    def test_result_over_the_size_bound_rejected(self):
        with pytest.raises(ValueError, match="size 21 exceeds the supported maximum 20"):
            phi(Permutation(range(1, 20)), 1, 2)


class TestTheta:
    def test_worked_examples(self):
        assert theta(Permutation.parse("231")) == Permutation([1])
        assert theta(Permutation.parse("52314")) == Permutation.parse("231")
        assert theta(Permutation.parse("1634257")) == Permutation.parse("52314")

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            theta(Permutation([1, 2]))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_result_is_valid_permutation_exhaustive(self, n):
        # theta builds its result unvalidated; the constructor agrees
        for w in iterate_sn(n):
            projected = theta(w)
            assert Permutation(projected) == projected

    def test_preserves_interior_order_exhaustive_s5(self):
        for w in iterate_sn(5):
            projected = theta(w)
            inner = w[1:-1]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert (inner[i] < inner[j]) == (
                        projected[i] < projected[j]
                    )


class TestPhiParametersOf:
    # the parameters that lift theta(w) back to w are w's first and last
    # entries
    def test_reassembles_exhaustive_s5(self):
        for w in iterate_sn(5):
            assert phi(theta(w), w[0], w[-1]) == w


class TestLeftInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive(self, n):
        for w in iterate_sn(n):
            for a, b in valid_lift_params(n):
                assert theta(phi(w, a, b)) == w

    @given(perm_with_params())
    def test_random(self, case):
        w, a, b = case
        assert theta(phi(w, a, b)) == w

    def test_composed_worked_examples(self):
        w = Permutation.parse("52314")
        assert theta(phi(w, 1, 2)) == w
        assert theta(phi(w, 1, 7)) == w


class TestPartitionOfLiftImages:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_images_tile_the_larger_group(self, n):
        images = set()
        total = 0
        for w in iterate_sn(n):
            for a, b in valid_lift_params(n):
                images.add(phi(w, a, b))
                total += 1
        everything = set(iterate_sn(n + 2))
        assert total == len(images)  # injective across parameters and sources
        assert images == everything  # and surjective


class TestEquivariance:
    def test_exhaustive_s5(self):
        for v in iterate_sn(5):
            assert theta(v.reverse()) == theta(v).reverse()
            assert theta(v.complement()) == theta(v).complement()

    @given(st.integers(3, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_random(self, values):
        v = Permutation(values)
        assert theta(v.reverse()) == theta(v).reverse()
        assert theta(v.complement()) == theta(v).complement()


class TestMembershipPredicates:
    def test_is_in_R_examples(self):
        assert is_in_R(Permutation.parse("52314"))
        assert not is_in_R(Permutation.parse("52341"))
        assert not is_in_R(Permutation([1, 2]))
        assert not is_in_R(Permutation([2, 1]))
        assert is_in_R(Permutation([1]))

    def test_is_in_R_matches_direct_definition_exhaustive(self):
        for n in range(1, 7):
            for w in iterate_sn(n):
                assert is_in_R(w) == (rsk(w).q == rsk(w.reverse()).q)

    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_is_in_R_matches_direct_definition_random(self, values):
        w = Permutation(values)
        assert is_in_R(w) == (rsk(w).q == rsk(w.reverse()).q)

    def test_is_in_H_examples(self):
        assert is_in_H(Permutation.parse("52314"))
        assert is_in_H(Permutation.parse("52341"))
        assert not is_in_H(Permutation([1, 2]))

    def test_H_strictly_contains_R_witness(self):
        w = Permutation.parse("52341")
        assert is_in_H(w) and not is_in_R(w)
        assert rsk(w).q == StandardYoungTableau([[1, 3, 4], [2], [5]])
        assert rsk(w.reverse()).q == StandardYoungTableau([[1, 2, 5], [3], [4]])

    def test_claimed_counterexample_34521_is_actually_reverse_stable(self):
        # the definitional oracle decides: 34521 shares its recording
        # tableau with 12543, so it belongs to the reverse-stable set
        w = Permutation.parse("34521")
        assert rsk(w).q == StandardYoungTableau([[1, 2, 3], [4], [5]])
        assert rsk(w.reverse()).q == StandardYoungTableau([[1, 2, 3], [4], [5]])
        assert is_in_R(w)
        q = rsk(w).q
        assert q.shape.is_symmetric_hook() and satisfies_first_row_property(q)

    def test_first_row_property_examples(self):
        assert satisfies_first_row_property(StandardYoungTableau([[1, 3, 5], [2], [4]]))
        assert not satisfies_first_row_property(
            StandardYoungTableau([[1, 3, 4], [2], [5]])
        )
        assert satisfies_first_row_property(StandardYoungTableau([[1]]))

    def test_is_in_M_examples(self):
        assert is_in_M(StandardYoungTableau([[1, 3, 5], [2], [4]]))
        assert not is_in_M(StandardYoungTableau([[1, 3, 4], [2], [5]]))
        assert is_in_M(StandardYoungTableau([[1]]))


class TestFixedTableauCharacterization:
    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_fixed_iff_symmetric_hook_with_first_row_property(self, n):
        for shape in partitions(n):
            for t in enumerate_syt(shape):
                expected = shape.is_symmetric_hook() and satisfies_first_row_property(t)
                assert is_in_M(t) == expected

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_no_fixed_tableaux_for_even_sizes(self, n):
        for shape in partitions(n):
            assert not any(is_in_M(t) for t in enumerate_syt(shape))


class TestReverseStableTransport:
    def test_projection_keeps_membership_r5_to_r3(self):
        members_r3 = {w for w in iterate_sn(3) if is_in_R(w)}
        count = 0
        for w in iterate_sn(5):
            if is_in_R(w):
                count += 1
                assert theta(w) in members_r3
        assert count == 24
        assert len(members_r3) == 4

    def test_projection_keeps_membership_r3_to_r1(self):
        for w in iterate_sn(3):
            if is_in_R(w):
                assert theta(w) == Permutation([1])

    def test_characterization_matches_definition_exhaustive(self):
        for n in range(1, 7):
            for w in iterate_sn(n):
                q = rsk(w).q
                characterized = q.shape.is_symmetric_hook() and (
                    satisfies_first_row_property(q)
                )
                assert is_in_R(w) == characterized
