import itertools
import random

import pytest

from wachkit.errors import InvalidInput, WeightOverflow
from wachkit.flmod import (
    FLModule,
    LatticeSub,
    direct_sum_fl,
    dual_twist_fl,
    make_fl,
    tensor_fl,
    unit_fl,
    validate_fl,
)
from wachkit.padic import PMatrix, matrix_inverse_mod
from wachkit.suite import random_unit_matrix


class TestValidate:
    def test_pass(self):
        m = make_fl(5, 4, (0, 1), PMatrix.identity(2, 5, 4))
        assert validate_fl(m).ok

    def test_weight_bound(self):
        m = make_fl(5, 4, (0, 4), PMatrix.identity(2, 5, 4))
        rep = validate_fl(m)
        assert not rep.ok and any("p-2" in f for f in rep.failures)

    def test_singular(self):
        m = make_fl(5, 4, (0, 1), PMatrix.from_lists([[5, 0], [0, 1]], 5, 4))
        rep = validate_fl(m)
        assert not rep.ok and any("singular" in f for f in rep.failures)


class TestTensor:
    def test_rank_one(self):
        m = tensor_fl(unit_fl(5, 3, 1, 2), unit_fl(5, 3, 2, 3))
        assert m.weights == (3,)
        assert m.A.entries == (6,)

    def test_unit_object_is_identity(self):
        rng = random.Random(1)
        m = make_fl(5, 3, (0, 2), random_unit_matrix(rng, 2, 5, 3))
        t = tensor_fl(m, unit_fl(5, 3, 0, 1))
        assert t.weights == m.weights and t.A == m.A

    def test_bound_check(self):
        m1 = make_fl(5, 3, (1, 1), PMatrix.identity(2, 5, 3))
        m2 = unit_fl(5, 3, 2, 1)
        assert tensor_fl(m1, m2).weights == (3, 3)
        m3 = make_fl(5, 3, (2, 2), PMatrix.identity(2, 5, 3))
        with pytest.raises(WeightOverflow):
            tensor_fl(m3, m2)

    def test_kronecker_inverse_identity(self):
        rng = random.Random(2)
        A = random_unit_matrix(rng, 2, 7, 16)
        B = random_unit_matrix(rng, 3, 7, 16)
        lhs = matrix_inverse_mod(A.kron(B))
        rhs = matrix_inverse_mod(A).kron(matrix_inverse_mod(B))
        assert lhs == rhs


class TestDirectSum:
    def test_zero_summand(self):
        m = unit_fl(3, 4, 1, 2)
        z = FLModule(3, 4, (), PMatrix(0, 0, (), 3, 4))
        s = direct_sum_fl(m, z)
        assert s.weights == m.weights and s.A == m.A

    def test_rank_one_blocks(self):
        s = direct_sum_fl(unit_fl(5, 3, 0, 2), unit_fl(5, 3, 1, 3))
        assert s.weights == (0, 1)
        assert s.A.to_lists() == [[2, 0], [0, 3]]

    def test_associative_up_to_permutation(self):
        ms = [unit_fl(5, 3, r, a) for r, a in ((0, 2), (1, 3), (1, 4))]
        left = direct_sum_fl(direct_sum_fl(ms[0], ms[1]), ms[2])
        right = direct_sum_fl(ms[0], direct_sum_fl(ms[1], ms[2]))
        assert left.weights == right.weights
        assert sorted(left.A.entries) == sorted(right.A.entries)

    def test_valid_closure(self):
        rng = random.Random(3)
        m1 = make_fl(7, 4, (0, 3), random_unit_matrix(rng, 2, 7, 4))
        m2 = make_fl(7, 4, (2,), random_unit_matrix(rng, 1, 7, 4))
        assert validate_fl(direct_sum_fl(m1, m2)).ok
        assert validate_fl(tensor_fl(m1, m2)).ok


@pytest.mark.parametrize("combine", [tensor_fl, direct_sum_fl])
@pytest.mark.parametrize("other", [unit_fl(5, 4, 0, 1), unit_fl(7, 3, 0, 1)], ids=["other N", "other p"])
def test_other_moduli_are_invalid_input(combine, other):
    with pytest.raises(InvalidInput, match="different moduli"):
        combine(unit_fl(5, 3, 0, 1), other)


class TestDualTwist:
    def test_rank_one(self):
        m = unit_fl(5, 4, 1, 2)
        d = dual_twist_fl(m, 3)
        assert d.weights == (2,)
        assert (d.A.entries[0] * 2) % 5**4 == 1

    def test_pairing_against_original(self):
        # tensoring with the original gives the rank-1 object (h, 1)
        m = unit_fl(5, 4, 1, 7)
        d = dual_twist_fl(m, 2)
        t = tensor_fl(m, d)
        assert t.weights == (2,)
        assert t.A.entries == (1,)

    def test_involution_distinct_weights(self):
        rng = random.Random(4)
        m = make_fl(7, 5, (0, 2, 4), random_unit_matrix(rng, 3, 7, 5))
        again = dual_twist_fl(dual_twist_fl(m, 5), 5)
        assert again.weights == m.weights
        assert again.A == m.A

    def test_involution_tied_weights(self):
        rng = random.Random(5)
        m = make_fl(7, 5, (1, 1, 3), random_unit_matrix(rng, 3, 7, 5))
        again = dual_twist_fl(dual_twist_fl(m, 4), 4)
        assert again.weights == m.weights
        # equality up to a weight-preserving permutation of the basis
        d = m.rank
        found = False
        for perm in itertools.permutations(range(d)):
            if any(m.weights[i] != m.weights[perm[i]] for i in range(d)):
                continue
            if all(
                again.A.at(perm[i], perm[j]) == m.A.at(i, j)
                for i in range(d)
                for j in range(d)
            ):
                found = True
                break
        assert found

    def test_unit_object(self):
        d = dual_twist_fl(unit_fl(5, 3, 0, 1), 2)
        assert d.weights == (2,) and d.A.entries == (1,)

    def test_bounds(self):
        with pytest.raises(WeightOverflow):
            dual_twist_fl(unit_fl(5, 3, 2, 1), 1)
        with pytest.raises(WeightOverflow):
            dual_twist_fl(unit_fl(5, 3, 1, 1), 4)

    def test_tensor_compatibility(self):
        # dual(m1 (x) m2, h1+h2) = dual(m1,h1) (x) dual(m2,h2) up to permutation
        rng = random.Random(6)
        m1 = make_fl(7, 4, (0, 1), random_unit_matrix(rng, 2, 7, 4))
        m2 = make_fl(7, 4, (1,), random_unit_matrix(rng, 1, 7, 4))
        lhs = dual_twist_fl(tensor_fl(m1, m2), 3)
        rhs = tensor_fl(dual_twist_fl(m1, 2), dual_twist_fl(m2, 1))
        assert lhs.weights == rhs.weights
        d = lhs.rank
        found = False
        for perm in itertools.permutations(range(d)):
            if any(lhs.weights[i] != lhs.weights[perm[i]] for i in range(d)):
                continue
            if all(
                rhs.A.at(perm[i], perm[j]) == lhs.A.at(i, j)
                for i in range(d)
                for j in range(d)
            ):
                found = True
                break
        assert found


class TestMakeFL:
    def test_labels_follow_the_weight_sort(self):
        # weights [2, 0] sort to (0, 2): the basis is reversed, and each
        # label stays with its vector, as each entry of A does
        m = make_fl(5, 4, [2, 0], PMatrix(2, 2, (1, 2, 3, 4), 5, 4), ["x", "y"])
        assert m.weights == (0, 2) and m.labels == ("y", "x")
        assert m.A == PMatrix(2, 2, (4, 3, 2, 1), 5, 4)

    def test_sort_matches_the_permutation_product(self):
        # the sorted A is P*A*P^T for the permutation matrix of the sort
        rng = random.Random(31)
        for weights in itertools.permutations((0, 1, 1, 3)):
            A = random_unit_matrix(rng, 4, 5, 6)
            m = make_fl(5, 6, weights, A, ["a", "b", "c", "d"])
            P = PMatrix(4, 4, tuple(int(m.sort_perm[k] == i) for i in range(4) for k in range(4)), 5, 6)
            assert m.A == P.mul(A).mul(P.transpose())
            assert [m.labels[m.sort_perm[k]] for k in range(4)] == ["a", "b", "c", "d"]

    def test_at_precision_is_the_data_read_at_that_precision(self):
        # unsorted weights with labels and entries above 5^4: lowering the
        # sorted module is sorting the data lowered
        rng = random.Random(41)
        for _ in range(10):
            entries = tuple(rng.randrange(5**6) for _ in range(9))
            m = make_fl(5, 4, [2, 0, 1], PMatrix(3, 3, entries, 5, 4), ["x", "y", "z"])
            for N in (1, 2, 4):
                assert m.at_precision(N) == make_fl(5, N, [2, 0, 1], PMatrix(3, 3, entries, 5, N), ["x", "y", "z"])
        with pytest.raises(InvalidInput, match="exceeds"):
            m.at_precision(5)
        with pytest.raises(InvalidInput, match="N >= 1"):
            m.at_precision(0)

    @pytest.mark.parametrize("labels", [[], ["x"], ["x", "y", "z"]])
    def test_labels_of_the_wrong_length_are_invalid_input(self, labels):
        with pytest.raises(InvalidInput):
            make_fl(5, 4, [2, 0], PMatrix(2, 2, (1, 2, 3, 4), 5, 4), labels)


class TestLatticeSub:
    def test_shapes(self):
        F = PMatrix.identity(2, 3, 4)
        L = LatticeSub(2, F, (0, None))
        assert L.included() == [0]
