from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanmotion.core import FrequencyVector
from meanmotion.errors import DegenerateInputError, MembershipError
from meanmotion.lattice import (
    coordinates,
    group_basis,
    hnf,
    rational_rank,
)


def fv(*comps):
    return FrequencyVector.of(*comps)


class TestHnf:
    def test_identity(self):
        assert hnf([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]

    def test_rows_have_integer_coordinates(self):
        mat = [[4, 6], [6, 9], [2, 5]]
        h = hnf(mat)
        assert h == [[2, 1], [0, 2]]
        # upper-triangular h: solve row = k1 * h[0] + k2 * h[1] exactly
        for a, b in mat:
            k1 = Fraction(a, h[0][0])
            k2 = Fraction(b - k1 * h[0][1], h[1][1])
            assert k1.denominator == 1 and k2.denominator == 1


class TestGroupBasis:
    def test_single_exponent(self):
        b = group_basis([fv(1)])
        assert b.rank == 1
        assert b.basis_vectors[0].components == (Fraction(1),)
        assert b.coords == ((1,),)

    def test_sin_exponents(self):
        b = group_basis([fv(1), fv(-1)])
        assert b.rank == 1
        assert b.basis_vectors[0].components == (Fraction(1),)
        assert b.coords == ((1,), (-1,))

    def test_half_integer_two_dim(self):
        # brute-force-verified: (1/2,0) = l1 and (0,1) = l2 - 3*l1
        exps = [fv("1/2", 0), fv("3/2", 1), fv(0, 2)]
        b = group_basis(exps)
        assert b.rank == 2
        assert [m.components for m in b.basis_vectors] == [
            (Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ]
        assert b.coords == ((1, 0), (3, 1), (0, 2))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            group_basis([fv(0, 0)])

    def test_reconstruction_exact(self):
        exps = [fv("2/3", "1/5"), fv("-1/3", "7/5"), fv("4/3", "-2/5")]
        b = group_basis(exps)
        for e, row in zip(exps, b.coords):
            recon = [
                sum(
                    (k * mu[c] for k, mu in zip(row, b.basis_vectors)),
                    Fraction(0),
                )
                for c in range(2)
            ]
            assert tuple(recon) == e.components

    def test_minimality_explicit_case(self):
        # each basis vector is an integer combination of the inputs
        exps = [fv("1/2", 0), fv("3/2", 1), fv(0, 2)]
        b = group_basis(exps)
        mu1, mu2 = b.basis_vectors
        l1, l2, _ = exps

        def combo(cs):
            return tuple(
                sum((k * e[c] for k, e in zip(cs, exps)), Fraction(0))
                for c in range(2)
            )

        assert mu1.components == combo([1, 0, 0])
        assert mu2.components == combo([-3, 1, 0])

    def test_rank_matches_rational_rank(self):
        exps = [fv(1, 2, 3), fv(2, 4, 6), fv(0, 1, 1)]
        b = group_basis(exps)
        assert b.rank == rational_rank([e.components for e in exps]) == 2

    def test_permutation_invariance(self):
        exps = [fv("1/2", 0), fv("3/2", 1), fv(0, 2)]
        base = group_basis(exps)
        for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            other = group_basis([exps[i] for i in perm])
            assert other.rank == base.rank
            # same lattice: every vector of each basis lies in the other
            for mu in other.basis_vectors:
                coordinates(mu, base)
            for mu in base.basis_vectors:
                coordinates(mu, other)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-3, max_value=3),
                st.fractions(min_value=-3, max_value=3),
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    def test_generated_lattice_contains_inputs(self, comps):
        exps = [FrequencyVector((a, b)) for a, b in comps]
        if all(e.is_zero for e in exps):
            return
        basis = group_basis(exps)
        for e, row in zip(exps, basis.coords):
            assert coordinates(e, basis) == row


class TestCoordinates:
    def test_basis_vector_itself(self):
        b = group_basis([fv("1/2", 0), fv("3/2", 1)])
        assert coordinates(b.basis_vectors[0], b) == (1, 0)

    def test_derived_example(self):
        b = group_basis([fv("1/2", 0), fv("3/2", 1), fv(0, 2)])
        assert coordinates(fv("3/2", 1), b) == (3, 1)

    def test_membership_error(self):
        b = group_basis([fv("1/2", 0), fv(0, 1)])
        with pytest.raises(MembershipError):
            coordinates(fv("1/3", 0), b)
