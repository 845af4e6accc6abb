from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanmotion import lattice
from meanmotion.core import ExpPolynomial
from meanmotion.errors import (
    DegenerateInputError,
    DimensionError,
    InternalConsistencyError,
    MembershipError,
)
from meanmotion.io import parse_polynomial
from meanmotion.lattice import coordinates, group_basis, hnf


def fv(*comps):
    return tuple(map(Fraction, comps))


def rational_rank(vectors):
    """Reference rank over Q by Gaussian elimination in Fractions."""
    m = [[Fraction(v) for v in row] for row in vectors]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def exponent_sets(draw):
    """Up to six exponents in p <= 3, with zero and dependent rows."""
    p = draw(st.integers(1, 3))
    comp = st.fractions(min_value=-3, max_value=3)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "zero", "dependent"]))
        if kind == "zero":
            rows.append((Fraction(0),) * p)
        elif kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
            rows.append(tuple(k * x + y for x, y in zip(a, b)))
        else:
            rows.append(tuple(draw(comp) for _ in range(p)))
    assume(any(any(r) for r in rows))
    return rows


class TestHnf:
    def test_identity(self):
        assert hnf([[1, 0], [0, 1]]) == ([[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def test_rows_have_integer_coordinates(self):
        mat = [[4, 6], [6, 9], [2, 5]]
        h, k = hnf(mat)
        assert h == [[2, 1], [0, 2]]
        assert k == [[2, 2], [3, 3], [1, 2]]
        assert [[k1 * a + k2 * b for a, b in zip(*h)] for k1, k2 in k] == mat


class TestGroupBasis:
    def test_single_exponent(self):
        b = group_basis([fv(1)])
        assert b.rank == 1
        assert b.basis_vectors[0] == (Fraction(1),)
        assert b.coords == ((1,),)

    def test_sin_exponents(self):
        b = group_basis([fv(1), fv(-1)])
        assert b.rank == 1
        assert b.basis_vectors[0] == (Fraction(1),)
        assert b.coords == ((1,), (-1,))

    def test_half_integer_two_dim(self):
        # brute-force-verified: (1/2,0) = l1 and (0,1) = l2 - 3*l1
        exps = [fv("1/2", 0), fv("3/2", 1), fv(0, 2)]
        # exponents are tuples of Fractions however they are given
        mixed = [("1/2", 0), (Fraction(3, 2), 1), (0, "2")]
        P = ExpPolynomial.from_pairs(2, [(1.0, e) for e in mixed])
        obj = {"dimension": 2, "terms": [
            {"re": 1.0, "im": 0.0, "exponent": [str(c) for c in e]} for e in mixed]}
        assert P.exponents == parse_polynomial(obj).exponents == tuple(exps)
        for given in (exps, P.exponents):
            b = group_basis(given)
            assert b.rank == 2
            assert b.basis_vectors == (
                (Fraction(1, 2), Fraction(0)),
                (Fraction(0), Fraction(1)),
            )
            assert b.coords == ((1, 0), (3, 1), (0, 2))
            for vectors in (P.exponents, b.basis_vectors):
                assert {type(v) for v in vectors} == {tuple}
                assert {type(c) for v in vectors for c in v} == {Fraction}

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
            assert tuple(recon) == e

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

        assert mu1 == combo([1, 0, 0])
        assert mu2 == combo([-3, 1, 0])

    def test_rank_matches_rational_rank(self):
        exps = [fv(1, 2, 3), fv(2, 4, 6), fv(0, 1, 1)]
        b = group_basis(exps)
        assert b.rank == rational_rank(exps) == 2

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

    @settings(max_examples=150, deadline=None)
    @given(exponent_sets())
    def test_generated_lattice_contains_inputs(self, exps):
        basis = group_basis(exps)
        assert basis.rank == rational_rank(exps)
        for e, row in zip(exps, basis.coords):
            assert len(row) == basis.rank
            rebuilt = tuple(
                sum((k * mu[c] for k, mu in zip(row, basis.basis_vectors)),
                    Fraction(0))
                for c in range(len(e))
            )
            assert rebuilt == e
            assert coordinates(e, basis) == row

    def test_route_does_not_solve_coordinates(self, monkeypatch):
        # the coordinates come from the HNF itself, so lattice.coordinates
        # (which core.lift runs) stays an independent oracle
        exps = [fv("1/2", 0), fv("3/2", 1), fv(0, 2)]

        def refuse(*args):
            raise AssertionError("group_basis solved a coordinate")

        monkeypatch.setattr(lattice, "coordinates", refuse)
        assert group_basis(exps).coords == ((1, 0), (3, 1), (0, 2))

    def test_wrong_coordinates_are_caught(self, monkeypatch):
        # the integer check that K . H rebuilds the exponent matrix catches
        # an HNF whose coordinates are off by one
        def off_by_one(matrix):
            h, k = hnf(matrix)
            k[1][0] += 1
            return h, k

        monkeypatch.setattr(lattice, "hnf", off_by_one)
        with pytest.raises(InternalConsistencyError, match=r"\[4, 1\] do not rebuild"):
            group_basis([fv("1/2", 0), fv("3/2", 1), fv(0, 2)])


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

    def test_remainder_outside_the_span(self):
        # (0, 1) has coordinate 0 on the basis (1, 0) and a nonzero remainder
        with pytest.raises(MembershipError, match="is not in the lattice$"):
            coordinates(fv(0, 1), group_basis([fv(1, 0)]))


@pytest.mark.parametrize("call, error, match", [
    (lambda: hnf([]), DegenerateInputError, "empty matrix"),
    (lambda: group_basis([]), DegenerateInputError, "empty exponent list"),
    (lambda: group_basis([fv(1), fv(1, 2)]), DimensionError, "mixed dimensions"),
    (lambda: coordinates(fv(1, 2), group_basis([fv(1)])), DimensionError, "length mismatch"),
], ids=["hnf-empty", "basis-empty", "basis-mixed", "coordinates-length"])
def test_malformed_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
