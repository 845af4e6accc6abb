import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanmotion.core import (
    ExpPolynomial,
    ExpTerm,
    LiftedPolynomial,
    UnivariateExpSum,
    _check_shift_identity,
    lift,
)
from meanmotion.errors import (
    DegenerateInputError,
    DimensionError,
    InternalConsistencyError,
    MembershipError,
)
from meanmotion.lattice import group_basis


class TestEvaluate:
    def test_identity_case(self):
        P = ExpPolynomial.from_pairs(1, [(1.0, ["1"])])
        assert P.evaluate([0j]) == pytest.approx(1 + 0j)

    def test_sin_at_half_pi(self, sin_poly):
        assert sin_poly.evaluate([math.pi / 2]) == pytest.approx(1 + 0j)

    def test_exp_at_i_pi(self):
        P = ExpPolynomial.from_pairs(1, [(1.0, ["1"])])
        assert P.evaluate([1j * math.pi]) == pytest.approx(
            math.exp(-math.pi), rel=1e-12
        )

    def test_dimension_mismatch(self, sin_poly):
        with pytest.raises(DimensionError):
            sin_poly.evaluate([0j, 0j])

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(DegenerateInputError):
            ExpPolynomial.from_pairs(1, [(1.0, ["1"]), (-1.0, ["1"])])

    def test_non_finite_coefficient_rejected(self):
        for c in (complex("nan"), complex("inf"), complex(0, float("-inf"))):
            with pytest.raises(DegenerateInputError):
                ExpTerm(c, (Fraction(1),))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(
                    min_magnitude=1e-3, max_magnitude=10, allow_nan=False
                ),
                st.fractions(min_value=-5, max_value=5),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda t: t[1],
        ),
        st.lists(
            st.tuples(
                st.complex_numbers(
                    min_magnitude=1e-3, max_magnitude=10, allow_nan=False
                ),
                st.fractions(min_value=6, max_value=11),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda t: t[1],
        ),
        st.floats(-3, 3),
    )
    def test_linear_in_coefficients(self, terms1, terms2, x):
        # union of disjoint-exponent polynomials evaluates additively
        P1 = ExpPolynomial.from_pairs(1, [(c, [g]) for c, g in terms1])
        P2 = ExpPolynomial.from_pairs(1, [(c, [g]) for c, g in terms2])
        P = ExpPolynomial.from_pairs(
            1, [(c, [g]) for c, g in terms1 + terms2]
        )
        z = [x + 0.1j]
        lhs = P.evaluate(z)
        rhs = P1.evaluate(z) + P2.evaluate(z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_triangle_inequality_bound(self, rng=np.random.default_rng(7)):
        P = ExpPolynomial.from_pairs(
            2, [(1 + 2j, ["1/2", "1"]), (0.3 - 1j, ["-1", "2"]), (2.0, ["0", "-1/3"])]
        )
        y = np.array([0.4, -0.7])
        y_exact = (Fraction(2, 5), Fraction(-7, 10))
        bound = sum(
            abs(t.coefficient)
            * math.exp(-float(sum(c * v for c, v in zip(t.exponent, y_exact))))
            for t in P.terms
        )
        for _ in range(50):
            x = rng.uniform(-20, 20, 2)
            val = abs(P.evaluate(x + 1j * y))
            assert val <= bound * (1 + 1e-12)


class TestRestrictLine:
    def test_direct_substitution(self):
        P = ExpPolynomial.from_pairs(2, [(1.0, ["1", "1"]), (1.0, ["2", "-1"])])
        U = P.restrict_line([0j, 1j])
        amps = {g: a for a, g in U.terms}
        assert amps[Fraction(1)] == pytest.approx(math.exp(-1))
        assert amps[Fraction(2)] == pytest.approx(math.exp(1))

    def test_equal_frequency_grouping(self):
        P = ExpPolynomial.from_pairs(2, [(1.0, ["1", "0"]), (1.0, ["1", "1"])])
        U = P.restrict_line([0j, 0j])
        assert len(U.terms) == 1
        a, g = U.terms[0]
        assert a == pytest.approx(2.0)
        assert g == Fraction(1)

    def test_sin_at_height_one(self, sin_poly):
        U = sin_poly.restrict_line([1j])
        amps = {g: a for a, g in U.terms}
        assert amps[Fraction(1)] == pytest.approx(math.exp(-1) / 2j)
        assert amps[Fraction(-1)] == pytest.approx(-math.exp(1) / 2j)

    def test_agrees_with_evaluate(self, rng=np.random.default_rng(11)):
        P = ExpPolynomial.from_pairs(
            2,
            [(1 - 0.5j, ["1/2", "2"]), (0.7j, ["-1", "1/3"]), (2.0, ["3", "0"])],
        )
        base = [0.3 + 0.2j, -1.1 + 0.4j]
        U = P.restrict_line(base)
        for s in rng.uniform(-10, 10, 100):
            direct = P.evaluate([base[0] + s, base[1]])
            val = U(s)
            assert abs(val - direct) <= 1e-10 * max(abs(direct), 1.0)

    def test_full_cancellation_gives_empty_sum(self):
        P = ExpPolynomial.from_pairs(2, [(1.0, ["1", "0"]), (-1.0, ["1", "1"])])
        U = P.restrict_line([0j, 0j])  # both terms land on frequency 1
        assert U.is_identically_zero

    def test_sin_restriction_never_zero(self, sin_poly):
        for y in (0.0, 1.0, -2.5):
            assert not sin_poly.restrict_line([1j * y]).is_identically_zero

    @pytest.mark.parametrize("y", [800.0, -800.0])
    def test_overflow_is_an_error(self, y):
        # e^{is} + 2 + e^{-is}: exp(800) overflows; no silent zero sum
        P = ExpPolynomial.from_pairs(1, [(1.0, ["1"]), (2.0, ["0"]), (1.0, ["-1"])])
        with pytest.raises(DegenerateInputError, match="line_rows"):
            P.restrict_line([1j * y])


class TestLineRows:
    def test_rows_are_scaled_restrictions(self, rng=np.random.default_rng(12)):
        # each row is restrict_line along e1 divided by one positive constant,
        # with the same merged frequencies and the same dropped terms
        P = ExpPolynomial.from_pairs(
            3,
            [(1 - 0.5j, ["1/2", "2", "0"]), (0.7j, ["1/2", "1/3", "1"]),
             (2.0, ["3", "0", "-1"]), (-2.0, ["3", "0", "0"])],
        )
        y = [0.4, -0.3, 0.0]
        xperp = rng.uniform(-5, 5, (6, 2))
        xperp[0] = 0.0  # the last two terms cancel on this line
        rows = P.line_rows(y, xperp @ P._lam[:, 1:].T)
        scales = set()
        for b, (x2, x3) in enumerate(xperp):
            want = P.restrict_line([1j * y[0], x2 + 1j * y[1], x3 + 1j * y[2]])
            got = rows.restriction(b)
            assert [g for _, g in got.terms] == [g for _, g in want.terms]
            ratio = np.array([a for a, _ in want.terms]) / np.array(
                [a for a, _ in got.terms]
            )
            assert np.allclose(ratio, ratio[0].real, rtol=1e-12, atol=0)
            scales.add(round(ratio[0].real, 9))
        assert len(scales) == 1 and scales.pop() > 0
        assert len(rows.restriction(0).terms) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_height_is_an_error(self, bad):
        P = ExpPolynomial.from_pairs(2, [(1.0, ["1", "0"]), (2.0, ["0", "1"])])
        with pytest.raises(DegenerateInputError, match="not finite"):
            P.line_rows([0.0, bad], np.zeros((1, 2)))


class TestLift:
    def test_sin_shift_identity(self, sin_poly):
        basis = group_basis(sin_poly.exponents)
        F = lift(sin_poly, basis)
        for x in (0.3, -1.7, 2.2):
            for t in (0.0, 0.9):
                lhs = F.evaluate([t], [x])
                assert lhs == pytest.approx(math.sin(x + t), abs=1e-12)

    def test_pure_exponential(self):
        P = ExpPolynomial.from_pairs(1, [(1.0, ["1"])])
        F = lift(P, group_basis(P.exponents))
        assert F.evaluate([0.0], [1.3]) == pytest.approx(P.evaluate([1.3]))

    def test_half_integer_exponents(self):
        P = ExpPolynomial.from_pairs(1, [(1.0, ["1/2"]), (2.0, ["3/2"])])
        basis = group_basis(P.exponents)
        F = lift(P, basis)
        assert F.coords == ((1,), (3,))
        mu = float(basis.basis_vectors[0][0])
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, t = rng.uniform(-5, 5, 2)
            lhs = F.evaluate([t], [mu * x])
            rhs = P.evaluate([x + t])
            assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)

    def test_large_exponent_checked_without_overflow(self):
        P = ExpPolynomial.from_pairs(1, [(1.0, ["1000"]), (2.0, ["-1"])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = lift(P, group_basis(P.exponents))
        assert F.coords == ((1000,), (-1,))

    def test_corrupted_coordinates_caught_at_large_exponent(self):
        P = ExpPolynomial.from_pairs(1, [(1.0, ["1000"]), (2.0, ["-1"])])
        F = lift(P, group_basis(P.exponents))
        bad = LiftedPolynomial(P, F.basis_vectors, ((999,), (-1,)), 1)
        with pytest.raises(InternalConsistencyError):
            _check_shift_identity(bad)

    def test_exponent_outside_the_lattice_rejected(self, sin_poly):
        # 1 is not an integer multiple of 2
        with pytest.raises(MembershipError):
            lift(sin_poly, group_basis([(Fraction(2),)]))

    def test_mismatched_basis_rejected(self, sin_poly):
        other = ExpPolynomial.from_pairs(1, [(1.0, ["1/3"])])
        basis = group_basis(other.exponents)
        F = lift(sin_poly, basis)  # {1,-1} lies inside (1/3)Z, so this works
        assert F.coords == ((3,), (-3,))


class TestUnivariateExpSum:
    def test_empty_is_identically_zero(self):
        assert UnivariateExpSum.from_terms([]).is_identically_zero

    def test_single_term_not_zero(self):
        assert not UnivariateExpSum.from_terms([(2, Fraction(1))]).is_identically_zero

    def test_merge_drops_cancelled(self):
        U = UnivariateExpSum.from_terms([(1.0, Fraction(1)), (-1.0, Fraction(1))])
        assert U.is_identically_zero

    def test_float_frequency_merge(self):
        # floats merge by equality, numpy scalars included; no tolerance
        U = UnivariateExpSum.from_terms([(1.0, 0.5), (2.0, np.float64(0.5))])
        assert U.terms == ((3.0, 0.5),)
        U = UnivariateExpSum.from_terms([(1.0, 0.5), (2.0, 0.5 + 1e-15)])
        assert U.terms == ((1.0, 0.5), (2.0, 0.5 + 1e-15))

    def test_derivative(self):
        U = UnivariateExpSum.from_terms([(1.0, Fraction(2))])
        s = 0.37
        assert U.derivative(s) == pytest.approx(2j * np.exp(2j * s))

    def test_leading_coefficient_at_simple_zero(self, sin_sum):
        # sin'(0) = 1
        assert sin_sum.leading_coefficient(0.0, 1) == pytest.approx(1.0)
