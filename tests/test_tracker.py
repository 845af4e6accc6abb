import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from meanmotion.core import ExpPolynomial, UnivariateExpSum
from meanmotion.errors import (
    DegenerateInputError,
    EndpointZeroError,
)
from meanmotion.tracker import (
    arg_increment_pair,
    count_zeros_rectangle,
    locate_zeros,
    winding_number,
    zero_free_increments,
)
from conftest import random_poly

PI = math.pi


def random_sum(rng, nterms=3, freq_span=3.0):
    freqs = rng.uniform(-freq_span, freq_span, nterms)
    while np.min(np.abs(np.subtract.outer(freqs, freqs)) + np.eye(nterms)) < 0.05:
        freqs = rng.uniform(-freq_span, freq_span, nterms)
    amps = rng.normal(size=nterms) + 1j * rng.normal(size=nterms)
    return UnivariateExpSum.from_terms(list(zip(amps, freqs)))


class TestWindingNumber:
    def test_simple_zero_of_sin(self, sin_sum):
        assert winding_number(sin_sum, 0, 1.0) == 1

    def test_double_zero(self, cos_minus_one):
        assert winding_number(cos_minus_one, 0, 1.0) == 2

    def test_no_zero(self, sin_sum):
        assert winding_number(sin_sum, 3, 0.1) == 0

    def test_identically_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            winding_number(UnivariateExpSum.from_terms([]), 0, 1.0)

    def test_hurwitz_stability(self, rng=np.random.default_rng(21)):
        # relative 1e-8 amplitude perturbations change no certified winding
        for _ in range(10):
            U = random_sum(rng)
            center = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            w = winding_number(U, center, 0.8)
            pert = UnivariateExpSum.from_terms(
                [
                    (a * (1 + 1e-8 * rng.normal()), g)
                    for a, g in U.terms
                ]
            )
            assert winding_number(pert, center, 0.8) == w


class TestCountZerosRectangle:
    def test_sin_three_zeros(self, sin_sum):
        assert count_zeros_rectangle(sin_sum, (-4, 4, -1, 1)) == 3

    def test_exp_minus_one(self):
        U = UnivariateExpSum.from_terms([(1, Fraction(1)), (-1, Fraction(0))])
        assert count_zeros_rectangle(U, (-1, 1, -1, 1)) == 1

    def test_double_zero_counted_twice(self, cos_minus_one):
        assert count_zeros_rectangle(cos_minus_one, (-1, 1, -1, 1)) == 2


class TestLocateZeros:
    def test_sin(self, sin_sum):
        zeros = locate_zeros(sin_sum, (-1, 1))
        assert len(zeros) == 1
        assert zeros[0].location == pytest.approx(0.0, abs=1e-8)
        assert zeros[0].multiplicity == 1

    def test_double_zero(self, cos_minus_one):
        zeros = locate_zeros(cos_minus_one, (-1, 1))
        assert len(zeros) == 1
        assert zeros[0].multiplicity == 2
        assert zeros[0].location == pytest.approx(0.0, abs=1e-6)

    def test_nonvanishing(self):
        U = UnivariateExpSum.from_terms([(1, Fraction(1))])
        assert locate_zeros(U, (-10, 10)) == []

    def test_endpoint_zero_raises(self, sin_sum):
        with pytest.raises(EndpointZeroError):
            locate_zeros(sin_sum, (0.0, 1.0))

    def test_oracle_equivalence(self, rng=np.random.default_rng(5)):
        # located multiplicity totals match the rectangle count at small height
        for _ in range(20):
            U = random_sum(rng)
            a, b = -1.3, 1.7
            try:
                zeros = locate_zeros(U, (a, b))
                rect = count_zeros_rectangle(U, (a, b, -1e-5, 1e-5))
            except EndpointZeroError:
                continue
            assert sum(z.multiplicity for z in zeros) == rect

    def test_zero_count_bounded(self, rng=np.random.default_rng(17)):
        # fixed frequency set: max zero count over random amplitudes is
        # finite and stable under resampling (recorded, not closed-form)
        freqs = [-2.0, 0.5, 3.0]

        def max_count(seed):
            r = np.random.default_rng(seed)
            worst = 0
            for _ in range(200):
                amps = r.normal(size=3) + 1j * r.normal(size=3)
                amps /= np.linalg.norm(amps)
                U = UnivariateExpSum.from_terms(list(zip(amps, freqs)))
                try:
                    zeros = locate_zeros(U, (-1, 1))
                except EndpointZeroError:
                    continue
                worst = max(worst, sum(z.multiplicity for z in zeros))
            return worst

        m1, m2 = max_count(100), max_count(200)
        assert m1 <= 4 and m2 <= 4  # Nyquist-style ceiling for this span
        assert abs(m1 - m2) <= 1


class TestArgIncrement:
    def test_pure_rotation(self):
        U = UnivariateExpSum.from_terms([(1, Fraction(1))])
        for tr in arg_increment_pair(U, (0, 2 * PI)):
            assert tr.total_increment == pytest.approx(2 * PI, abs=1e-9)
            assert tr.zeros == ()
            assert tr.smooth_increment == pytest.approx(2 * PI, abs=1e-9)

    def test_sin_window_conventions(self, sin_sum):
        plus, minus = arg_increment_pair(sin_sum, (-0.5, 0.5))
        assert plus.total_increment == pytest.approx(-PI, abs=1e-10)
        assert minus.total_increment == pytest.approx(PI, abs=1e-10)
        assert plus.smooth_increment == pytest.approx(0.0, abs=1e-10)

    def test_double_jump(self, cos_minus_one):
        tr = arg_increment_pair(cos_minus_one, (-0.5, 0.5))[0]
        assert tr.total_increment == pytest.approx(-2 * PI, abs=1e-9)
        assert tr.smooth_increment == pytest.approx(0.0, abs=1e-9)

    def test_trace_invariants(self, sin_sum):
        tr = arg_increment_pair(sin_sum, (-0.5, 0.5))[1]
        assert tr.total_increment == pytest.approx(
            tr.smooth_increment + tr.jump_increment
        )
        assert tr.jump_increment == pytest.approx(PI)
        steps = np.diff(tr.samples[:, 1])
        # jumps live between spans; within spans steps stay below pi/2
        assert np.all((np.abs(steps) < PI / 2) | (np.abs(steps) > PI / 2 + 0.5))

    def test_convention_gap(self, rng=np.random.default_rng(9)):
        for _ in range(25):
            U = random_sum(rng)
            try:
                plus, minus = arg_increment_pair(U, (-1.1, 1.4))
            except EndpointZeroError:
                continue
            gap = minus.total_increment - plus.total_increment
            mult = sum(z.multiplicity for z in plus.zeros)
            assert gap == pytest.approx(2 * PI * mult, abs=1e-9)

    def test_zero_free_matches_quadrature(self, rng=np.random.default_rng(13)):
        # independent oracle: integral of Im(U'/U) by adaptive quadrature
        done = 0
        while done < 8:
            U = random_sum(rng)
            a, b = 0.2, 1.9
            if locate_zeros(U, (a, b)):
                continue
            plus, minus = arg_increment_pair(U, (a, b))
            assert plus.total_increment == minus.total_increment
            oracle, _ = quad(
                lambda s: (U.derivative(s) / U(s)).imag, a, b, limit=200
            )
            assert plus.total_increment == pytest.approx(oracle, abs=1e-6)
            done += 1

    def test_endpoint_zero(self, sin_sum):
        with pytest.raises(EndpointZeroError):
            arg_increment_pair(sin_sum, (0.0, 1.0))


def _dominant_poly(rng):
    # one coefficient outweighs the others' sum: no zeros anywhere
    pairs = [(4.0 * np.exp(1j * rng.uniform(0, 2 * PI)), ["1/2", "-1"])]
    pairs += [
        (0.3 * np.exp(1j * rng.uniform(0, 2 * PI)), e)
        for e in (["3/2", "1"], ["-1", "2/3"])
    ]
    return ExpPolynomial.from_pairs(2, pairs)


def _row_families(rng):
    """(name, P, y, B x S phases) of seeded rows, as the routes build them."""
    sin = ExpPolynomial.from_pairs(1, [(-0.5j, ["1"]), (0.5j, ["-1"])])
    yield "sin", sin, [0.0], np.zeros((64, 2))
    for _ in range(3):
        P = _dominant_poly(rng)
        yield "dominant", P, [0.0, 0.0], rng.uniform(0, 2 * PI, (64, 3))
    for p in (2, 3, 2, 3):
        P = random_poly(rng, p, int(rng.integers(4, 7)), max_num=6)
        y = rng.uniform(-0.5, 0.5, p)
        yield "offaxis", P, y, rng.uniform(0, 2 * PI, (64, len(P.terms)))


class TestZeroFreeIncrements:
    def test_matches_scalar_path(self, rng=np.random.default_rng(41)):
        certified = dict.fromkeys(("sin", "dominant", "offaxis"), 0)
        flagged = dict(certified)
        for name, P, y, phases in _row_families(rng):
            rows = P.line_rows(y, phases)
            centers = rng.uniform(-50.0, 50.0, len(phases))
            inc, ok = zero_free_increments(rows.amps, rows.freqs, centers)
            for b in np.flatnonzero(ok):
                c = centers[b]
                plus, minus = arg_increment_pair(
                    rows.restriction(b), (c - 0.5, c + 0.5)
                )
                assert plus.zeros == ()
                assert abs(plus.total_increment - inc[b]) <= 1e-12
                assert abs(minus.total_increment - inc[b]) <= 1e-12
            certified[name] += int(ok.sum())
            flagged[name] += int((~ok).sum())
        # every family exercises both outcomes (sin is a third zero windows)
        assert min(certified.values()) > 0
        assert flagged["sin"] > 0 and flagged["offaxis"] > 0

    def test_zero_windows_flagged(self, sin_sum, cos_minus_one):
        rng = np.random.default_rng(8)
        for U, spacing in ((sin_sum, PI), (cos_minus_one, 2 * PI)):
            zeros = spacing * rng.integers(-20, 21, 64)
            amps = np.array([[a for a, _ in U.terms]] * 64)
            freqs = [g for _, g in U.terms]
            for centers in (
                zeros + rng.uniform(-0.49, 0.49, 64),  # a zero inside
                zeros + rng.choice([-0.5, 0.5], 64),  # a zero at an endpoint
            ):
                _, ok = zero_free_increments(amps, freqs, centers)
                assert not ok.any()

    def test_rows_with_zeros_flagged(self, rng=np.random.default_rng(43)):
        # the converse, on general rows: a window the scalar path finds a
        # zero in, or on the edge of, is never certified
        with_zeros = 0
        for _, P, y, phases in _row_families(rng):
            rows = P.line_rows(y, phases)
            centers = rng.uniform(-50.0, 50.0, len(phases))
            _, ok = zero_free_increments(rows.amps, rows.freqs, centers)
            for b, c in enumerate(centers):
                try:
                    found = locate_zeros(rows.restriction(b), (c - 0.5, c + 0.5))
                except EndpointZeroError:
                    found = True
                if found:
                    with_zeros += 1
                    assert not ok[b]
        assert with_zeros > 0
