import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from meanmotion import tracker
from meanmotion.core import ExpPolynomial, UnivariateExpSum
from meanmotion.errors import (
    DegenerateInputError,
    EndpointZeroError,
    SingularContourError,
    TrackingError,
)
from meanmotion.tracker import (
    _COARSE_WIDTH,
    _isolate,
    _isolate_rows,
    arg_increment_pair,
    count_zeros_rectangle,
    locate_zeros,
    unit_increments,
    winding_number,
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


def _triple():
    # (e^{is} - 1)^3 expanded: a triple zero at every multiple of 2 pi
    return UnivariateExpSum.from_terms(
        [(1, Fraction(3)), (-3, Fraction(2)), (3, Fraction(1)), (-1, Fraction(0))]
    )


def _isolated(amps, freqs, centers):
    """The clusters _isolate_rows finds in the unit windows at centers."""
    g = np.array([float(f) for f in freqs])
    shifted = amps * np.exp(1j * np.multiply.outer(centers, g))
    return _isolate_rows(shifted, g, centers)[0]


def _offaxis_row(seed, p, b):
    """Row b of 64 seeded lines of a p-variate sum: its restriction and
    unit window, which holds a cluster _isolate_rows isolates."""
    rng = np.random.default_rng(seed)
    P = random_poly(rng, p, 5, max_num=6)
    y = rng.uniform(-0.3, 0.3, p)
    rows = P.line_rows(y, rng.uniform(0, 2 * PI, (64, len(P.terms))))
    centers = rng.uniform(-20, 20, 64)
    assert _isolated(rows.amps, rows.freqs, centers)[b]
    c = float(centers[b])
    return rows.restriction(b), (c - 0.5, c + 0.5)


# arg_increment_pair's (plus, minus, zeros) on seeded windows, as the
# scalar tracker computed them one Newton iteration, endpoint offset and
# span at a time. Multiple zeros are located only to the rounding noise of
# the sum, so their locations pin the Newton arithmetic itself.
PINNED = [
    ("sin", (-0.2, 0.8), -PI, PI, [(0.0, 1)]),
    ("sin", (2.9, 3.9), -PI, PI, [(3.141592653589793, 1)]),
    ("sin", (-7.2, -6.2), -PI, PI, [(-6.283185307179586, 1)]),
    ("sin", (9.1, 10.1), -PI, PI, [(9.42477796076938, 1)]),
    ("sin", (1.0, 2.0), 0.0, 0.0, []),
    ("sin", (-4.0, 7.3), -4 * PI, 4 * PI, [
        (-3.141592653589793, 1), (0.0, 1),
        (3.141592653589793, 1), (6.283185307179586, 1),
    ]),
    ("double", (-0.3, 0.7), -2 * PI, 2 * PI, [(-8.583085794183765e-09, 2)]),
    ("double", (5.5, 6.5), -2 * PI, 2 * PI, [(6.283185296825016, 2)]),
    ("triple", (-0.75, 0.25), -7.924777960769384, 10.924777960769376,
     [(-1.0209250019897455e-09, 3)]),
    ("triple", (-0.7, 0.3), -7.924777960769392, 10.924777960769367,
     [(1.2082756785527322e-09, 3)]),
    # off-axis zeros near the axis: one count-1 cluster each, dropped
    ((7, 2, 14), None, -1.6336112010471229, -1.6336112010471229, []),
    ((7, 2, 21), None, 4.340067188269012, 4.340067188269012, []),
    ((9, 3, 8), None, 4.773909799989486, 4.773909799989486, []),
    ((9, 3, 50), None, 6.166160490251203, 6.166160490251203, []),
]


@pytest.mark.parametrize("which, interval, plus, minus, zeros", PINNED)
def test_pinned_increments(which, interval, plus, minus, zeros,
                           sin_sum, cos_minus_one):
    if isinstance(which, tuple):
        U, interval = _offaxis_row(*which)
    else:
        U = {"sin": sin_sum, "double": cos_minus_one, "triple": _triple()}[which]
    tp, tm = arg_increment_pair(U, interval)
    assert tp.total_increment == pytest.approx(plus, abs=1e-12)
    assert tm.total_increment == pytest.approx(minus, abs=1e-12)
    got = [(z.location, z.multiplicity) for z in tp.zeros]
    assert [m for _, m in got] == [m for _, m in zeros]
    assert [x for x, _ in got] == pytest.approx([x for x, _ in zeros], abs=1e-12)


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


class TestUnitIncrements:
    def test_taken_rows_match_scalar_path(self, rng=np.random.default_rng(41)):
        # a row the batch takes has arg_increment_pair's increments, and a
        # row on whose window arg_increment_pair raises is not taken
        taken = dict.fromkeys(("sin", "dominant", "offaxis"), 0)
        with_zeros = past_zero = 0  # taken rows with a real zero, or past one
        for name, P, y, phases in _row_families(rng):
            rows = P.line_rows(y, phases)
            centers = rng.uniform(-50.0, 50.0, len(phases))
            plus, minus, done = unit_increments(
                rows.amps, rows.freqs, centers, rows.floor
            )
            for b, c in enumerate(centers):
                U = rows.restriction(b)
                try:
                    tp, tm = arg_increment_pair(U, (c - 0.5, c + 0.5))
                except (EndpointZeroError, SingularContourError, TrackingError):
                    assert not done[b]
                    continue
                if not done[b]:
                    continue
                assert abs(tp.total_increment - plus[b]) <= 1e-12
                assert abs(tm.total_increment - minus[b]) <= 1e-12
                with_zeros += tp.zeros != ()
                if name == "offaxis" and not tp.zeros:
                    rect = (c - 0.5, c + 0.5, -0.5, 0.5)
                    past_zero += count_zeros_rectangle(U, rect) != 0
            taken[name] += int(done.sum())
        # rows of every family are taken, sin's real zeros among them, and
        # off-axis rows past zeros near the axis
        assert min(taken.values()) > 0
        assert with_zeros > 0 and past_zero > 0

    def test_rows_with_zeros(self, rng=np.random.default_rng(43)):
        # a window the scalar path finds a zero in, or on the edge of, is
        # taken only where arg_increment_pair resolves it, with its increments
        with_zeros = taken = 0
        for _, P, y, phases in _row_families(rng):
            rows = P.line_rows(y, phases)
            centers = rng.uniform(-50.0, 50.0, len(phases))
            plus, minus, done = unit_increments(
                rows.amps, rows.freqs, centers, rows.floor
            )
            for b, c in enumerate(centers):
                U, window = rows.restriction(b), (c - 0.5, c + 0.5)
                try:
                    found = locate_zeros(U, window)
                except EndpointZeroError:
                    found = True
                if not found:
                    continue
                with_zeros += 1
                try:
                    tp, tm = arg_increment_pair(U, window)
                except (EndpointZeroError, SingularContourError, TrackingError):
                    assert not done[b]
                    continue
                if done[b]:
                    taken += 1
                    assert abs(tp.total_increment - plus[b]) <= 1e-12
                    assert abs(tm.total_increment - minus[b]) <= 1e-12
        assert with_zeros > 0 and taken > 0

    @pytest.mark.parametrize("which", ["sin", "double"])
    def test_zero_windows(self, which, sin_sum, cos_minus_one):
        U, m = (sin_sum, 1) if which == "sin" else (cos_minus_one, 2)
        spacing = PI if which == "sin" else 2 * PI
        rng = np.random.default_rng(8)
        zeros = spacing * rng.integers(-20, 21, 64)
        amps = np.array([[a for a, _ in U.terms]] * 64)
        freqs = [g for _, g in U.terms]
        # a zero of multiplicity m inside: minus - plus = 2 pi m
        centers = zeros + rng.uniform(-0.49, 0.49, 64)
        plus, minus, done = unit_increments(amps, freqs, centers, 0.0)
        assert done.all()
        assert minus - plus == pytest.approx(2 * PI * m, abs=1e-12)
        # a zero at an endpoint: arg_increment_pair raises, nothing is taken
        centers = zeros + rng.choice([-0.5, 0.5], 64)
        assert not unit_increments(amps, freqs, centers, 0.0)[2].any()
        for c in centers:
            with pytest.raises(EndpointZeroError):
                arg_increment_pair(U, (c - 0.5, c + 0.5))


def _first_pass_isolate(U, a, b, monkeypatch):
    """_isolate with one height and one split: its clusters, or None where
    _isolate would need another height or split."""
    with monkeypatch.context() as m:
        m.setattr(tracker, "_H_FACTORS", (1.0,))
        m.setattr(tracker, "_SPLIT_OFFSETS", (0.5,))
        try:
            return _isolate(U, a, b, 0.5, _COARSE_WIDTH)
        except (SingularContourError, TrackingError):
            return None


class TestIsolateRows:
    @staticmethod
    def check(amps, freqs, centers, monkeypatch):
        """Batched clusters equal the scalar ones row by row; returns how
        many rows were isolated in the batch and how many were returned."""
        got = _isolated(amps, freqs, centers)
        for b, c in enumerate(centers):
            U = UnivariateExpSum(tuple(zip(amps[b], freqs)))
            want = _first_pass_isolate(U, c - 0.5, c + 0.5, monkeypatch)
            assert got[b] == want
            if want is not None:
                assert want == _isolate(U, c - 0.5, c + 0.5, 0.5, _COARSE_WIDTH)
        isolated = sum(c is not None for c in got)
        return isolated, len(got) - isolated

    @staticmethod
    def rows_of(U, n):
        return np.array([[a for a, _ in U.terms]] * n), [g for _, g in U.terms]

    @pytest.mark.parametrize("which", ["sin", "double"])
    def test_real_zeros(self, which, sin_sum, cos_minus_one, monkeypatch):
        U, spacing = (sin_sum, PI) if which == "sin" else (cos_minus_one, 2 * PI)
        rng = np.random.default_rng(61)
        amps, freqs = self.rows_of(U, 64)
        zeros = spacing * rng.integers(-20, 21, 64)
        centers = zeros + rng.uniform(-0.49, 0.49, 64)
        # a double zero near a side of a small rectangle needs its steps
        # bisected, which the batch does too
        isolated, _ = self.check(amps, freqs, centers, monkeypatch)
        assert isolated >= 60

    def test_zero_at_or_near_edge(self, sin_sum, monkeypatch):
        # zeros on the window's edge or on a split line need the scalar path;
        # zeros just inside the edge do not; all sit in one batch
        rng = np.random.default_rng(62)
        amps, freqs = self.rows_of(sin_sum, 64)
        zeros = PI * rng.integers(-20, 21, 64)
        offsets = np.tile([0.5, -0.5, 0.0, 0.499, -0.497, 0.3, -0.2, 0.1], 8)
        isolated, returned = self.check(amps, freqs, zeros + offsets, monkeypatch)
        assert isolated >= 40 and returned >= 24

    def test_offaxis_rows(self, monkeypatch):
        rng = np.random.default_rng(63)
        isolated = returned = 0
        for name, P, y, phases in _row_families(rng):
            if name != "offaxis":
                continue
            rows = P.line_rows(y, phases)
            centers = rng.uniform(-50.0, 50.0, len(phases))
            i, r = self.check(rows.amps, rows.freqs, centers, monkeypatch)
            isolated, returned = isolated + i, returned + r
        # step-rule failures are refined in the batch, so few rows go back
        assert isolated > 0 and returned <= 4
