import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv
from scipy.integrate import quad

from meanmotion import tracker
from meanmotion.cli import main
from meanmotion.core import ExpPolynomial, UnivariateExpSum, lift
from meanmotion.errors import (
    DegenerateInputError,
    EndpointZeroError,
    SingularContourError,
    TrackingError,
)
from meanmotion.tracker import (
    arg_increment_pair,
    count_zeros_rectangle,
    locate_zeros,
    unit_increments,
    winding_number,
)
from meanmotion.io import write_polynomial_file
from meanmotion.lattice import group_basis
from meanmotion.motion import WindowSchedule, compare_estimators
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


def power_sum(m):
    """(e^{is} - 1)^m: an m-fold zero at s = 0 and every multiple of 2 pi."""
    return UnivariateExpSum.from_terms(
        [(math.comb(m, k) * (-1) ** (m - k), Fraction(k)) for k in range(m + 1)]
    )


# circles of radius h about 0, and squares of half-width h about 0
CONTOURS = {f"{kind}-{h}": (kind, h) for kind in ("circle", "square") for h in (0.05, 0.3, 1.0)}


def contour_count(U, contour):
    kind, h = CONTOURS[contour]
    if kind == "circle":
        return winding_number(U, 0, h)
    return count_zeros_rectangle(U, (-h, h, -h, h))


class TestContourContract:
    """Both oracles give a certified count for the contour given, or raise."""

    def test_contour_through_a_zero_is_refused(self, sin_sum):
        # the circle of radius pi passes the zeros +-pi; the count of a
        # nearby circle is not an answer for it
        with pytest.raises(SingularContourError):
            winding_number(sin_sum, 0, PI)
        with pytest.raises(SingularContourError):
            count_zeros_rectangle(sin_sum, (-PI, 1, -1, 1))

    @pytest.mark.parametrize("contour", CONTOURS)
    def test_rounding_noise_never_winds(self, contour):
        # the 52 terms of (e^{is} - 1)^51 have moduli summing to 2^51 on the
        # axis, and |q| falls below 1e-9 of that on every contour: the
        # samples there are rounding noise, which can wind any number of times
        with pytest.raises(SingularContourError):
            contour_count(power_sum(51), contour)

    @pytest.mark.parametrize("contour", CONTOURS)
    def test_triple_zero_counted_on_every_contour(self, contour):
        assert contour_count(power_sum(3), contour) == 3

    @pytest.mark.parametrize("contour", ["circle-1.0", "square-1.0"])
    def test_twenty_fold_zero_counted_on_wide_contours(self, contour):
        assert contour_count(power_sum(20), contour) == 20

    def test_winding_refusals(self, sin_sum):
        with pytest.raises(TrackingError, match="winds -1.000"):  # clockwise
            tracker._winding(sin_sum, lambda t: np.exp(-1j * t), np.linspace(0, 2 * PI, 65))
        with pytest.raises(TrackingError, match="winds 0.500"):  # not closed
            tracker._winding(sin_sum, lambda t: np.exp(1j * t), np.linspace(0, PI, 65))
        # a jump in the path turns its step by 2 radians however it is bisected
        jump = lambda t: np.where(t < 0.5, 1.0, -1.0) + 0j
        with pytest.raises(SingularContourError, match="still fail after 24"):
            tracker._winding(sin_sum, jump, np.linspace(0, 1, 3))

    @pytest.mark.parametrize("count, error, match", [
        (lambda U: winding_number(U, 0, 0.0), ValueError, "radius"),
        (lambda U: winding_number(U, 0, -1.0), ValueError, "radius"),
        (lambda U: count_zeros_rectangle(U, (1, 1, -1, 1)), ValueError, "extent"),
        (lambda U: count_zeros_rectangle(U, (-1, 1, 1, 1)), ValueError, "extent"),
        (lambda U: locate_zeros(U, (1.0, 1.0)), ValueError, "empty"),
        (lambda U: arg_increment_pair(U, (1.0, 0.5)), ValueError, "empty"),
    ], ids=["radius-0", "radius-negative", "rect-flat-s", "rect-flat-t",
            "scan-empty", "track-reversed"])
    def test_degenerate_contour_rejected(self, sin_sum, count, error, match):
        with pytest.raises(error, match=match):
            count(sin_sum)

    @pytest.mark.parametrize("count", [
        lambda U: count_zeros_rectangle(U, (-1, 1, -1, 1)),
        lambda U: locate_zeros(U, (-1.0, 1.0)),
    ], ids=["rect", "scan"])
    def test_identically_zero_sum_rejected(self, count):
        with pytest.raises(DegenerateInputError, match="identically-zero"):
            count(UnivariateExpSum.from_terms([]))


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

    def test_close_zeros_kept_apart(self):
        # (e^{is} - e^{id})(e^{is} - e^{-id}): simple zeros at +-d, both in
        # one step of the first sampling, are told apart by finer scans,
        # down to 64 times the radius 2e-6 over which rounding would split
        # a double zero there
        for d in (5e-3, 5e-4, 5e-5):
            a, b = np.exp(1j * d), np.exp(-1j * d)
            U = UnivariateExpSum.from_terms([(1, 2.0), (-(a + b), 1.0), (a * b, 0.0)])
            zeros = locate_zeros(U, (-0.5, 0.5))
            assert [z.multiplicity for z in zeros] == [1, 1]
            assert [z.location for z in zeros] == pytest.approx([-d, d], abs=1e-9)

    def test_nonvanishing(self):
        U = UnivariateExpSum.from_terms([(1, Fraction(1))])
        assert locate_zeros(U, (-10, 10)) == []

    @pytest.mark.parametrize("interval", [(10000.5, 11000.5), (20000.5, 21000.5)],
                             ids=["1e4", "2e4"])
    def test_far_from_origin(self, sin_sum, interval):
        # the zeros k pi stay simple far from 0: step lengths come from the
        # local parameter, not from positions near 2e4, whose rounding
        # would exceed the step floor
        k = np.arange(math.ceil(interval[0] / PI), math.floor(interval[1] / PI) + 1)
        zeros = locate_zeros(sin_sum, interval)
        assert len(k) == 318
        assert [z.multiplicity for z in zeros] == [1] * 318
        assert [z.location for z in zeros] == pytest.approx(k * PI, abs=1e-11)
        trace = arg_increment_pair(sin_sum, interval)
        assert trace.plus == pytest.approx(-318 * PI, abs=1e-9)
        assert trace.minus == pytest.approx(318 * PI, abs=1e-9)

    def test_endpoint_zero_raises(self, sin_sum):
        with pytest.raises(EndpointZeroError):
            locate_zeros(sin_sum, (0.0, 1.0))

    def test_end_rule_is_the_zero_threshold(self, sin_sum):
        # the scan's ends count as zeros at ZERO_THRESHOLD (1e-9) times
        # sum |a_k|, the engine's at the step floor F (1e-12): |sin 1e-10| is
        # at the first and over the second, |sin 1e-8| over both
        with pytest.raises(EndpointZeroError):
            locate_zeros(sin_sum, (1e-10, 1.0))
        assert locate_zeros(sin_sum, (1e-8, 1.0)) == []
        plus, minus, done = _unit_rows(sin_sum, [0.5 + 5e-11], 1.0 - 1e-10)
        assert done[0]
        assert (plus[0], minus[0]) == pytest.approx((0.0, 0.0), abs=1e-6)

    def test_too_long_interval_is_degenerate(self, sin_sum):
        # 1e8 of sin would take 2.5e8 first-sampling steps, 1.9 GiB
        with pytest.raises(DegenerateInputError, match="steps"):
            locate_zeros(sin_sum, (0.5, 1e8))
        with pytest.raises(DegenerateInputError, match="steps"):
            arg_increment_pair(sin_sum, (0.5, 1e8))

    @pytest.mark.parametrize("interval", [
        (0.1, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.1, math.nan),
        (-math.inf, math.inf),
    ], ids=str)
    def test_non_finite_interval_is_degenerate(self, sin_sum, interval, monkeypatch):
        # rejected before U is evaluated anywhere, run with warnings as errors
        def evaluate(*args):
            raise AssertionError("U evaluated")

        monkeypatch.setattr(UnivariateExpSum, "__call__", evaluate)
        for find in (locate_zeros, arg_increment_pair):
            with pytest.raises(DegenerateInputError, match="not finite"):
                find(sin_sum, interval)

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
        tr = arg_increment_pair(U, (0, 2 * PI))
        assert (tr.plus, tr.minus) == pytest.approx((2 * PI, 2 * PI), abs=1e-9)
        assert tr.zeros == ()
        assert tr.smooth_increment == pytest.approx(2 * PI, abs=1e-9)

    def test_sin_window_conventions(self, sin_sum):
        tr = arg_increment_pair(sin_sum, (-0.5, 0.5))
        assert tr.plus == pytest.approx(-PI, abs=1e-10)
        assert tr.minus == pytest.approx(PI, abs=1e-10)
        assert tr.smooth_increment == pytest.approx(0.0, abs=1e-10)

    def test_double_jump(self, cos_minus_one):
        tr = arg_increment_pair(cos_minus_one, (-0.5, 0.5))
        assert tr.plus == pytest.approx(-2 * PI, abs=1e-9)
        assert tr.smooth_increment == pytest.approx(0.0, abs=1e-9)

    def test_trace_invariants(self, sin_sum):
        tr = arg_increment_pair(sin_sum, (-0.5, 0.5))
        assert tr.plus == pytest.approx(tr.smooth_increment - tr.jump_increment)
        assert tr.minus == pytest.approx(tr.smooth_increment + tr.jump_increment)
        assert tr.jump_increment == pytest.approx(PI)
        steps = np.diff(tr.samples[:, 1:], axis=0)
        # jumps live between spans; within spans steps stay below pi/2
        assert np.all((np.abs(steps) < PI / 2) | (np.abs(steps) > PI / 2 + 0.5))

    def test_convention_gap(self, rng=np.random.default_rng(9)):
        for _ in range(25):
            U = random_sum(rng)
            try:
                tr = arg_increment_pair(U, (-1.1, 1.4))
            except EndpointZeroError:
                continue
            gap = tr.minus - tr.plus
            mult = sum(z.multiplicity for z in tr.zeros)
            assert gap == pytest.approx(2 * PI * mult, abs=1e-9)

    def test_zero_free_matches_quadrature(self, rng=np.random.default_rng(13)):
        # independent oracle: integral of Im(U'/U) by adaptive quadrature
        done = 0
        while done < 8:
            U = random_sum(rng)
            a, b = 0.2, 1.9
            if locate_zeros(U, (a, b)):
                continue
            tr = arg_increment_pair(U, (a, b))
            assert tr.plus == tr.minus
            oracle, _ = quad(
                lambda s: (U.derivative(s) / U(s)).imag, a, b, limit=200
            )
            assert tr.plus == pytest.approx(oracle, abs=1e-6)
            done += 1

    def test_endpoint_zero(self, sin_sum):
        with pytest.raises(EndpointZeroError):
            arg_increment_pair(sin_sum, (0.0, 1.0))


def _triple():
    # (e^{is} - 1)^3 expanded: a triple zero at every multiple of 2 pi
    return UnivariateExpSum.from_terms(
        [(1, Fraction(3)), (-3, Fraction(2)), (3, Fraction(1)), (-1, Fraction(0))]
    )


def _offaxis_row(seed, p, b):
    """Row b of 64 seeded lines of a p-variate sum: its restriction and
    unit window, which holds one zero within 0.02 of the axis."""
    rng = np.random.default_rng(seed)
    P = random_poly(rng, p, 5, max_num=6)
    y = rng.uniform(-0.3, 0.3, p)
    rows = P.line_rows(y, rng.uniform(0, 2 * PI, (64, len(P.terms))))
    c = float(rng.uniform(-20, 20, 64)[b])
    U = rows.restriction(b)
    assert count_zeros_rectangle(U, (c - 0.5, c + 0.5, -0.02, 0.02)) == 1
    return U, (c - 0.5, c + 0.5)


def _pinned_window(which, interval, sin_sum, cos_minus_one):
    if isinstance(which, tuple):
        return _offaxis_row(*which)
    U = {"sin": sin_sum, "double": cos_minus_one, "triple": _triple()}[which]
    return U, interval


# arg_increment_pair's (plus, minus, zeros) on seeded windows. Multiple
# zeros are located only to the rounding noise of the sum, so they are
# checked against their analytic locations: the double zeros within the
# rounding radius sqrt(2^-52 sum |a_k| / |c_2|) of Newton's method (about
# 3e-8), the triple zeros, found to about 1e-5, within 1e-5.
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
    ("double", (-0.3, 0.7), -2 * PI, 2 * PI, [(0.0, 2)]),
    ("double", (5.5, 6.5), -2 * PI, 2 * PI, [(2 * PI, 2)]),
    ("triple", (-0.75, 0.25), -7.924777960769384, 10.924777960769376, [(0.0, 3)]),
    ("triple", (-0.7, 0.3), -7.924777960769392, 10.924777960769367, [(0.0, 3)]),
    # off-axis zeros near the axis: one count-1 cluster each, dropped
    ((7, 2, 14), None, -1.6336112010471229, -1.6336112010471229, []),
    ((7, 2, 21), None, 4.340067188269012, 4.340067188269012, []),
    ((9, 3, 8), None, 4.773909799989486, 4.773909799989486, []),
    ((9, 3, 50), None, 6.166160490251203, 6.166160490251203, []),
]


@pytest.mark.parametrize("which, interval, plus, minus, zeros", PINNED)
def test_pinned_increments(which, interval, plus, minus, zeros,
                           sin_sum, cos_minus_one):
    U, interval = _pinned_window(which, interval, sin_sum, cos_minus_one)
    tr = arg_increment_pair(U, interval)
    assert tr.plus == pytest.approx(plus, abs=1e-12)
    assert tr.minus == pytest.approx(minus, abs=1e-12)
    got = [(z.location, z.multiplicity) for z in tr.zeros]
    assert [m for _, m in got] == [m for _, m in zeros]
    if which == "double":
        c2 = abs(U.leading_coefficient(zeros[0][0], 2))
        tol = math.sqrt(2.0**-52 * U.amplitude_scale / c2)
    else:
        tol = 1e-5 if which == "triple" else 1e-12
    assert [x for x, _ in got] == pytest.approx([x for x, _ in zeros], abs=tol)


def _engine_calls(monkeypatch):
    """The name of every unit_increments, _increments and _passes call, in
    a list, in order."""
    calls = []

    def spy(name):
        engine = getattr(tracker, name)

        def entry(*args):
            calls.append(name)
            return engine(*args)
        return entry

    for name in ("unit_increments", "_increments", "_passes"):
        monkeypatch.setattr(tracker, name, spy(name))
    return calls


def _real_grid_traces(monkeypatch):
    """The rows and grid of every real-line pass, the _passes calls, in a
    list: the grid is the one that all the pass's rows share."""
    calls, passes = [], tracker._passes

    def spy(shifted, g, t):
        calls.append((shifted.copy(), t.copy()))
        return passes(shifted, g, t)

    monkeypatch.setattr(tracker, "_passes", spy)
    return calls


@pytest.mark.parametrize("which, interval", [
    *((w, i) for w, i, *_ in PINNED if isinstance(w, str)),
    ("close", (-0.5, 0.5)), ("sin", (20000.5, 21000.5)),
], ids=str)
def test_scan_pieces_take_no_centre_shift(which, interval, sin_sum, cos_minus_one,
                                         monkeypatch):
    # the scan's steps tile the interval, and the track command's total
    # rests on that tiling: the scan never calls unit_increments, where the
    # centre shifts are, not even in the finer scans that keep the zeros
    # +-5e-4 of "close" apart, and takes the interval through _passes
    if which == "close":
        a, b = np.exp(5e-4j), np.exp(-5e-4j)
        U = UnivariateExpSum.from_terms([(1, 2.0), (-(a + b), 1.0), (a * b, 0.0)])
    else:
        U, interval = _pinned_window(which, interval, sin_sum, cos_minus_one)
    calls = _engine_calls(monkeypatch)
    locate_zeros(U, interval)
    arg_increment_pair(U, interval)
    assert calls.count("_passes") >= 2 and set(calls) == {"_passes"}


def test_scan_piece_with_a_zero_above_its_end(monkeypatch):
    # e^{2is} - (1 + r) e^{is} + r, r = exp(-i/2 - 5e-6), has zeros at 0 and
    # 5e-6 above the left end of (-0.5, 0.5). The scan detours only the
    # steps its real line fails, those around 0, so no detour climbs
    # through the zero at the end: the interval's one real-line pass is
    # seen from its centre 0.0, and the one real zero is at 0
    r = np.exp(-0.5j - 5e-6)
    U = UnivariateExpSum.from_terms([(1, 2.0), (-(1 + r), 1.0), (r, 0.0)])
    calls = _real_grid_traces(monkeypatch)
    zeros = locate_zeros(U, (-0.5, 0.5))
    tr = arg_increment_pair(U, (-0.5, 0.5))
    t = np.arange(17) / 16 - 0.5
    assert len(calls) == 2
    for amps, grid in calls:
        np.testing.assert_array_equal(amps, U._amps[None])
        np.testing.assert_array_equal(grid, t)
    assert [z.multiplicity for z in zeros] == [1] == [z.multiplicity for z in tr.zeros]
    assert zeros[0].location == pytest.approx(0.0, abs=1e-9)
    assert tr.minus - tr.plus == pytest.approx(2 * PI, abs=1e-9)


def _crossing_calls(monkeypatch):
    """The runs that each _crossings call settles, and the rows of each
    _detours call, in two lists."""
    crossed, detoured = [], []
    crossings, detours = tracker._crossings, tracker._detours

    def crossings_spy(*args):
        out = crossings(*args)
        crossed.append(int(out[2].sum()))
        return out

    def detours_spy(amps, *rest):
        detoured.append(len(amps))
        return detours(amps, *rest)

    monkeypatch.setattr(tracker, "_crossings", crossings_spy)
    monkeypatch.setattr(tracker, "_detours", detours_spy)
    return crossed, detoured


def test_far_sin_scan_is_one_engine_pass(sin_sum, monkeypatch):
    # the 318 zeros of sin over (20000.5, 21000.5) come from one real-line
    # pass over the interval's 2548 points, and each of its 318 runs of
    # failing steps crosses its simple zero in closed form: no _detours call
    calls = _real_grid_traces(monkeypatch)
    crossed, detoured = _crossing_calls(monkeypatch)
    zeros = locate_zeros(sin_sum, (20000.5, 21000.5))
    assert len(zeros) == 318 and [len(t) for _, t in calls] == [2548]
    assert crossed == [318] and detoured == []


def test_no_failing_step_calls_no_detours(sin_sum, monkeypatch):
    # sin has no zero in (1, 2), and no term of the rows dominates: the
    # real-line passes of the scan and of the engine certify every step,
    # and _passes makes no _detours call for no run
    called = []
    monkeypatch.setattr(tracker, "_detours", lambda *args: called.append(args))
    assert locate_zeros(sin_sum, (1.0, 2.0)) == []
    amps = np.array([[a for a, _ in sin_sum.terms]] * 3)
    plus, minus, done = unit_increments(amps, [g for _, g in sin_sum.terms],
                                        np.array([1.5, 4.7, -1.6]))
    assert done.all() and called == []


@pytest.mark.parametrize("which", ["sin", "double", "triple"])
def test_track_samples_are_the_first_sampling(which, sin_sum, cos_minus_one):
    # the samples are the interval's first sampling, with no point added,
    # and the phase of each branch on them turns by its total increment
    U = {"sin": sin_sum, "double": cos_minus_one, "triple": _triple()}[which]
    a, b = -4.0, 7.3
    n0 = tracker._first_steps(U.frequency_scale, b - a)
    trace = arg_increment_pair(U, (a, b))
    s, plus, minus = trace.samples.T
    np.testing.assert_array_equal(s, np.linspace(a, b, n0 + 1))
    for phase, total in ((plus, trace.plus), (minus, trace.minus)):
        assert phase[-1] - phase[0] == pytest.approx(total, abs=1e-9)


@pytest.mark.parametrize("center", np.append(np.arange(-0.45, 0.45, 0.05), [6.0, 6.5]))
def test_triple_zero_windows(center):
    # (e^{is} - 1)^3 = (2i sin(s/2))^3 e^{3is/2}: a triple zero at 2 pi k
    # on a smooth motion of 3/2 per unit length
    tr = arg_increment_pair(_triple(), (center - 0.5, center + 0.5))
    assert len(tr.zeros) == 1 and tr.zeros[0].multiplicity == 3
    k = round(center / (2 * PI))
    assert tr.zeros[0].location == pytest.approx(2 * PI * k, abs=1e-5)
    assert tr.plus == pytest.approx(1.5 - 3 * PI, abs=1e-9)
    assert tr.minus == pytest.approx(1.5 + 3 * PI, abs=1e-9)


def _unit_rows(U, centers, width=1.0):
    """unit_increments on the windows of U, unit ones unless a width is
    given, at the given centres."""
    amps = np.array([[a for a, _ in U.terms]] * len(centers))
    return unit_increments(amps, [g for _, g in U.terms], np.asarray(centers), width)


@pytest.mark.parametrize("which, interval, plus, minus, zeros", [
    case for case in PINNED if case[1] is None or case[1][1] - case[1][0] < 1.5
])
def test_pinned_unit_windows(which, interval, plus, minus, zeros,
                             sin_sum, cos_minus_one):
    # one unit_increments call gives the pinned increments, real zeros of
    # multiplicity 1 to 3 included, without locating them
    U, (a, b) = _pinned_window(which, interval, sin_sum, cos_minus_one)
    got_plus, got_minus, done = _unit_rows(U, [0.5 * (a + b)])
    assert done[0]
    assert got_plus[0] == pytest.approx(plus, abs=1e-12)
    assert got_minus[0] == pytest.approx(minus, abs=1e-12)


def test_rounding_split_double_zero():
    # 2 cos z - 2 at the torus point u below (row 38 of the seed-0 uniform
    # points on [0, 2 pi)): rounding splits the double zero at 0.414 into
    # two zeros 1e-8 off the axis. The +-delta traces pass above and below
    # the pair, which is found as one double zero.
    P = ExpPolynomial.from_pairs(1, [(1, ["1"]), (-2, ["0"]), (1, ["-1"])])
    K = lift(P, group_basis(P.exponents))._K
    rows = P.line_rows([0.0], np.array([[5.868768495722669]]) @ K.T)
    tr = arg_increment_pair(rows.restriction(0), (-0.5, 0.5))
    assert (tr.plus, tr.minus) == pytest.approx((-2 * PI, 2 * PI), abs=1e-12)
    assert [z.multiplicity for z in tr.zeros] == [2]
    assert tr.zeros[0].location == pytest.approx(0.41441681, abs=1e-6)
    plus, minus, done = unit_increments(rows.amps, rows.freqs, np.zeros(1))
    assert done[0]
    assert (plus[0], minus[0]) == pytest.approx((-2 * PI, 2 * PI), abs=1e-12)


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


def _phase_rate(U):
    """s -> Im(q'(s) / q(s)), computed from U's terms alone."""
    a = np.array([c for c, _ in U.terms])
    g = np.array([float(f) for _, f in U.terms])
    return lambda s: (np.exp(1j * g * s) @ (1j * g * a) / (np.exp(1j * g * s) @ a)).imag


class TestUnitIncrements:
    def test_taken_rows_match_oracles(self, rng=np.random.default_rng(41)):
        # a taken row passes (minus - plus) / 2 pi zeros of a strip of
        # half-height 1e-3 around its window, by contour count. A row with
        # none there, or of sin, whose zeros are real, has the quadrature of
        # the phase rate as its smooth increment (plus + minus) / 2
        taken = dict.fromkeys(("sin", "dominant", "offaxis"), 0)
        with_zeros = past_zero = 0  # taken rows with a zero, or past one
        for name, P, y, phases in _row_families(rng):
            rows = P.line_rows(y, phases)
            centers = rng.uniform(-50.0, 50.0, len(phases))
            plus, minus, done = unit_increments(rows.amps, rows.freqs, centers)
            for b in np.flatnonzero(done):
                U, a = rows.restriction(b), centers[b] - 0.5
                passed = (minus[b] - plus[b]) / (2 * PI)
                assert passed == pytest.approx(round(passed), abs=1e-9)
                strip = count_zeros_rectangle(U, (a, a + 1, -1e-3, 1e-3))
                assert 0 <= round(passed) <= strip
                with_zeros += round(passed) > 0
                if strip and name != "sin":
                    continue
                assert round(passed) == strip
                oracle, _ = quad(_phase_rate(U), a, a + 1, limit=200)
                assert 0.5 * (plus[b] + minus[b]) == pytest.approx(oracle, abs=1e-6)
                if name == "offaxis":
                    past_zero += count_zeros_rectangle(U, (a, a + 1, -0.5, 0.5)) != 0
            taken[name] += int(done.sum())
        # rows of every family are taken, sin's real zeros among them, and
        # off-axis rows past zeros near the axis
        assert min(taken.values()) > 0
        assert with_zeros > 0 and past_zero > 0

    def test_rows_with_zeros(self, rng=np.random.default_rng(43)):
        # a window with zeros within 1e-5 of the axis and none further out
        # to 1e-3, by contour count, is taken, and passes all of them
        with_zeros = 0
        for _, P, y, phases in _row_families(rng):
            rows = P.line_rows(y, phases)
            centers = rng.uniform(-50.0, 50.0, len(phases))
            plus, minus, done = unit_increments(rows.amps, rows.freqs, centers)
            for b, c in enumerate(centers):
                U = rows.restriction(b)
                near = count_zeros_rectangle(U, (c - 0.5, c + 0.5, -1e-5, 1e-5))
                if not near or near != count_zeros_rectangle(
                    U, (c - 0.5, c + 0.5, -1e-3, 1e-3)
                ):
                    continue
                with_zeros += 1
                assert done[b]
                assert minus[b] - plus[b] == pytest.approx(2 * PI * near, abs=1e-9)
        assert with_zeros > 0

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
        plus, minus, done = unit_increments(amps, freqs, centers)
        assert done.all()
        assert minus - plus == pytest.approx(2 * PI * m, abs=1e-12)
        # a zero at an endpoint: arg_increment_pair raises, while the engine
        # takes the window alone at the first centre shift whose m-th power
        # clears the floor F, with the values of a one-row call there
        centers = zeros + rng.choice([-0.5, 0.5], 64)
        floor = tracker._STEP_FLOOR * np.abs(amps[0]).sum()
        shift = next(d for d in tracker._SHIFTS if d**m > floor)
        plus, minus, done = unit_increments(amps, freqs, centers)
        assert done.all()
        for b, c in enumerate(centers):
            want_p, want_m, ok = unit_increments(amps[:1], freqs, np.array([c + shift]))
            assert ok[0] and (plus[b], minus[b]) == (want_p[0], want_m[0])
            with pytest.raises(EndpointZeroError):
                arg_increment_pair(U, (c - 0.5, c + 0.5))

    def test_triple_zero_near_an_end(self):
        # 1e-3 from a triple zero |q| is about 1e-9 sum |a_k|, which the
        # step rule still certifies: the window is taken. Rounding leaves
        # the phase of q there uncertain by about 1e-6
        U = _triple()
        amps = np.array([[a for a, _ in U.terms]] * 4)
        centers = np.array([-0.499, 0.499, 2 * PI - 0.499, 2 * PI + 0.499])
        plus, minus, done = unit_increments(amps, [g for _, g in U.terms], centers)
        assert done.all()
        assert plus == pytest.approx(np.full(4, 1.5 - 3 * PI), abs=1e-5)
        assert minus == pytest.approx(np.full(4, 1.5 + 3 * PI), abs=1e-5)

    def test_undone_rows_read_nan(self):
        # an identically-zero row, and the unit window at 0 of a sum with a
        # real zero at -0.21875 and a complex one 3e-6 above -0.25, on the
        # vertical leg of every delta's detour of the run of failing steps
        # that holds the real zero, which the engine cannot yet settle:
        # neither is done, and both branches of each read nan. The zero
        # row's nan comes from unit_increments' last rule alone
        amps, freqs = _two_zero_rows([[-0.25 + 3e-6j, -0.21875]])
        plus, minus, done = unit_increments(np.vstack([np.zeros(3), amps]), freqs, np.zeros(2))
        assert not done.any()
        assert np.isnan(plus).all() and np.isnan(minus).all()


def _grid_trace(amps, g, t, stop):
    """_trace of every row of amps along the one path t that all rows
    share, sampled here: (turn, ok), rows x steps."""
    v = (amps @ np.exp(1j * np.multiply.outer(g, t))).T
    return tracker._trace(amps, g, t[:, None], stop, v)


def _forced_trace(amps, g, centers):
    """Every row's real-line pass of its unit window through _trace, as
    unit_increments would make it if no row were dominated: the turn and
    pass flag of each step, rows x steps."""
    shifted = amps * np.exp(1j * np.multiply.outer(centers, g))
    n0 = tracker._first_steps(float(np.abs(g).sum()), 1.0)
    return _grid_trace(shifted, g, np.arange(n0 + 1) / n0 - 0.5, tracker._AXIS_WIDTH)


class TestDominatedRows:
    # a row whose largest amplitude |a_j| outweighs the sum of the others by
    # more than _STEP_FLOOR sum |a_k| settles from its two ends, with no trace
    @staticmethod
    def _dominated(amps):
        mods = np.abs(amps)
        margin = 2 * mods.max(axis=1) - mods.sum(axis=1)
        return margin > tracker._STEP_FLOOR * mods.sum(axis=1)

    @staticmethod
    def _traced_rows(monkeypatch, amps, g, centers):
        """The rows of amps that each _trace call takes, in a list, told
        apart by their amplitudes seen from their centres."""
        shifted = amps * np.exp(1j * np.multiply.outer(centers, g))
        index = {row.tobytes(): b for b, row in enumerate(shifted)}
        taken, trace = [], tracker._trace

        def spy(amps, *rest):
            taken.append([index[row.tobytes()] for row in amps])
            return trace(amps, *rest)

        monkeypatch.setattr(tracker, "_trace", spy)
        return taken

    def test_match_forced_trace(self, monkeypatch, rng=np.random.default_rng(47)):
        sin = ExpPolynomial.from_pairs(1, [(-0.5j, ["1"]), (0.5j, ["-1"])])
        families = list(_row_families(rng))
        families.append(("sin-3", sin, [3.0], rng.uniform(0, 2 * PI, (64, 2))))
        settled = dict.fromkeys(("dominant", "offaxis", "sin-3"), 0)
        for name, P, y, phases in families:
            rows = P.line_rows(y, phases)
            g = np.array([float(f) for f in rows.freqs])
            centers = rng.uniform(-50.0, 50.0, len(phases))
            taken = self._traced_rows(monkeypatch, rows.amps, g, centers)
            plus, minus, done = unit_increments(rows.amps, rows.freqs, centers)
            monkeypatch.undo()
            turn, ok = _forced_trace(rows.amps, g, centers)
            want, passed = turn.sum(axis=1), ok.all(axis=1)
            dominated = self._dominated(rows.amps)
            # the dominated rows never reach _trace; the others all do
            traced = sorted(set(sum(taken, [])))
            assert traced == np.flatnonzero(~dominated).tolist()
            assert done[dominated].all() and passed[dominated].all()
            assert plus[dominated] == pytest.approx(want[dominated], abs=1e-12)
            assert (minus[dominated] == plus[dominated]).all()
            if name in settled:
                settled[name] += int(dominated.sum())
        # every family but sin at y = 0, whose two terms balance, has some
        assert min(settled.values()) > 0

    def test_margin(self, monkeypatch):
        # 1 + 1/2 e^{is} + (1/2 - d) e^{2is} is dominated by its 1 when d
        # exceeds the floor 2e-12, and is about 2 on the window: the row
        # just above the margin is settled, the one just below is traced,
        # and both match the forced trace
        floor = tracker._STEP_FLOOR * 2
        amps = np.array([[1, 0.5, 0.5 - 2 * floor], [1, 0.5, 0.5 - floor / 2]],
                        dtype=complex)
        g = np.array([0.0, 1.0, 2.0])
        assert self._dominated(amps).tolist() == [True, False]
        taken = self._traced_rows(monkeypatch, amps, g, np.zeros(2))
        plus, minus, done = unit_increments(amps, [0, 1, 2], np.zeros(2))
        monkeypatch.undo()
        assert taken == [[1]] and done.all()
        turn, ok = _forced_trace(amps, g, np.zeros(2))
        want = turn.sum(axis=1)
        assert ok.all()
        assert plus == pytest.approx(want, abs=1e-12)
        assert minus == pytest.approx(want, abs=1e-12)

    def test_too_wide_window_is_degenerate(self):
        # the first sampling's bound still holds when no row is traced
        amps = np.array([[4.0, 0.3, 0.3]], dtype=complex)
        with pytest.raises(DegenerateInputError, match="steps"):
            unit_increments(amps, [-1, 0, 1], np.zeros(1), width=1e6)


def test_first_sampling_bounded():
    # max(16, ceil(8 fs width / 2pi)) steps, up to _MAX_STEPS = 2^16
    fs = 2 * PI / 8  # one step per unit of width
    assert tracker._first_steps(fs, 10.0) == 16
    assert tracker._first_steps(fs, 16.5) == 17
    assert tracker._first_steps(fs, 100.5) == 101
    assert tracker._first_steps(fs, 2.0**16) == 2**16
    for width in (2.0**16 + 1, math.inf, math.nan):
        with pytest.raises(DegenerateInputError, match="steps"):
            tracker._first_steps(fs, width)
    with pytest.raises(DegenerateInputError):
        tracker._first_steps(math.nan, 1.0)


def _sampling_rows(rng):
    """(amps, freqs, centres) of seeded unit windows: sin at y = 0, the
    dominated and off-axis p = 2-3 families, 2 cos z - 2 with its double
    zeros, and windows of sin and of 2 cos z - 2 that end on a zero."""
    sin = ExpPolynomial.from_pairs(1, [(-0.5j, ["1"]), (0.5j, ["-1"])])
    double = ExpPolynomial.from_pairs(1, [(1, ["1"]), (-2, ["0"]), (1, ["-1"])])
    families = [*_row_families(rng), ("double", double, [0.0], np.zeros((64, 3)))]
    for _, P, y, phases in families:
        rows = P.line_rows(y, phases)
        yield rows.amps, rows.freqs, rng.uniform(-50.0, 50.0, len(phases))
    for P, spacing in ((sin, PI), (double, 2 * PI)):
        rows = P.line_rows([0.0], np.zeros((32, len(P.terms))))
        ends = spacing * rng.integers(-20, 21, 32) + rng.choice([-0.5, 0.5], 32)
        yield rows.amps, rows.freqs, ends


def test_results_do_not_depend_on_first_sampling(monkeypatch, sin_sum):
    # every step is certified and a failing one is cut, so the first
    # sampling only sets where the cutting starts: four times its steps
    # give the same windows done, increments and zeros
    batches = list(_sampling_rows(np.random.default_rng(61)))
    want = [unit_increments(*batch) for batch in batches]
    zeros = locate_zeros(sin_sum, (-4.0, 7.3))
    first_steps = tracker._first_steps
    monkeypatch.setattr(tracker, "_first_steps", lambda fs, w: 4 * first_steps(fs, w))
    for batch, (plus, minus, done) in zip(batches, want):
        p, m, d = unit_increments(*batch)
        assert (d == done).all() and done.any()
        assert p == pytest.approx(plus, abs=1e-12)
        assert m == pytest.approx(minus, abs=1e-12)
    again = locate_zeros(sin_sum, (-4.0, 7.3))
    assert [z.multiplicity for z in again] == [z.multiplicity for z in zeros] == [1] * 4
    assert [z.location for z in again] == pytest.approx(
        [z.location for z in zeros], abs=1e-12
    )


def _iv_q(amps, g, z):
    """Interval enclosure (re, im) of sum_k amps[k] exp(i g[k] z) at the
    complex double z."""
    x, y = iv.mpf(z.real), iv.mpf(z.imag)
    re = im = iv.mpf(0)
    for a, gk in zip(amps, g):
        e = iv.exp(-iv.mpf(gk) * y)
        c, s = e * iv.cos(iv.mpf(gk) * x), e * iv.sin(iv.mpf(gk) * x)
        ar, ai = iv.mpf(a.real), iv.mpf(a.imag)
        re, im = re + ar * c - ai * s, im + ar * s + ai * c
    return re, im


def _iv_abs(q):
    return iv.sqrt(q[0] ** 2 + q[1] ** 2)


def _iv_step_holds(amps, g, c, z0, z1, floor):
    """Whether one of the two step inequalities of the certified engine
    holds in interval arithmetic on the segment [c + z0, c + z1] of the sum
    sum_k amps[k] exp(i g[k] s), with q0, q1, h, M1 and M2 recomputed."""
    q0, q1 = _iv_q(amps, g, c + z0), _iv_q(amps, g, c + z1)
    dx, dy = iv.mpf(z1.real) - iv.mpf(z0.real), iv.mpf(z1.imag) - iv.mpf(z0.imag)
    h = iv.sqrt(dx ** 2 + dy ** 2)
    # |a_k exp(i g_k z)| is largest at an end of the segment
    grow = [max(iv.exp(-iv.mpf(gk) * iv.mpf(z.imag)).b for z in (z0, z1)) for gk in g]
    mods = [_iv_abs((iv.mpf(a.real), iv.mpf(a.imag))).b for a in amps]
    m1 = iv.mpf(sum(m * w * abs(gk) for m, w, gk in zip(mods, grow, g)))
    m2 = iv.mpf(sum(m * w * gk * gk for m, w, gk in zip(mods, grow, g)))
    a0, a1 = _iv_abs(q0), _iv_abs(q1)
    if (a0 + a1).a > (m1 * h + floor).b:
        return True
    # the distance from 0 to the chord: to its line, or to its nearer end
    # when 0 projects outside it for sure
    dr, di = q1[0] - q0[0], q1[1] - q0[1]
    along0, along1 = dr * q0[0] + di * q0[1], dr * q1[0] + di * q1[1]
    cross = dr * q0[1] - di * q0[0]
    dist = (abs(cross) / iv.sqrt(dr ** 2 + di ** 2)).a
    if along0.a >= 0 or along1.b <= 0:
        dist = min(a0.a, a1.a)
    return dist > (m2 * h * h / 8 + floor).b


@pytest.mark.parametrize("which, interval", [
    ("sin", (-0.2, 0.8)), ("double", (-0.3, 0.7)),
    ((7, 2, 14), None), ((7, 2, 21), None), ((9, 3, 8), None),
], ids=["sin", "double", "offaxis-7-14", "offaxis-7-21", "offaxis-9-8"])
def test_accepted_steps_hold_in_interval_arithmetic(
    which, interval, sin_sum, cos_minus_one, monkeypatch
):
    # every step the engine accepts, on the real line and on the +-delta
    # detours with their vertical legs, satisfies its inequality with q0,
    # q1, M1 and M2 re-evaluated in interval arithmetic from the row's own
    # amplitudes. The engine tests steps in _trace only: _doomed proves a
    # row fails by a bound at a located zero and accepts no step. sin's
    # run of one failing step crosses its simple zero in closed form and
    # is not traced (test_accepted_crossings_hold_in_interval_arithmetic
    # checks that certificate); the double zero's run is detoured
    U, (a, b) = _pinned_window(which, interval, sin_sum, cos_minus_one)
    detoured = which == "double"
    crossed, _ = _crossing_calls(monkeypatch)
    accepted, proofs, step_ok, doomed = [], [], tracker._step_ok, tracker._doomed

    def spy(h, v, m1, m2, floor):
        ok = step_ok(h, v, m1, m2, floor)
        caller = sys._getframe(1)
        assert caller.f_code.co_name == "_certify"
        # _step_ok sees step lengths only; the caller's frame holds the
        # steps' ends on their paths, z = s, steps x paths
        s = caller.f_locals["s"]
        *steps, ok_ = np.broadcast_arrays(s[:-1], s[1:], floor, ok)
        accepted.append([v[ok_] for v in steps])
        return ok

    def doomed_spy(*args):
        proofs.append(args[2])
        return doomed(*args)

    monkeypatch.setattr(tracker, "_step_ok", spy)
    monkeypatch.setattr(tracker, "_doomed", doomed_spy)
    c = 0.5 * (a + b)
    assert _unit_rows(U, [c])[2][0]
    monkeypatch.undo()
    # the windows with a real zero try the proof, and only they
    assert bool(proofs) == (interval is not None)
    z0, z1, floor = (np.concatenate(v) for v in zip(*accepted))
    amps, g = [a for a, _ in U.terms], [float(f) for _, f in U.terms]
    heights = set(np.round(np.concatenate([z0.imag, z1.imag]), 12).tolist())
    # at least the first sampling's steps are accepted, all but the run's
    # one on sin, and the detoured row is traced off the axis too
    n0 = tracker._first_steps(float(np.abs(g).sum()), 1.0)
    assert crossed == {"sin": [1], "double": [0]}.get(which, [])
    assert len(z0) == n0 - 1 if which == "sin" else len(z0) >= n0
    assert (len(heights) > 1) == detoured
    # and its detours' vertical legs are among the steps checked below
    vertical = (z0.real == z1.real) & (z0.imag != z1.imag)
    assert vertical.any() == detoured
    for s0, s1, f in zip(z0.tolist(), z1.tolist(), floor.tolist()):
        assert _iv_step_holds(amps, g, c, complex(s0), complex(s1), f)


# heights of the zeros of the rows below: on the axis, within rounding of
# it, where the real-line pass still certifies the steps past them, around
# _AXIS_WIDTH and far off it
HEIGHTS = [0.0] + [sign * h for h in (1e-12, 5e-10, 1e-9, 1e-7, 2e-6, 5e-6, 1e-5, 1e-3)
                   for sign in (1, -1)]


def _zero_rows(form, zeros):
    """(amps, freqs) with one row per zero z0 in zeros, the sum in z of the
    given form with a zero of its order at z0: simple, sin(z - z0) (4 +
    2 cos z), which no term dominates; double, e^{-iz} (e^{iz} - e^{iz0})^2,
    which is 2 cos z - 2 at z0 = 0; triple, (e^{iz} - e^{iz0})^3."""
    w = np.exp(1j * np.asarray(zeros))[:, None]
    if form == "simple":
        sine = np.hstack([-w / 2j, np.zeros_like(w), 1 / (2j * w)])
        amps = np.array([np.convolve(row, [1, 4, 1]) for row in sine])
        return amps, [-2, -1, 0, 1, 2]
    if form == "double":
        return np.hstack([w * w, -2 * w, np.ones_like(w)]), [-1, 0, 1]
    return np.hstack([-(w**3), 3 * w * w, -3 * w, np.ones_like(w)]), [0, 1, 2, 3]


def _zero_windows(form, rng):
    """Unit windows, (amps, freqs, centres, zeros), each holding one zero
    of the form: at every height of HEIGHTS, at a random place, on a point
    of the first sampling, and at either end of its window."""
    n0 = tracker._first_steps(float(np.abs(_zero_rows(form, [0.0])[1]).sum()), 1.0)
    places = [rng.uniform(-0.45, 0.45), 5 / n0 - 0.5, -0.5, 0.5]
    offsets = np.array([x + 1j * h for x in places for h in HEIGHTS])
    centers = rng.uniform(-50.0, 50.0, len(offsets))
    return (*_zero_rows(form, centers + offsets), centers, centers + offsets)


def _proving_nothing(monkeypatch):
    monkeypatch.setattr(tracker, "_doomed",
                        lambda amps, *rest: np.zeros(len(amps), dtype=bool))


@pytest.mark.parametrize("form", ["simple", "double", "triple"])
def test_proof_keeps_every_answer(form, monkeypatch):
    # a step that _doomed proves failing is one the cuts would fail: the
    # real-line pass and unit_increments give the same pass flag of every
    # step, turns of the steps that pass, and (plus, minus, done) with the
    # proof as without it. The proof needs |q(x)| <= F/4 at a real x, and near a
    # zero z0 of order m, |q| on the axis is least at about Re z0. So no
    # row is proven whose |q(Re z0)| is 4F or more: no simple zero 1e-7 or
    # more off the axis. A double zero up to about 1e-6 off it, or a triple
    # one up to about 1e-4, keeps |q| on the axis below F/4, and the bound
    # reaches it, as the cuts fail it
    amps, freqs, centers, zeros = _zero_windows(form, np.random.default_rng(71))
    g = np.array(freqs, dtype=float)
    proven, doomed = [], tracker._doomed

    def doomed_spy(*args):
        out = doomed(*args)
        proven.append(int(out.sum()))
        return out

    monkeypatch.setattr(tracker, "_doomed", doomed_spy)
    turn, ok = _forced_trace(amps, g, centers)
    got = unit_increments(amps, freqs, centers)
    rows_proven = sum(proven)
    at_zero = np.abs((amps * np.exp(1j * np.multiply.outer(zeros.real, g))).sum(axis=1))
    far = at_zero >= 4 * tracker._STEP_FLOOR * np.abs(amps).sum(axis=1)
    assert far[np.abs(zeros.imag) >= (1e-7 if form == "simple" else 1e-3)].all()
    proven.clear()
    _forced_trace(amps[far], g, centers[far])
    assert sum(proven) == 0
    monkeypatch.undo()
    _proving_nothing(monkeypatch)
    want_turn, want_ok = _forced_trace(amps, g, centers)
    want = unit_increments(amps, freqs, centers)
    # the bound proves steps of every form, the triple zeros' too
    assert rows_proven > 0 and not want_ok.all()
    assert (ok == want_ok).all()
    assert (turn[ok] == want_turn[ok]).all()
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


def _window_detours(amps, freqs, centers):
    """(plus, minus, done) of unit windows by a +-delta pass over whole
    windows, for reference: a window whose real line fails in any step is
    traced from its left end up to height delta (down to -delta), along
    the window there and back to its right end, at the first delta at
    which both paths pass. No row may be dominated or end on a zero."""
    g = np.array([float(f) for f in freqs])
    n0 = tracker._first_steps(float(np.abs(g).sum()), 1.0)
    t = np.arange(n0 + 1) / n0 - 0.5
    shifted = amps * np.exp(1j * np.multiply.outer(centers, g))
    turn, ok = _grid_trace(shifted, g, t, tracker._AXIS_WIDTH)
    plus, minus, done = turn.sum(axis=1), turn.sum(axis=1), ok.all(axis=1)
    for delta in tracker._DELTAS:
        todo = np.flatnonzero(~done)
        if not len(todo):
            break
        detour = np.concatenate([[-0.5], t + 1j * delta, [0.5]])
        (up, up_ok), (down, down_ok) = (
            _grid_trace(shifted[todo], g, path, delta / 100) for path in (detour, detour.conj())
        )
        ok = up_ok.all(axis=1) & down_ok.all(axis=1)
        plus[todo[ok]], minus[todo[ok]] = up.sum(axis=1)[ok], down.sum(axis=1)[ok]
        done[todo[ok]] = True
    plus[~done] = minus[~done] = math.nan
    return plus, minus, done


def _two_zero_rows(zeros):
    """(amps, freqs) with one row (e^{iz} - e^{i z1})(e^{iz} - e^{i z2}) per
    pair (z1, z2) of zeros."""
    w = np.exp(1j * np.asarray(zeros))
    return np.column_stack([w.prod(axis=1), -w.sum(axis=1), np.ones(len(w))]), [0, 1, 2]


def _detour_cases(which, rng):
    """(amps, freqs, centres) of unit windows with zeros on or near the axis."""
    if which in ("sin", "double", "triple"):
        U = {"sin": UnivariateExpSum.from_terms([(-0.5j, 1), (0.5j, -1)]),
             "double": UnivariateExpSum.from_terms([(1, 1), (-2, 0), (1, -1)]),
             "triple": _triple()}[which]
        spacing = PI if which == "sin" else 2 * PI
        centers = spacing * rng.integers(-20, 21, 64) + rng.uniform(-0.45, 0.45, 64)
        return np.array([[a for a, _ in U.terms]] * 64), [g for _, g in U.terms], centers
    if which == "two-zeros":
        a = rng.uniform(-0.45, -0.05, 64)
        return (*_two_zero_rows(np.column_stack([a, a + rng.uniform(0.1, 0.5 - a)])),
                np.zeros(64))
    if which == "at-a-sample":
        # sin's zero k pi within 1e-9 of a point m / 16 - 1/2 of its window
        n0 = tracker._first_steps(2.0, 1.0)
        points = rng.integers(1, n0, 64) / n0 - 0.5 + rng.choice([-1, 1], 64) * rng.uniform(1e-12, 1e-9, 64)
        return (np.array([[-0.5j, 0.5j]] * 64), [1, -1],
                PI * rng.integers(-20, 21, 64) - points)
    # one zero of the simple or double form off the axis, at each height
    heights = np.array([sign * h for h in (1e-12, 1e-10, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
                        for sign in (1, -1)])
    centers = rng.uniform(-50.0, 50.0, len(heights))
    zeros = centers + rng.uniform(-0.45, 0.45, len(heights)) + 1j * heights
    return (*_zero_rows(which.split("-")[1], zeros), centers)


@pytest.mark.parametrize("which", ["sin", "double", "triple", "two-zeros", "at-a-sample",
                                   "offaxis-simple", "offaxis-double"])
def test_local_detours_match_window_detours(which):
    # detouring only the runs of steps that the real line fails gives the
    # increments of a detour over the whole window, where the window holds
    # no zero above or below a step that passes: the passing steps' turns
    # and the runs' detours telescope to the whole detour's. The triple
    # zeros are the same to 1e-12 too, as every path ends on the real
    # line's own samples
    amps, freqs, centers = _detour_cases(which, np.random.default_rng(83))
    got = unit_increments(amps, freqs, centers)
    want = _window_detours(amps, freqs, centers)
    assert got[2].all() and want[2].all()
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)
    # the windows with zeros are among them, with every multiplicity
    turned = np.round((got[1] - got[0]) / (2 * PI))
    assert turned.max() == {"double": 2, "triple": 3, "two-zeros": 2, "offaxis-double": 2}.get(which, 1)


def test_zero_above_a_passing_step_is_left_out():
    # a real zero at 0.1, and one 5e-6 above (below) 0.3, under which the
    # real line certifies its step. Only the run of steps at 0.1 is
    # detoured, so the second zero is left out, as the one-sided limits of
    # arg q(x +- i delta) as delta -> 0 require: both branches pass it
    # alike. A detour over the whole window at delta = 1e-5 passes it too
    amps, freqs = _two_zero_rows([[0.1, 0.3 + 5e-6j], [0.1, 0.3 - 5e-6j]])
    plus, minus, done = unit_increments(amps, freqs, np.zeros(2))
    whole_plus, whole_minus, whole_done = _window_detours(amps, freqs, np.zeros(2))
    assert done.all() and whole_done.all()
    assert minus - plus == pytest.approx([2 * PI] * 2, abs=1e-9)
    assert whole_minus - whole_plus == pytest.approx([4 * PI] * 2, abs=1e-9)
    # the detour on the side away from the second zero is the same either way
    assert (minus[0], plus[1]) == pytest.approx((whole_minus[0], whole_plus[1]), abs=1e-12)


def test_run_failing_every_delta_retries_its_real_line(monkeypatch):
    # zeros 3e-6 above the first-sampling point -1/4 of the unit window at
    # 0, and 2e-10 above the middle of the step after it, which the real
    # line fails. Every delta's detour of that step climbs through the
    # first zero; its real segment, traced again down to the first delta's
    # stop, passes. The window holds no zero on the axis, and both branches
    # take the real line's turn: that of the whole window's down detour
    amps, freqs = _two_zero_rows([[-0.25 + 3e-6j, -0.25 + 1 / 32 + 2e-10j]])
    calls, trace = [], tracker._trace

    def spy(amps, g, t, *rest):
        calls.append((len(t), np.iscomplexobj(t)))
        return trace(amps, g, t, *rest)

    monkeypatch.setattr(tracker, "_trace", spy)
    plus, minus, done = unit_increments(amps, freqs, np.zeros(1))
    monkeypatch.undo()
    # the real line's first sampling, each delta's detours through the
    # _CUTS points and the run's ends, and the run's real line through them
    n0, cuts = tracker._first_steps(3.0, 1.0), len(tracker._CUTS)
    assert calls == [(n0 + 1, False)] + [(cuts + 2, True)] * len(tracker._DELTAS) + [(cuts, False)]
    assert done[0] and plus[0] == minus[0]
    assert minus[0] == pytest.approx(_window_detours(amps, freqs, np.zeros(1))[1][0], abs=1e-12)


def _pass_calls(monkeypatch):
    """The _trace calls, and the rounds of the step rule (_step_ok calls),
    each by the pass that makes it: on the real line ("real") or along
    +-delta detours ("delta"), in two lists."""
    traces, rounds, trace, step_ok = [], [], tracker._trace, tracker._step_ok

    def trace_spy(amps, g, t, *rest):
        traces.append("delta" if np.iscomplexobj(t) else "real")
        return trace(amps, g, t, *rest)

    def step_ok_spy(*args):
        rounds.append(traces[-1])
        return step_ok(*args)

    monkeypatch.setattr(tracker, "_trace", trace_spy)
    monkeypatch.setattr(tracker, "_step_ok", step_ok_spy)
    return traces, rounds


def _settling_nothing(monkeypatch, *names):
    """Stub the named run settlers, _crossings or _detours, to settle no run."""
    for name in names:
        monkeypatch.setattr(tracker, name, lambda amps, *rest: (
            np.full(len(amps), math.nan), np.full(len(amps), math.nan),
            np.zeros(len(amps), dtype=bool)))


def test_step_cap_bounds_the_step_tests(monkeypatch):
    # 64 unit windows on triple zeros of (e^{is} - 1)^3: a step fails once
    # its failing pieces in one round outnumber the cap, 4 max(64, steps),
    # which only bounds cost. With the cap the engine makes about 0.69 million step
    # tests, without it about 2.9 million, for the same answers
    tested, step_ok = [0], tracker._step_ok

    def spy(h, *rest):
        tested[0] += h.size
        return step_ok(h, *rest)

    monkeypatch.setattr(tracker, "_step_ok", spy)
    rng = np.random.default_rng(0)
    centers = 2 * PI * rng.integers(-50, 50, 64) + rng.uniform(-0.45, 0.45, 64)
    plus, minus, done = _unit_rows(_triple(), centers)
    assert done.all()
    assert plus == pytest.approx(np.full(64, 1.5 - 3 * PI), abs=1e-9)
    assert minus == pytest.approx(np.full(64, 1.5 + 3 * PI), abs=1e-9)
    assert tested[0] <= 1_000_000


# The engine's work on one seeded report of each kind, box sizes (25, 50,
# 100) and schedule and torus seed 7: rounds of the step rule, step tests,
# runs crossed in closed form and runs sent to _detours. Each count is
# deterministic. The bounds are the counts measured when they were set
# plus a quarter, rounded down, so a change that adds a round, detours
# runs that were crossed or multiplies the step tests fails with no
# timing: with _crossings settling nothing, the sin report makes 2 rounds,
# 13,432 step tests and 198 detours. A change that moves a bound says so.
BUDGETS = {
    # name: (lines per box, torus samples, rounds, step tests, crossed, detoured)
    "sin": (64, 400, 1, 9472, 198, 0),
    "strip": (16, 96, 0, 0, 0, 0),
    "offaxis": (16, 48, 2, 1736, 0, 0),
    "double": (64, 400, 11, 28204, 0, 93),
}


@pytest.mark.parametrize("which", list(BUDGETS))
def test_report_work_budgets(which, sin_poly, monkeypatch):
    # sin at y = 0, whose real zeros cross in closed form; a dominated p = 2
    # sum, which no trace reaches; an off-axis p = 3 sum at y = (0.1, -0.2,
    # 0.05); and 2 cos z - 2 at y = 0, whose double zeros are detoured
    P, y = {
        "sin": (sin_poly, [0.0]),
        "strip": (_dominant_poly(np.random.default_rng(0)), [0.0, 0.0]),
        "offaxis": (random_poly(np.random.default_rng(56), 3, 5, max_num=6), [0.1, -0.2, 0.05]),
        "double": (ExpPolynomial.from_pairs(1, [(1, ["1"]), (-2, ["0"]), (1, ["-1"])]), [0.0]),
    }[which]
    lines, samples, *measured = BUDGETS[which]
    rounds, tested, step_ok = [0], [0], tracker._step_ok

    def spy(*args):
        ok = step_ok(*args)
        rounds[0] += 1
        tested[0] += ok.size
        return ok

    monkeypatch.setattr(tracker, "_step_ok", spy)
    crossed, detoured = _crossing_calls(monkeypatch)
    report = compare_estimators(P, y, WindowSchedule((25.0, 50.0, 100.0), lines, 7),
                                samples=samples, seed=7)
    assert report["pass"]
    got = (rounds[0], tested[0], sum(crossed), sum(detoured))
    assert all(g <= int(1.25 * m) for g, m in zip(got, measured)), (got, measured)
    # the spies see the engine: every report but the dominated one tests steps
    assert (tested[0] > 0) == (which != "strip")


def test_real_zero_rows_leave_in_one_round(sin_poly, monkeypatch):
    # 64 unit windows of sin at y = 0: the windows on a real zero fail the
    # first sampling, and the proof fails them there, with no round of
    # cuts, where the cuts would take five rounds, from 1/16 down to
    # 1.9e-6. Each run of failing steps then crosses its simple zero in
    # closed form, with no _trace call. Where the closed form settles
    # nothing, one call takes the up and down detours of every run, in at
    # most two rounds, and as many with the proof as without it
    rng = np.random.default_rng(3)
    rows = sin_poly.line_rows([0.0], rng.uniform(0, 2 * PI, (64, 2)))
    centers = rng.uniform(-50.0, 50.0, 64)
    counts = []
    for prove, cross in ((True, True), (False, True), (True, False), (False, False)):
        if not prove:
            _proving_nothing(monkeypatch)
        if not cross:
            _settling_nothing(monkeypatch, "_crossings")
        traces, rounds = _pass_calls(monkeypatch)
        plus, minus, done = unit_increments(rows.amps, rows.freqs, centers)
        monkeypatch.undo()
        assert done.all() and ((minus - plus) / (2 * PI)).round().sum() > 0
        counts.append((traces, rounds.count("real"), rounds.count("delta")))
    crossed, crossed_before, detoured, detoured_before = counts
    assert crossed == (["real"], 1, 0) and crossed_before == (["real"], 6, 0)
    # the proof leaves the detours' rounds as they were
    assert detoured[:2] == (["real", "delta"], 1) and 0 < detoured[2] <= 2
    assert detoured_before == (["real", "delta"], 6, detoured[2])


@pytest.mark.parametrize("which", ["double", "close-pair", "complex-above", "on-a-leg"])
def test_crossings_refuse_what_detours_decide(which, monkeypatch):
    # the closed form takes only a run whose rectangle provably holds one
    # simple zero. It refuses a double zero of 2 cos z - 2 in a step, the
    # zeros +-5e-4 of e^{2is} - 2 cos(5e-4) e^{is} + 1 in one step, and a
    # real zero at 0.1 with a complex one 1e-6 above it, which _detours
    # counts twice as the whole window's detour does; and the undone window
    # of a zero on a run's vertical leg (a real zero at -0.21875, a complex
    # one 3e-6 above the point -0.25), which stays undone exactly as
    # without the closed form
    rows, center = {
        "double": (([[1, -2, 1]], [1, 0, -1]), 0.03),
        "close-pair": (([[1, -2 * math.cos(5e-4), 1]], [0, 1, 2]), 1 / 32),
        "complex-above": (_two_zero_rows([[0.1, 0.1 + 1e-6j]]), 0.0),
        "on-a-leg": (_two_zero_rows([[-0.25 + 3e-6j, -0.21875]]), 0.0),
    }[which]
    amps, freqs, centers = np.array(rows[0], dtype=complex), rows[1], np.array([center])
    crossed, detoured = _crossing_calls(monkeypatch)
    plus, minus, done = unit_increments(amps, freqs, centers)
    monkeypatch.undo()
    assert crossed == [0] and detoured == [1]
    _settling_nothing(monkeypatch, "_crossings")
    before = unit_increments(amps, freqs, centers)
    for got, want in zip((plus, minus, done), before):
        assert np.array_equal(got, want, equal_nan=True)
    if which == "on-a-leg":
        assert not done[0] and math.isnan(plus[0]) and math.isnan(minus[0])
        return
    whole = _window_detours(amps, freqs, centers)
    assert done[0] and whole[2][0]
    assert (plus[0], minus[0]) == pytest.approx((whole[0][0], whole[1][0]), abs=1e-12)
    assert round((minus[0] - plus[0]) / (2 * PI)) == 2


def test_unsettled_run_fails_the_scan(sin_poly, sin_sum, tmp_path, monkeypatch, capsys):
    # a run that neither the closed form nor the detours settle is a
    # TrackingError that names its steps, the two around the zero at 0,
    # and an input error at the command line
    _settling_nothing(monkeypatch, "_crossings", "_detours")
    with pytest.raises(TrackingError, match=r"steps \(-0\.0625, 0\.0625\) of the interval"):
        locate_zeros(sin_sum, (-0.5, 0.5))
    path = tmp_path / "sin.json"
    write_polynomial_file(sin_poly, path)
    assert main(["zeros", "--poly", str(path), "--interval=-0.5,0.5"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "TrackingError"


def test_cluster_turning_a_half_fails_the_scan(sin_sum, monkeypatch):
    # a cluster's multiplicity is the whole number of turns between its
    # one-sided limits: down - up = pi is half a turn, and no multiplicity
    monkeypatch.setattr(tracker, "_crossings", lambda amps, *rest: (
        np.zeros(len(amps)), np.full(len(amps), PI), np.ones(len(amps), dtype=bool)))
    with pytest.raises(TrackingError, match=r"clusters turned \[0\.5\] times"):
        locate_zeros(sin_sum, (-0.5, 0.5))


@pytest.mark.parametrize("error", [EndpointZeroError, TrackingError])
def test_failed_rescan_keeps_the_cluster(error, monkeypatch):
    # the finer scan of a multiple cluster may fail; the cluster is then
    # one zero, which Newton's method locates, as where the scan splits
    # nothing: the triple zero of (e^{is} - 1)^3 at 0
    U = _triple()
    want = locate_zeros(U, (-0.5, 0.5))
    scan, depth, raised = tracker._scan, [], []

    def inner_fails(*args):
        if depth:
            raised.append(args[1])
            raise error("the finer scan failed")
        depth.append(1)
        try:
            return scan(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(tracker, "_scan", inner_fails)
    zeros = locate_zeros(U, (-0.5, 0.5))
    assert len(raised) == 1 and zeros == want
    assert [z.multiplicity for z in zeros] == [3]
    assert zeros[0].location == pytest.approx(0.0, abs=1e-5)


def _pair_windows(rng, n):
    """(amps, freqs, centres) of n unit windows at 0, each with a real zero
    and a second zero within 0.2 of it, on the axis, 1e-6 or 1e-4 above
    it. Some runs hold both, and one Newton step may land on either. The
    closed form crosses none: the bound M2 R on these sums outweighs |q'|."""
    z = rng.uniform(-0.45, 0.45, n)
    w = z + rng.uniform(-0.2, 0.2, n) + 1j * rng.choice([0.0, 1e-6, 1e-4], n)
    return (*_two_zero_rows(np.column_stack([z, w])), np.zeros(n))


@pytest.mark.parametrize("zero", [0.0, 0.15 + 1e-3j, 0.15 + 2e-5j])
def test_crossings_need_the_zero_inside(zero):
    # sin(z - z0) on the segment [-0.05, 0.05] and on [0.1, 0.2]. One
    # Newton step from either chord root lands at Re z0, where the bounds
    # alone would put one simple zero; the segment crosses only a zero
    # within delta of the axis and inside it: sin's zero at 0 on the first
    # segment, and no zero outside it or above the second by 1e-3 or 2e-5
    amps = np.array([[-0.5j * np.exp(-1j * zero), 0.5j * np.exp(1j * zero)]] * 2)
    g = np.array([1.0, -1.0])
    a, b = np.array([-0.05, 0.1]), np.array([0.05, 0.2])
    qa, qb = (np.sin(np.asarray(s) - zero) for s in (a, b))
    up, down, settled = tracker._crossings(amps, g, a, b, qa, qb)
    assert settled.tolist() == [zero == 0.0, False]
    assert np.isnan(up[1]) and np.isnan(down[1])
    if zero == 0.0:
        assert (up[0], down[0]) == pytest.approx((-PI, PI), abs=1e-15)


def _crossing_cases(rng):
    """(amps, freqs, centres) batches of unit windows whose runs cross simple
    zeros: 2000 sin windows at random centres, the simple form at every
    height of HEIGHTS and sin within 1e-9 of a point of its first sampling;
    and last, 2000 windows of pairs of zeros, which the closed form
    refuses."""
    yield np.array([[-0.5j, 0.5j]] * 2000), [1, -1], rng.uniform(-500.0, 500.0, 2000)
    yield _zero_windows("simple", rng)[:3]
    yield _detour_cases("at-a-sample", rng)
    yield _pair_windows(rng, 2000)


def _iv_dq(amps, g, x):
    """Interval enclosure (re, im) of q'(x) = sum_k i g[k] amps[k] exp(i g[k] x)."""
    re = im = iv.mpf(0)
    for a, gk in zip(amps, g):
        r, i = _iv_q([a], [gk], complex(x))
        re, im = re - iv.mpf(gk) * i, im + iv.mpf(gk) * r
    return re, im


def _iv_crossing_holds(amps, g, a, b, x):
    """Whether the closed form's certificate at x holds in interval
    arithmetic for the run [a, b] of the sum sum_k amps[k] exp(i g[k] s):
    with e >= |q(x)|, d <= |q'(x)|, rho = 2 e / d, r >= hypot(max(x - a,
    b - x), delta) and M2 >= sum |a_k| g_k^2 e^{|g_k| r}, m = min(x - a,
    b - x), inequalities (i) e + M2 r^2 / 2 < d r and (ii) e + M2 rho^2 / 2
    < d rho of Rouche's theorem, rho <= min(delta, m), and (iii) the angle
    budget (M2 r / d)^2 + (rho / m)^2 < 1."""
    delta = iv.mpf(tracker._DELTAS[0])
    floor = tracker._STEP_FLOOR * float(np.abs(amps).sum())
    e = iv.mpf((_iv_abs(_iv_q(amps, g, complex(x))) + floor).b)
    d = iv.mpf(_iv_abs(_iv_dq(amps, g, x)).a)
    ia, ib, ix = iv.mpf(a), iv.mpf(b), iv.mpf(x)
    m = iv.mpf(min((ix - ia).a, (ib - ix).a))
    r = iv.mpf(iv.sqrt(max((ix - ia).b, (ib - ix).b) ** 2 + delta ** 2).b)
    mods = [_iv_abs((iv.mpf(c.real), iv.mpf(c.imag))) for c in amps]
    m2 = sum(mk * iv.mpf(gk) ** 2 * iv.exp(abs(iv.mpf(gk)) * r) for mk, gk in zip(mods, g))
    rho = 2 * e / d
    return ((e + m2 * r * r / 2).b < (d * r).a
            and (e + m2 * rho * rho / 2).b < (d * rho).a
            and rho.b <= min(delta.a, m.a)
            and ((m2 * r / d) ** 2 + (rho / m) ** 2).b < 1)


def test_accepted_crossings_hold_in_interval_arithmetic(sin_sum, monkeypatch):
    # every run the closed form settles has a certificate that holds in
    # interval arithmetic, recomputed from the row's own amplitudes at the
    # engine's x, and its up turn lies in (-2 pi, 0], down = up + 2 pi. The
    # runs are those of _crossing_cases' unit windows, and of wide rows,
    # where the rounding of exp(i g x) grows with |x|: the far-sin scan,
    # seen from its middle, and one window of sin 25,000 wide. Of each
    # batch, the 300 runs farthest from their row's middle are checked
    batches, crossings = [], tracker._crossings

    def spy(amps, g, a, b, qa, qb):
        out = crossings(amps, g, a, b, qa, qb)
        for r in np.flatnonzero(out[2]):
            batches[-1].append((amps[r], g, a[r], b[r], qa[r], qb[r], out[0][r], out[1][r]))
        return out

    monkeypatch.setattr(tracker, "_crossings", spy)
    for amps, freqs, centers in _crossing_cases(np.random.default_rng(89)):
        batches.append([])
        unit_increments(amps, freqs, centers)
    batches.append([])
    locate_zeros(sin_sum, (20000.5, 21000.5))
    batches.append([])
    unit_increments(np.array([[-0.5j, 0.5j]]), [1, -1], np.array([0.25]), 25000.0)
    monkeypatch.undo()
    counts = [len(batch) for batch in batches]
    assert min(counts[:3]) > 0 and counts[3:] == [0, 318, 7957]
    for batch in batches:
        batch.sort(key=lambda run: -max(abs(run[2]), abs(run[3])))
        for amps, g, a, b, qa, qb, up, down in batch[:300]:
            chord = a + (b - a) * (qa / (qa - qb))
            x = float(tracker._newton_point(amps[None], g, np.array([chord]))[0][0])
            assert _iv_crossing_holds(amps, g.tolist(), a, b, x)
            assert -2 * PI < up <= 0 and down - up == pytest.approx(2 * PI, abs=1e-15)
    assert abs(batches[-1][0][2]) > 12490


def test_crossings_match_detours(monkeypatch):
    # with the closed form settling nothing, the +-delta detours give the
    # same increments to 1e-12 and the same windows done, on every batch of
    # _crossing_cases: the closed form crosses runs of all but the last
    cases = list(_crossing_cases(np.random.default_rng(97)))
    for k, (amps, freqs, centers) in enumerate(cases):
        crossed, detoured = _crossing_calls(monkeypatch)
        got = unit_increments(amps, freqs, centers)
        monkeypatch.undo()
        _settling_nothing(monkeypatch, "_crossings")
        want = unit_increments(amps, freqs, centers)
        monkeypatch.undo()
        assert (sum(crossed) > 0) == (k < len(cases) - 1)
        assert (got[2] == want[2]).all() and got[2].any()
        assert got[0] == pytest.approx(want[0], abs=1e-12, nan_ok=True)
        assert got[1] == pytest.approx(want[1], abs=1e-12, nan_ok=True)
