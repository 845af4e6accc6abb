import math
from fractions import Fraction

import numpy as np
import pytest

from meanmotion import core, motion, tracker
from meanmotion.core import ExpPolynomial, UnivariateExpSum, lift
from meanmotion.errors import DegenerateInputError
from meanmotion.lattice import group_basis
from meanmotion.motion import (
    BoxSpec,
    MeanMotionEstimate,
    WindowSchedule,
    box_mean_motion,
    compare_estimators,
    direct_mean_motion,
    torus_mean,
)
from conftest import line_increments, random_poly

PI = math.pi
# 2 cos z - 2 = -4 sin^2(z/2) and (e^{iz} - 1)^3: a double and a triple
# zero every 2 pi
DOUBLE = ExpPolynomial.from_pairs(1, [(1, ["1"]), (-2, ["0"]), (1, ["-1"])])
TRIPLE = ExpPolynomial.from_pairs(1, [(1, ["3"]), (-3, ["2"]), (3, ["1"]), (-1, ["0"])])
# (e^{4iz} - 1)^2 and (e^{4iz} - 1)^3: the same zeros every pi / 2, whose
# leading coefficients 16 and 64 let the engine settle them at smaller shifts
DOUBLE4 = ExpPolynomial.from_pairs(1, [(1, ["8"]), (-2, ["4"]), (1, ["0"])])
TRIPLE4 = ExpPolynomial.from_pairs(
    1, [(1, ["12"]), (-3, ["8"]), (3, ["4"]), (-1, ["0"])]
)


def pure_exp(lam):
    return ExpPolynomial.from_pairs(1, [(1.0, [lam])])


class TestWindowedIncrement:
    # the unit window centred at x along the line x + iy, one line_rows row
    def test_pure_exponential(self):
        P = pure_exp("5/2")
        tp, tm = line_increments(P, [0.0], [0.3])
        assert tp == pytest.approx(2.5, abs=1e-9)
        assert tm == tp

    def test_sin_window_with_zero(self, sin_poly):
        tp, tm = line_increments(sin_poly, [0.0], [0.1])
        assert tp == pytest.approx(-PI, abs=1e-9)
        assert tm == pytest.approx(PI, abs=1e-9)

    def test_sin_window_without_zero(self, sin_poly):
        tp, tm = line_increments(sin_poly, [0.0], [PI / 2])
        assert tp == pytest.approx(0.0, abs=1e-9)
        assert tp == tm

    def test_identically_zero_line_skipped(self):
        P = ExpPolynomial.from_pairs(
            2, [(1.0, ["1", "0"]), (-1.0, ["1", "1"])]
        )
        # at x_2 = 2 pi the terms cancel only to rounding, below the floor
        for x2 in (0.0, 2 * PI):
            assert all(map(math.isnan, line_increments(P, [0.0, 0.0], [0.2, x2])))

    @pytest.mark.parametrize("P, center, plus, minus", [
        (DOUBLE, -0.5, -2 * PI, 2 * PI),
        (DOUBLE, 0.5, 0.0, 0.0),
        (TRIPLE, -0.5, 1.5 - 3 * PI, 1.5 + 3 * PI),
        (TRIPLE, 0.5, 1.5, 1.5),
    ], ids=["double-left", "double-right", "triple-left", "triple-right"])
    def test_multiple_zero_at_an_end(self, P, center, plus, minus):
        # the window (-1, 0) or (0, 1) ends on a double or triple zero; it
        # is traced at a centre shifted up, so the zero at 0 counts in the
        # left window and not in the right one. At a shift h from a zero of
        # order m, |q| is about h^m, and rounding of 1e-16 moves the phase
        # of the end value by 1e-16 / h^m: 1e-6 for the triple zero at 1e-3
        got = line_increments(P, [0.0], [center])
        assert got == pytest.approx((plus, minus), abs=1e-5)

    def test_modulation_shift(self, rng=np.random.default_rng(4)):
        # multiplying by e^{i g0 s} shifts every unit-window increment by
        # exactly g0, for either convention
        for _ in range(5):
            P = random_poly(rng, 1, 3)
            g0 = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            shifted = ExpPolynomial.from_pairs(
                1,
                [
                    (t.coefficient, [t.exponent[0] + g0])
                    for t in P.terms
                ],
            )
            x = [float(rng.uniform(-5, 5))]
            y = [float(rng.uniform(-1, 1))]
            tp, tm = line_increments(P, y, x)
            sp, sm = line_increments(shifted, y, x)
            if math.isnan(tp) or math.isnan(sp):
                continue
            assert sp - tp == pytest.approx(float(g0), abs=1e-9)
            assert sm - tm == pytest.approx(float(g0), abs=1e-9)


class TestDirectMeanMotion:
    def test_pure_exponential_exact(self):
        P = pure_exp("3")
        box = BoxSpec((0.0,), (100.0,))
        plus, minus = direct_mean_motion(P, [0.0], box)
        assert plus.value == pytest.approx(3.0, abs=1e-9)
        assert minus.value == plus.value
        assert plus.per_window == ((100.0, plus.value),)
        assert (plus.skipped_lines, plus.total_lines) == (0, 1)

    def test_sin_long_interval(self, sin_poly):
        box = BoxSpec((0.0,), (100 * PI,))
        plus, minus = direct_mean_motion(sin_poly, [0.0], box)
        assert plus.value == pytest.approx(-1.0, abs=1e-9)
        assert minus.value == pytest.approx(1.0, abs=1e-9)
        assert (plus.convention, minus.convention) == ("plus", "minus")

    def test_double_zero_long_interval(self):
        # 2 cos z - 2 = -4 sin^2(z/2): a double zero every 2 pi, c+- = -+1
        plus, minus = direct_mean_motion(DOUBLE, [0.0], BoxSpec((1.0,), (1.0 + 40 * PI,)))
        assert plus.value == pytest.approx(-1.0, abs=1e-9)
        assert minus.value == pytest.approx(1.0, abs=1e-9)
        assert plus.skipped_lines == 0

    @pytest.mark.parametrize("P, plus, minus", [(DOUBLE, -1.0, 1.0), (TRIPLE, 0.0, 3.0)],
                             ids=["double", "triple"])
    def test_box_edges_on_multiple_zeros(self, P, plus, minus):
        # both edges of (0, 20 pi) sit on a zero of order 2 or 3; the window
        # is traced again at the shifted centres, not skipped
        got = direct_mean_motion(P, [0.0], BoxSpec((0.0,), (20 * PI,)))
        assert (got[0].value, got[1].value) == pytest.approx((plus, minus), abs=1e-8)
        assert got[0].skipped_lines == 0

    def test_box_edges_must_be_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                BoxSpec((0.5,), (bad,))
            with pytest.raises(ValueError, match="finite"):
                BoxSpec((0.0, bad), (1.0, 2.0))

    def test_too_long_box_is_degenerate(self, sin_poly):
        # 1e8 of sin would take 2.5e8 first-sampling steps
        with pytest.raises(DegenerateInputError, match="steps"):
            direct_mean_motion(sin_poly, [0.0], BoxSpec((0.5,), (1e8,)))

    def test_box_dimension_mismatch(self, sin_poly):
        with pytest.raises(ValueError):
            direct_mean_motion(sin_poly, [0.0], BoxSpec((0, 0), (1, 1)))

    def test_non_integer_lines_or_seed(self, sin_poly):
        box = BoxSpec((0.0,), (10.0,))
        with pytest.raises(TypeError):
            direct_mean_motion(sin_poly, [0.0], box, "plus", 16)
        with pytest.raises(TypeError):
            direct_mean_motion(sin_poly, [0.0], box, 16, 0.5)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            direct_mean_motion(sin_poly, [0.0], box, 16, -1)

    def test_every_line_skipped(self):
        # e^{iz_1} - e^{i(z_1 + z_2)} cancels identically on every line
        # with x_2 in (-1e-300, 1e-300)
        P = ExpPolynomial.from_pairs(2, [(1, ["1", "0"]), (-1, ["1", "1"])])
        with pytest.raises(DegenerateInputError, match="every sampled line"):
            direct_mean_motion(P, [0.0, 0.0], BoxSpec((0.0, -1e-300), (1.0, 1e-300)))

    @pytest.mark.parametrize("alpha, beta, match", [
        ((0.0,), (1.0, 1.0), "length mismatch"),
        ((0.0, 1.0), (1.0, 1.0), "alpha_j < beta_j"),
        ((2.0,), (1.0,), "alpha_j < beta_j"),
    ], ids=["lengths", "flat", "reversed"])
    def test_malformed_box_rejected(self, alpha, beta, match):
        with pytest.raises(ValueError, match=match):
            BoxSpec(alpha, beta)

    def test_lines_must_be_positive(self, sin_poly):
        with pytest.raises(ValueError):
            direct_mean_motion(sin_poly, [0.0], BoxSpec((0.0,), (10.0,)), 0)


def _recording_rngs(monkeypatch):
    """Patch np.random.default_rng to keep every generator it makes, by seed."""
    made = {}
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng",
        lambda seed: made.setdefault(seed, []).append(default_rng(seed))
        or made[seed][-1],
    )
    return made


def _with_sin_factor(P):
    """P(z) sin z_1, expanded: every line along the first axis has the
    zeros k pi of sin."""
    terms = {}
    for t in P.terms:
        for c, d in ((-0.5j, 1), (0.5j, -1)):
            e = (t.exponent[0] + d, *t.exponent[1:])
            terms[e] = terms.get(e, 0) + c * t.coefficient
    return ExpPolynomial.from_pairs(P.dimension, [(c, e) for e, c in terms.items()])


def _end_on_zero_case(case, sin_poly):
    """The polynomial of a case, the spacing of the zeros of its lines and
    the order of those zeros."""
    if case == "sin":
        return sin_poly, PI, 1
    if case == "random":
        return _with_sin_factor(random_poly(np.random.default_rng(1), 2, 3)), PI, 1
    return {
        "double": (DOUBLE, 2 * PI, 2),
        "triple": (TRIPLE, 2 * PI, 3),
        "double-4": (DOUBLE4, PI / 2, 2),
        "triple-4": (TRIPLE4, PI / 2, 3),
    }[case]


def _lines_ending_on_zeros(P, spacing=PI):
    """80 seeded lines x (centre, transverse coordinates) and a mask of
    those whose window's end is a zero, one every spacing along x_1 = 0."""
    rng = np.random.default_rng(3)
    xs = rng.uniform(-20.0, 20.0, (80, P.dimension))
    on_zero = rng.random(80) < 0.25
    ends = spacing * rng.integers(-6, 7, on_zero.sum())
    xs[on_zero, 0] = ends + rng.choice([-0.5, 0.5], on_zero.sum())
    return xs, on_zero


class TestBoxMeanMotion:
    def test_sin_converges(self, sin_poly):
        sched = WindowSchedule(sizes=(50.0, 100.0, 200.0), lines_per_box=256)
        est, _ = box_mean_motion(sin_poly, [0.0], sched)
        assert isinstance(est, MeanMotionEstimate)
        # jump indicator has std ~ pi * 0.47; 256 lines -> stderr ~ 0.09
        assert est.value == pytest.approx(-1.0, abs=0.3)
        assert est.reliable
        assert len(est.per_window) == 3

    def test_deterministic(self, sin_poly):
        sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=32, seed=7)
        a = box_mean_motion(sin_poly, [0.0], sched)
        b = box_mean_motion(sin_poly, [0.0], sched)
        assert a == b

    def test_deep_strip_dominant_term(self, sin_poly):
        # at y = 3 the frequency -1 term dominates; no zeros on the line
        sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=32)
        est_p, est_m = box_mean_motion(sin_poly, [3.0], sched)
        # subdominant term is e^{-6}-small; residual wiggle ~ 5e-3
        assert est_p.value == pytest.approx(-1.0, abs=0.01)
        assert est_m.value == pytest.approx(-1.0, abs=0.01)

    @pytest.mark.parametrize("case", ["sin", "random", "double", "double-4"])
    def test_windows_ending_on_zeros_match_per_line_loop(self, case, sin_poly):
        # a window with an end exactly on a zero is settled again alone at
        # shifted centres: over 80 lines in one unit_increments call, every
        # window is taken, with the values of a per-line loop.
        # (Near a triple zero, rounding that differs between a batch and a
        # single row is amplified past 1e-12: 1.2e-10 for a batch window
        # ending 0.015 from one.)
        P, spacing, _ = _end_on_zero_case(case, sin_poly)
        y, (xs, on_zero) = [0.0] * P.dimension, _lines_ending_on_zeros(P, spacing)
        want = [line_increments(P, y, x) for x in xs]
        rows = P.line_rows(y, motion._perp_phases(P, xs[:, 1:]))
        vp, vm, done = tracker.unit_increments(*rows, xs[:, 0])
        assert on_zero.sum() >= 10 and done.all()
        assert np.column_stack([vp, vm]) == pytest.approx(np.array(want), abs=1e-12)

    @pytest.mark.parametrize(
        "case", ["sin", "random", "double", "triple", "double-4", "triple-4"]
    )
    def test_window_tracked_once_per_centre(self, case, sin_poly, monkeypatch):
        # the windows with an end on a zero of order m, which the batch
        # cannot settle, are settled again alone, in line order, at their
        # centre plus each of _SHIFTS up to the first d with |c_m| d^m above
        # the step floor F = 1e-12 sum |a_k|, c_m the leading coefficient at
        # the zero: 1e-7 for a simple zero of sin, 1e-5 for the double zero
        # (F = 4e-12), 1e-3 for the triple zero (F = 8e-12), 1e-6 and 1e-4
        # at frequency 4 (|c_m| = 16 and 64)
        P, spacing, order = _end_on_zero_case(case, sin_poly)
        xs, on_zero = _lines_ending_on_zeros(P, spacing)
        calls = []
        increments = tracker._increments
        monkeypatch.setattr(
            tracker, "_increments",
            lambda *a: calls.append(a[2].tolist()) or increments(*a),
        )
        rows = P.line_rows([0.0] * P.dimension, motion._perp_phases(P, xs[:, 1:]))
        vp, _, done = tracker.unit_increments(*rows, xs[:, 0])
        assert [len(c) for c in calls if len(c) > 1] == [80]

        def shifts(b):
            c = xs[b, 0]
            q = rows.restriction(b)
            c_m = abs(q.leading_coefficient(spacing * round(c / spacing), order))
            floor = tracker._STEP_FLOOR * q.amplitude_scale
            rung = next(d for d in tracker._SHIFTS if c_m * d**order > floor)
            return [c + d for d in tracker._SHIFTS[: tracker._SHIFTS.index(rung) + 1]]

        retried = [c for (c,) in (c for c in calls if len(c) == 1)]
        assert retried == [c for b in np.flatnonzero(on_zero) for c in shifts(b)]
        assert (len(vp), done.sum()) == (80, 80)

    def test_triple_zero_detours_settle_by_frequency(self, monkeypatch):
        # a window holding a triple zero takes the +-delta detours and
        # settles at the first delta where both pass: 1e-3 for the zeros of
        # (e^{is} - 1)^3, 1e-4 for those of (e^{4is} - 1)^3, whose leading
        # coefficient is 64, and these never reach 1e-3
        calls, trace = [], tracker._trace

        def spy(amps, g, t, *rest):
            out = trace(amps, g, t, *rest)
            calls.append((float(np.abs(t.imag).max()), out[1].all(axis=1)))
            return out

        monkeypatch.setattr(tracker, "_trace", spy)
        rng = np.random.default_rng(5)
        for P, spacing, smooth, want in (
            (TRIPLE, 2 * PI, 1.5, {1e-5: 0, 1e-4: 0, 1e-3: 40}),
            (TRIPLE4, PI / 2, 6.0, {1e-5: 0, 1e-4: 40}),
        ):
            calls.clear()
            centers = spacing * rng.integers(-6, 7, 40) + rng.uniform(-0.45, 0.45, 40)
            rows = P.line_rows([0.0], np.zeros((40, len(P.terms))))
            vp, vm, done = tracker.unit_increments(*rows, centers)
            assert done.all()
            assert vp == pytest.approx(np.full(40, smooth - 3 * PI), abs=1e-6)
            assert vm == pytest.approx(np.full(40, smooth + 3 * PI), abs=1e-6)
            # the real-line pass, then one call per delta of the up and
            # down detours, in that order, of the runs not yet settled
            (axis, _), *detours = calls
            assert axis == 0
            settled = {d: int(np.logical_and(*ok.reshape(2, -1)).sum()) for d, ok in detours}
            assert settled == want

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            WindowSchedule(sizes=(50.0, 25.0))
        with pytest.raises(ValueError):
            WindowSchedule(lines_per_box=4)
        with pytest.raises(ValueError):
            WindowSchedule(sizes=())
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                WindowSchedule(sizes=(25.0, bad))
        for field, bad in (("lines_per_box", 16.5), ("lines_per_box", True),
                           ("seed", 0.5), ("seed", False)):
            with pytest.raises(TypeError, match=field):
                WindowSchedule(**{field: bad})
        with pytest.raises(ValueError, match="seed must be >= 0"):
            WindowSchedule(seed=-1)


class TestTorusMean:
    def test_sin_grid(self, sin_poly):
        got = torus_mean(sin_poly, [0.0], samples=4000, method="grid")
        assert got.plus == pytest.approx(-1.0, abs=0.01)
        assert (got.samples, got.skipped) == (4000, 0)

    def test_sin_minus_grid(self, sin_poly):
        got = torus_mean(sin_poly, [0.0], samples=4000, method="grid")
        assert got.minus == pytest.approx(1.0, abs=0.01)

    def test_cancelled_points_skipped(self):
        # e^{iz_1} (1 + e^{iz_2}) cancels identically on the lines through
        # u_2 = pi: the 3 such points of a 9-point grid have no increment
        # and are counted as skipped, not averaged in as 0
        P = ExpPolynomial.from_pairs(2, [(1, ["1", "0"]), (1, ["1", "1"])])
        got = torus_mean(P, [0.0, 0.0], samples=9, method="grid")
        assert (got.samples, got.skipped) == (6, 3)
        assert (got.plus, got.minus) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_pure_exponential(self):
        P = pure_exp("-3")
        got = torus_mean(P, [0.0], samples=64)
        assert got.plus == pytest.approx(-3.0, abs=1e-9)
        assert got.minus == pytest.approx(-3.0, abs=1e-9)

    def test_random_matches_grid(self, sin_poly):
        r = torus_mean(sin_poly, [0.0], samples=3000, seed=2)
        g = torus_mean(sin_poly, [0.0], samples=3000, method="grid")
        assert r.plus == pytest.approx(g.plus, abs=0.05)
        assert r.minus == pytest.approx(g.minus, abs=0.05)

    def test_deterministic(self, sin_poly):
        a = torus_mean(sin_poly, [0.0], samples=500, seed=9)
        b = torus_mean(sin_poly, [0.0], samples=500, seed=9)
        assert a == b

    def test_deep_strip(self, sin_poly):
        got = torus_mean(sin_poly, [3.0], samples=200)
        assert got.plus == pytest.approx(-1.0, abs=0.01)
        assert got.minus == pytest.approx(-1.0, abs=0.01)

    def test_split_double_zero_is_finite(self):
        # 2 cos z - 2: rounding splits its double zeros on the torus rows;
        # every window is still taken, and none is skipped or NaN
        got = torus_mean(DOUBLE, [0.0], samples=64, seed=0)
        assert math.isfinite(got.plus) and math.isfinite(got.minus)
        assert (got.samples, got.skipped) == (64, 0)
        assert got.plus == pytest.approx(-1.0, abs=3 * got.plus_stderr)

    @pytest.mark.parametrize("method", ["random", "grid"])
    @pytest.mark.parametrize("samples, error", [
        (0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError),
    ])
    def test_samples_validated(self, sin_poly, method, samples, error):
        with pytest.raises(error, match="samples"):
            torus_mean(sin_poly, [0.0], samples=samples, method=method)

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"method": "sobol"}, ValueError, "method must be"),
        ({"seed": -1}, ValueError, "seed must be >= 0"),
        ({"seed": 0.5}, TypeError, "seed"),
    ], ids=["unknown-method", "negative-seed", "float-seed"])
    def test_options_validated(self, sin_poly, kwargs, error, match):
        with pytest.raises(error, match=match):
            torus_mean(sin_poly, [0.0], samples=16, **kwargs)

    def test_every_sample_skipped(self):
        # the one point of a 1-point grid is u = (pi, pi), where
        # e^{iz_1} (1 + e^{iz_2}) cancels identically
        P = ExpPolynomial.from_pairs(2, [(1, ["1", "0"]), (1, ["1", "1"])])
        with pytest.raises(DegenerateInputError, match="every torus sample"):
            torus_mean(P, [0.0, 0.0], samples=1, method="grid")


@pytest.mark.parametrize("y, want, freq", [
    (800.0, -1.0, 1), (-800.0, 1.0, 1),
    (1e308, -1.0, 1), (-1e308, 1.0, 1),
    (1e308, -10.0, 10), (-1e308, 10.0, 10),
], ids=["800.0--1.0", "-800.0-1.0", "1e308--1.0", "-1e308-1.0",
        "sin10z-1e308--10.0", "sin10z--1e308-10.0"])
def test_large_height_does_not_overflow(y, want, freq):
    # exp(+-800) overflows a double, and at +-1e308 so do the differences
    # of the pairings -<l_j, y>, and at frequency 10 the pairings
    # themselves; the far-dominant term sets the motion
    if freq == 1:
        P = ExpPolynomial.from_pairs(1, [(1, ["1"]), (2, ["0"]), (1, ["-1"])])
    else:
        P = ExpPolynomial.from_pairs(1, [(-0.5j, ["10"]), (0.5j, ["-10"])])
    sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=16)
    for est in box_mean_motion(P, [y], sched):
        assert est.value == pytest.approx(want, abs=0.05)
        assert est.skipped_lines == 0
    got = torus_mean(P, [y], samples=64)
    assert (got.plus, got.minus) == pytest.approx((want, want), abs=0.05)
    assert got.skipped == 0


@pytest.mark.parametrize("skip", ["none", "in-one-box", "whole-box"])
def test_averages_are_np_means_to_the_bit(skip):
    # _box_average and _torus_average reduce both conventions at once and
    # give each box's np.mean(r[d]), nan for a box with no line kept, and
    # the torus's mean and a.std(ddof=1) / sqrt(n), to the bit. Reduced over
    # a[:, done], whose rows lie in Fortran order, the sums are not pairwise
    # as np.mean's, and the last bits move
    rng = np.random.default_rng(29)
    n, sizes = 64, (25.0, 50.0, 100.0)
    vp, vm = rng.normal(size=(2, n * len(sizes))) * 10.0 ** rng.uniform(-3, 3, n * len(sizes))
    done = np.ones(n * len(sizes), dtype=bool)
    if skip == "in-one-box":
        done[rng.choice(np.arange(n, 2 * n), 9, replace=False)] = False
    elif skip == "whole-box":
        done[n : 2 * n] = False
    box = motion._box_average([0.0], WindowSchedule(sizes, n), vp, vm, done)
    tor = motion._torus_average(vp, vm, done)
    for est, (value, stderr), v in zip(box, (tor[0:2], tor[2:4]), (vp, vm)):
        want = [np.mean(r[d]) if d.any() else math.nan
                for r, d in zip(v.reshape(-1, n), done.reshape(-1, n))]
        assert np.array_equal([m for _, m in est.per_window], want, equal_nan=True)
        assert np.isnan(want[1]) == (skip == "whole-box")
        a = v[done]
        assert (value, stderr) == (a.mean(), a.std(ddof=1) / math.sqrt(len(a)))
    assert box[0].skipped_lines == tor.skipped == (~done).sum()


def _cut_steps_certified(monkeypatch):
    """Count, in a one-item list, the steps the certified engine accepts
    after cutting a failed step: those narrower than a step width / n0 of
    the first sampling, n0 = tracker._first_steps(fs, width), of the
    windows being settled."""
    cut, first = [0], [math.inf]
    step_ok, first_steps = tracker._step_ok, tracker._first_steps

    def steps_spy(fs, width):
        n0 = first_steps(fs, width)
        first[0] = width / n0
        return n0

    def spy(h, *rest):
        ok = step_ok(h, *rest)
        cut[0] += int((ok & (h < first[0] - 1e-12)).sum())
        return ok

    monkeypatch.setattr(tracker, "_first_steps", steps_spy)
    monkeypatch.setattr(tracker, "_step_ok", spy)
    return cut


@pytest.mark.parametrize("case", ["sin", "double", "near-axis", "offaxis"])
def test_batched_windows_match_per_line_loop(case, sin_poly, monkeypatch):
    # at the real zero threshold the batch takes every window, with the
    # values of a per-line loop but for rounding; the schedule's generator
    # draws the line positions only
    if case == "sin":
        P, y = sin_poly, [0.0]
    elif case == "near-axis":
        # sin z + sin(3z) / 3 = sin z (2 - 4/3 sin^2 z), whose real zeros sit
        # 1e-5 below the line: the steps that pass them are certified only
        # after a cut. No term outweighs the others, as the two terms of sin
        # do off the axis, so unit_increments traces every line
        P = ExpPolynomial.from_pairs(1, [
            (-0.5j, ["1"]), (0.5j, ["-1"]), (-0.5j / 3, ["3"]), (0.5j / 3, ["-3"]),
        ])
        y = [1e-5]
    elif case == "double":  # 2(cos s - 1)
        P = ExpPolynomial.from_pairs(1, [(1, ["1"]), (1, ["-1"]), (-2, ["0"])])
        y = [0.0]
    else:
        P = random_poly(np.random.default_rng(52), 3, 5, max_num=6)
        y = [-0.31, 0.27, -0.25]
    sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=80, seed=5)
    rng = np.random.default_rng(sched.seed)
    want = []
    for L in sched.sizes:
        xs = rng.uniform(-L / 2, L / 2, size=(sched.lines_per_box, P.dimension))
        pairs = [line_increments(P, y, x) for x in xs]
        want.append(tuple(float(np.mean(v)) for v in zip(*pairs)))
    made = _recording_rngs(monkeypatch)
    cut = _cut_steps_certified(monkeypatch)
    plus, minus = box_mean_motion(P, y, sched)
    monkeypatch.undo()
    assert made[sched.seed][0].bit_generator.state == rng.bit_generator.state
    assert (plus.skipped_lines, minus.skipped_lines) == (0, 0)
    got = [(vp, vm) for (_, vp), (_, vm) in zip(plus.per_window, minus.per_window)]
    assert np.array(got) == pytest.approx(np.array(want), abs=1e-12)
    # steps that fail the step rule at their first sampling stay in the batch
    assert case != "near-axis" or cut[0] >= 40
    if case == "double":
        # on the torus rounding splits the double zero off the axis; see
        # TestTorusMean.test_split_double_zero_is_finite
        return

    # every torus window is taken in the batch, with the increments of a
    # one-window call on the lift's own restriction at that point
    basis = group_basis(P.exponents)
    lifted = lift(P, basis)
    # the route reads the coordinates that group_basis's HNF carries;
    # lift solves them again with lattice.coordinates, a separate code path
    assert basis.coords == lifted.coords
    vals = []
    for u in np.random.default_rng(11).uniform(0.0, 2 * PI, (300, basis.rank)):
        U = lifted.line_restriction(y, u)
        amps = np.array([[a for a, _ in U.terms]])
        plus, minus, done = tracker.unit_increments(amps, [g for _, g in U.terms], np.zeros(1))
        assert done[0]
        vals.append((plus[0], minus[0]))
    made = _recording_rngs(monkeypatch)
    got = torus_mean(P, y, samples=300, seed=11)
    monkeypatch.undo()
    # torus_mean makes one generator, which draws the torus points only
    points = np.random.default_rng(11)
    points.uniform(0.0, 2 * PI, (300, basis.rank))
    assert len(made[11]) == 1
    assert made[11][0].bit_generator.state == points.bit_generator.state
    ap, am = np.array(vals).T.copy()
    assert got[4:] == (300, 0)
    assert got[:4] == pytest.approx((
        ap.mean(), ap.std(ddof=1) / math.sqrt(300),
        am.mean(), am.std(ddof=1) / math.sqrt(300),
    ), abs=1e-12)


@pytest.mark.parametrize("route", ["box", "torus"])
def test_sin_windows_stay_batched(route, sin_poly, monkeypatch):
    # sin's windows with a real zero are traced in the batch: a route's
    # one unit_increments call settles all its windows at their centres,
    # so no window is settled again alone at a shifted centre: the box
    # route's 4 x 64 windows and the torus's 400
    settled = []
    increments = tracker._increments

    def spy(*args):
        out = increments(*args)
        settled.append((len(args[2]), bool(out[2].all())))
        return out

    monkeypatch.setattr(tracker, "_increments", spy)
    if route == "box":
        box_mean_motion(sin_poly, [0.0], WindowSchedule(seed=3))
        assert settled == [(256, True)]
    else:
        torus_mean(sin_poly, [0.0], samples=400)
        assert settled == [(400, True)]


@pytest.mark.parametrize("route", ["direct", "box", "runs", "zeros"])
def test_calls_stay_within_point_budget(route, sin_poly, monkeypatch):
    # _trace takes its paths max(1, _BATCH_POINTS // len(t)) at a time and
    # _certify tests each batch's samples at t as one (steps x paths) array: a
    # 25,000-wide window of a sum with first exponents +-1 that no term
    # dominates samples 63,663 points, one line a batch; the 3 x 64 unit
    # windows of a sin report, n + 1 points each for a first sampling of n
    # steps, take one batch, and each run of failing steps crosses its
    # simple zero in closed form, with no +-delta detour; the detours of
    # 4000 windows on a double zero of 2 cos z - 2, len(_CUTS) + 2 points a
    # path, take more than one batch; and the 50,930 steps of
    # e^{is} + 1/2 over (0, 40000) are one row of 50,931 points, a batch
    # of their own, like the direct route's lines
    sampled, certify = [], tracker._certify

    def spy(amps, g, s, *rest):  # a batch's samples at t
        sampled.append((len(amps), len(s)))
        return certify(amps, g, s, *rest)

    monkeypatch.setattr(tracker, "_certify", spy)
    n = tracker._first_steps(2.0, 1.0)
    detour = len(tracker._CUTS) + 2
    if route == "direct":
        P = ExpPolynomial.from_pairs(
            2, [(1, ["1", "0"]), (-1, ["-1", "0"]), (0.5, ["0", "1"])]
        )
        box = BoxSpec((0.0, 0.0), (25000.0, 2 * PI))
        direct_mean_motion(P, [0.0, 0.0], box, lines=6)
        assert sampled == [(1, 63663)] * 6
    elif route == "box":
        box_mean_motion(sin_poly, [0.0], WindowSchedule((25.0, 50.0, 100.0), 64))
        assert sampled == [(192, n + 1)]
    elif route == "runs":
        rng = np.random.default_rng(5)
        centres = 2 * PI * rng.integers(-80, 80, 4000) + rng.uniform(-0.45, 0.45, 4000)
        assert tracker.unit_increments(np.array([[1, -2, 1]] * 4000), [1, 0, -1], centres)[2].all()
        paths = [r for r, k in sampled if k == detour]
        assert sum(r for r, k in sampled if k == n + 1) == 4000
        assert len(paths) > 1 and sum(paths) > tracker._BATCH_POINTS // detour
    else:
        U = UnivariateExpSum.from_terms([(1, 1), (0.5, 0)])
        assert tracker.locate_zeros(U, (0.0, 40000.0)) == []
        assert sampled == [(1, 50931)]
    assert all(rows * n <= tracker._BATCH_POINTS for rows, n in sampled if rows > 1)


def _engine_calls(monkeypatch):
    """Patch motion.unit_increments to record the row count of each call."""
    calls, engine = [], motion.unit_increments

    def spy(amps, *rest):
        calls.append(len(amps))
        return engine(amps, *rest)

    monkeypatch.setattr(motion, "unit_increments", spy)
    return calls


def _basis_builds(monkeypatch):
    """Patch the group_basis that ExpPolynomial reads to record each call."""
    built, basis = [], core.group_basis
    monkeypatch.setattr(core, "group_basis", lambda e: built.append(e) or basis(e))
    return built


class TestCompareEstimators:
    def test_sin_passes(self, sin_poly):
        sched = WindowSchedule(sizes=(50.0, 100.0), lines_per_box=64)
        report = compare_estimators(sin_poly, [0.0], sched, samples=600)
        assert report["pass"]
        for conv in ("plus", "minus"):
            assert report["diff"][conv] <= report["tolerance"][conv]

    def test_two_dim_random(self):
        rng = np.random.default_rng(31)
        P = random_poly(rng, 2, 3)
        sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=32)
        report = compare_estimators(P, [0.2, -0.1], sched, samples=400)
        assert report["pass"]

    def test_report_shape(self, sin_poly):
        sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=32)
        report = compare_estimators(sin_poly, [0.0], sched, samples=200)
        assert set(report) == {"y", "box", "torus", "diff", "tolerance", "pass"}
        assert report["box"]["plus"]["total_lines"] == 64

    def test_unreliable_box_route_fails_within_tolerance(self, sin_poly, monkeypatch):
        # one of 64 box lines skipped is over 1% of them: the report fails
        # though both differences lie within their tolerances
        engine = motion.unit_increments

        def skip_first_line(*args):
            plus, minus, done = engine(*args)
            plus[0] = minus[0] = math.nan
            done[0] = False
            return plus, minus, done

        monkeypatch.setattr(motion, "unit_increments", skip_first_line)
        sched = WindowSchedule(sizes=(50.0,), lines_per_box=64)
        report = compare_estimators(sin_poly, [0.0], sched, samples=200)
        for conv in ("plus", "minus"):
            assert report["box"][conv]["skipped"] == 1
            assert not report["box"][conv]["reliable"]
            assert report["diff"][conv] <= report["tolerance"][conv]
        assert report["pass"] is False

    @pytest.mark.parametrize("skipped, total, reliable", [
        (0, 64, True), (1, 200, True), (1, 64, False), (2, 200, False),
    ])
    def test_reliable_below_one_percent_skipped(self, skipped, total, reliable):
        est = MeanMotionEstimate("plus", (0.0,), ((25.0, 0.0),), 0.0, 0.0, skipped, total)
        assert est.reliable is reliable

    @pytest.mark.parametrize("case", ["sin", "dominated", "offaxis", "cancelled"])
    def test_one_engine_call_per_report(self, case, sin_poly, monkeypatch):
        # the report settles both routes' windows in one unit_increments
        # call, with the numbers of each route run alone, to the bit
        samples, seed = 200, 3
        if case == "sin":
            P, y = sin_poly, [0.0]
        elif case == "dominated":  # the 2 outweighs the 0.5 on every line
            P = ExpPolynomial.from_pairs(2, [(2.0, ["1", "1"]), (0.5, ["2", "-1"])])
            y = [0.0, 0.0]
        elif case == "offaxis":
            P = random_poly(np.random.default_rng(52), 3, 5, max_num=6)
            y = [-0.31, 0.27, -0.25]
        else:
            # e^{iz_1} (1 + e^{iz_2}) on a 9-point grid: the 3 points with
            # u_2 = pi cancel, and the report still counts them as skipped
            P = ExpPolynomial.from_pairs(2, [(1, ["1", "0"]), (1, ["1", "1"])])
            y, samples, points = [0.0, 0.0], 9, motion._torus_points
            monkeypatch.setattr(motion, "_torus_points",
                                lambda rank, n, seed, method: points(rank, n, seed, "grid"))
        sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=32, seed=seed)
        box = box_mean_motion(P, y, sched)
        tor = torus_mean(P, y, samples, seed + 1)
        calls = _engine_calls(monkeypatch)
        report = compare_estimators(P, y, sched, samples=samples, seed=seed)
        assert calls == [64 + samples]
        assert tor.skipped == (3 if case == "cancelled" else 0)
        for est, (value, stderr) in zip(box, (tor[0:2], tor[2:4])):
            got = report["box"][est.convention]
            assert [v for _, v in got["per_window"]] == [v for _, v in est.per_window]
            assert (got["value"], got["skipped"], got["total_lines"]) == (
                est.value, est.skipped_lines, est.total_lines)
            got = report["torus"][est.convention]
            assert (got["value"], got["stderr"], got["samples"], got["skipped"]) == (
                value, stderr, tor.samples, tor.skipped)

    @pytest.mark.parametrize("samples, error", [
        (0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError),
    ])
    def test_samples_checked_before_engine_work(self, sin_poly, samples, error,
                                                monkeypatch):
        with pytest.raises(error, match="samples") as alone:
            torus_mean(sin_poly, [0.0], samples=samples)
        calls = _engine_calls(monkeypatch)
        with pytest.raises(error) as report:
            compare_estimators(sin_poly, [0.0], samples=samples)
        assert str(report.value) == str(alone.value)
        assert calls == []

    @pytest.mark.parametrize("schedule", [None, WindowSchedule()], ids=["default", "given"])
    def test_negative_seed_rejected_before_engine_work(self, sin_poly, schedule,
                                                       monkeypatch):
        # with a schedule given, the report's seed is checked too, although
        # its torus points would be drawn from seed + 1 = 0
        calls = _engine_calls(monkeypatch)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            compare_estimators(sin_poly, [0.0], schedule, samples=16, seed=-1)
        assert calls == []

    def test_basis_built_once_per_polynomial(self, monkeypatch):
        P = random_poly(np.random.default_rng(31), 2, 3)
        built = _basis_builds(monkeypatch)
        sched = WindowSchedule(sizes=(25.0,), lines_per_box=16)
        for seed in (0, 1):
            compare_estimators(P, [0.2, -0.1], sched, samples=50, seed=seed)
        torus_mean(P, [0.2, -0.1], samples=50)
        assert built == [P.exponents]
        # the cache lives on the instance, not on its exponents
        torus_mean(ExpPolynomial(P.dimension, P.terms), [0.2, -0.1], samples=50)
        assert built == [P.exponents] * 2

    def test_tiny_exponent_rejected_on_every_call(self, monkeypatch):
        # "1e-400" has the coordinate 10**400 against "1": group_basis
        # raises, nothing is cached, and the next call raises again
        P = ExpPolynomial.from_pairs(1, [(1, ["1e-400"]), (1, ["1"])])
        built, calls = _basis_builds(monkeypatch), _engine_calls(monkeypatch)
        sched = WindowSchedule(sizes=(5.0,), lines_per_box=16)
        for _ in range(2):
            with pytest.raises(DegenerateInputError, match="double range"):
                compare_estimators(P, [0.0], sched, samples=20)
            with pytest.raises(DegenerateInputError, match="double range"):
                torus_mean(P, [0.0], samples=20)
        assert len(built) == 4 and calls == []


# Both routes' numbers for three seeded reports; a change that is meant to
# keep the estimators' arithmetic must reproduce them. About half of the
# off-axis p=3 report's windows hold a complex zero near the axis.
GOLDEN = {
    "sin": {
        "box": {"plus": (-0.7853981633974483, 0, 64),
                "minus": (0.7853981633974483, 0, 64)},
        "torus": {"plus": (-0.9110618695410401, 0.10105353440130867, 0),
                  "minus": (0.9110618695410401, 0.10105353440130867, 0)},
    },
    "random": {
        "box": {"plus": (0.6364436541615917, 0, 64),
                "minus": (0.6364436541615917, 0, 64)},
        "torus": {"plus": (0.7287893603471304, 0.04656617317229568, 0),
                  "minus": (0.7287893603471304, 0.04656617317229568, 0)},
    },
    "offaxis": {
        "box": {"plus": (0.3306587548556259, 0, 64),
                "minus": (0.3306587548556259, 0, 64)},
        "torus": {"plus": (0.31913492660965476, 0.03787516028009068, 0),
                  "minus": (0.31913492660965476, 0.03787516028009068, 0)},
    },
}


def test_golden_reports(sin_poly):
    sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=32)
    P = random_poly(np.random.default_rng(31), 2, 3)
    Q = random_poly(np.random.default_rng(52), 3, 5, max_num=6)
    reports = {
        "sin": compare_estimators(sin_poly, [0.0], sched, samples=200, seed=0),
        "random": compare_estimators(P, [0.2, -0.1], sched, samples=400),
        "offaxis": compare_estimators(
            Q, [-0.31, 0.27, -0.25], sched, samples=400, seed=3
        ),
    }
    for name, want in GOLDEN.items():
        rep = reports[name]
        for conv in ("plus", "minus"):
            box, tor = rep["box"][conv], rep["torus"][conv]
            got_box = (box["value"], box["skipped"], box["total_lines"])
            got_tor = (tor["value"], tor["stderr"], tor["skipped"])
            assert got_box == pytest.approx(want["box"][conv], abs=1e-9)
            assert got_tor == pytest.approx(want["torus"][conv], abs=1e-9)
            # the tolerance is max(0.05, 3 (box spread + torus stderr))
            assert rep["tolerance"][conv] == max(0.05, 3.0 * (box["spread"] + tor["stderr"]))
    assert reports["sin"]["tolerance"] == pytest.approx(
        {"plus": 1.18673353702605, "minus": 1.18673353702605}, abs=1e-12)
