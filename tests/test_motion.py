import math
from fractions import Fraction

import numpy as np
import pytest

from meanmotion import motion, tracker
from meanmotion.core import ExpPolynomial, lift
from meanmotion.lattice import group_basis
from meanmotion.motion import (
    BoxSpec,
    MeanMotionEstimate,
    SkippedLine,
    WindowSchedule,
    box_mean_motion,
    compare_estimators,
    direct_mean_motion,
    torus_mean,
    windowed_increment_pair,
)
from conftest import random_poly

PI = math.pi


def pure_exp(lam):
    return ExpPolynomial.from_pairs(1, [(1.0, [lam])])


class TestWindowedIncrement:
    def test_pure_exponential(self):
        P = pure_exp("5/2")
        tp, tm = windowed_increment_pair(P, [0.0], [0.3])
        assert tp == pytest.approx(2.5, abs=1e-9)
        assert tm == tp

    def test_sin_window_with_zero(self, sin_poly):
        tp, tm = windowed_increment_pair(sin_poly, [0.0], [0.1])
        assert tp == pytest.approx(-PI, abs=1e-9)
        assert tm == pytest.approx(PI, abs=1e-9)

    def test_sin_window_without_zero(self, sin_poly):
        tp, tm = windowed_increment_pair(sin_poly, [0.0], [PI / 2])
        assert tp == pytest.approx(0.0, abs=1e-9)
        assert tp == tm

    def test_identically_zero_line_skipped(self):
        P = ExpPolynomial.from_pairs(
            2, [(1.0, ["1", "0"]), (-1.0, ["1", "1"])]
        )
        with pytest.raises(SkippedLine):
            windowed_increment_pair(P, [0.0, 0.0], [0.2, 0.0])

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
            try:
                tp, tm = windowed_increment_pair(P, y, x)
                sp, sm = windowed_increment_pair(shifted, y, x)
            except SkippedLine:
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

    def test_box_dimension_mismatch(self, sin_poly):
        with pytest.raises(ValueError):
            direct_mean_motion(sin_poly, [0.0], BoxSpec((0, 0), (1, 1)))

    def test_non_integer_lines_or_seed(self, sin_poly):
        box = BoxSpec((0.0,), (10.0,))
        with pytest.raises(TypeError):
            direct_mean_motion(sin_poly, [0.0], box, "plus", 16)
        with pytest.raises(TypeError):
            direct_mean_motion(sin_poly, [0.0], box, 16, 0.5)

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

    @pytest.mark.parametrize("case", ["sin", "random"])
    def test_rng_drawn_as_on_scalar_path(self, case, sin_poly, monkeypatch):
        # a coarse zero threshold makes windows near zeros fail and retry,
        # drawing perturbations from the box's rng; 80 lines span two batches
        P = sin_poly if case == "sin" else random_poly(np.random.default_rng(1), 2, 3)
        y = [0.0] * P.dimension
        monkeypatch.setattr(tracker, "ZERO_THRESHOLD", 0.05)
        sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=80, seed=5)

        rng = np.random.default_rng(sched.seed)
        want, skipped = [], 0
        for L in sched.sizes:
            pairs = []
            xs = rng.uniform(-L / 2, L / 2, size=(sched.lines_per_box, P.dimension))
            for x in xs:
                try:
                    pairs.append(windowed_increment_pair(P, y, x, rng))
                except SkippedLine:
                    skipped += 1
            want.append(np.mean(pairs, axis=0))

        made = _recording_rngs(monkeypatch)
        plus, minus = box_mean_motion(P, y, sched)
        monkeypatch.undo()
        assert skipped > 0 and plus.skipped_lines == skipped
        assert made[sched.seed][0].bit_generator.state == rng.bit_generator.state
        for (_, vp), (_, vm), w in zip(plus.per_window, minus.per_window, want):
            assert (vp, vm) == pytest.approx(tuple(w), abs=1e-12)

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


class TestTorusMean:
    def test_sin_grid(self, sin_poly):
        basis = group_basis(sin_poly.exponents)
        got = torus_mean(sin_poly, [0.0], basis, samples=4000, method="grid")
        assert got.plus == pytest.approx(-1.0, abs=0.01)
        assert (got.samples, got.skipped) == (4000, 0)

    def test_sin_minus_grid(self, sin_poly):
        basis = group_basis(sin_poly.exponents)
        got = torus_mean(sin_poly, [0.0], basis, samples=4000, method="grid")
        assert got.minus == pytest.approx(1.0, abs=0.01)

    def test_pure_exponential(self):
        P = pure_exp("-3")
        basis = group_basis(P.exponents)
        got = torus_mean(P, [0.0], basis, samples=64)
        assert got.plus == pytest.approx(-3.0, abs=1e-9)
        assert got.minus == pytest.approx(-3.0, abs=1e-9)

    def test_random_matches_grid(self, sin_poly):
        basis = group_basis(sin_poly.exponents)
        r = torus_mean(sin_poly, [0.0], basis, samples=3000, seed=2)
        g = torus_mean(sin_poly, [0.0], basis, samples=3000, method="grid")
        assert r.plus == pytest.approx(g.plus, abs=0.05)
        assert r.minus == pytest.approx(g.minus, abs=0.05)

    def test_deterministic(self, sin_poly):
        basis = group_basis(sin_poly.exponents)
        a = torus_mean(sin_poly, [0.0], basis, samples=500, seed=9)
        b = torus_mean(sin_poly, [0.0], basis, samples=500, seed=9)
        assert a == b

    def test_deep_strip(self, sin_poly):
        basis = group_basis(sin_poly.exponents)
        got = torus_mean(sin_poly, [3.0], basis, samples=200)
        assert got.plus == pytest.approx(-1.0, abs=0.01)
        assert got.minus == pytest.approx(-1.0, abs=0.01)

    @pytest.mark.parametrize("method", ["random", "grid"])
    @pytest.mark.parametrize("samples, error", [
        (0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError),
    ])
    def test_samples_validated(self, sin_poly, method, samples, error):
        basis = group_basis(sin_poly.exponents)
        with pytest.raises(error, match="samples"):
            torus_mean(sin_poly, [0.0], basis, samples=samples, method=method)


@pytest.mark.parametrize("y, want", [(800.0, -1.0), (-800.0, 1.0)])
def test_large_height_does_not_overflow(y, want):
    # exp(+-800) overflows a double; the far-dominant term sets the motion
    P = ExpPolynomial.from_pairs(1, [(1, ["1"]), (2, ["0"]), (1, ["-1"])])
    sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=16)
    for est in box_mean_motion(P, [y], sched):
        assert est.value == pytest.approx(want, abs=0.05)
        assert est.skipped_lines == 0
    got = torus_mean(P, [y], group_basis(P.exponents), samples=64)
    assert (got.plus, got.minus) == pytest.approx((want, want), abs=0.05)
    assert got.skipped == 0


@pytest.mark.parametrize("case", ["sin", "offaxis"])
def test_batched_windows_match_per_line_loop(case, sin_poly, monkeypatch):
    # at the real zero threshold, flagged windows take the batch's clusters
    # into arg_increment_pair; rng draws are those of the loop, and values
    # too, but for the rounding of certified windows' batched increments
    if case == "sin":
        P, y = sin_poly, [0.0]
    else:
        P = random_poly(np.random.default_rng(52), 3, 5, max_num=6)
        y = [-0.31, 0.27, -0.25]
    sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=80, seed=5)
    rng = np.random.default_rng(sched.seed)
    want = []
    for L in sched.sizes:
        xs = rng.uniform(-L / 2, L / 2, size=(sched.lines_per_box, P.dimension))
        pairs = [windowed_increment_pair(P, y, x, rng) for x in xs]
        want.append(tuple(float(np.mean(v)) for v in zip(*pairs)))
    made = _recording_rngs(monkeypatch)
    plus, minus = box_mean_motion(P, y, sched)
    monkeypatch.undo()
    assert made[sched.seed][0].bit_generator.state == rng.bit_generator.state
    assert (plus.skipped_lines, minus.skipped_lines) == (0, 0)
    got = [(vp, vm) for (_, vp), (_, vm) in zip(plus.per_window, minus.per_window)]
    assert np.array(got) == pytest.approx(np.array(want), abs=1e-12)

    basis = group_basis(P.exponents)
    lifted = lift(P, basis)
    rng = np.random.default_rng(11)
    vals = []
    for u in np.random.default_rng(11).uniform(0.0, 2 * PI, (300, basis.rank)):
        U = lifted.line_restriction(y, u)
        vals.append(motion._pair_with_retries(U, 0.0, 1.0, rng))
    made = _recording_rngs(monkeypatch)
    got = torus_mean(P, y, basis, samples=300, seed=11)
    monkeypatch.undo()
    # torus_mean's first generator of seed 11 draws the retries
    assert made[11][0].bit_generator.state == rng.bit_generator.state
    ap, am = np.array(vals).T.copy()
    assert got[4:] == (300, 0)
    assert got[:4] == pytest.approx((
        ap.mean(), ap.std(ddof=1) / math.sqrt(300),
        am.mean(), am.std(ddof=1) / math.sqrt(300),
    ), abs=1e-12)


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
