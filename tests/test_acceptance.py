"""Acceptance gate: ten cross-validated properties of the two estimators.

Each test prints a single pass/fail line and enforces its runtime budget.
Targets are either analytically forced (pure exponentials, dominant-term
regimes, characters) or derived from an independent counting oracle.
"""

import math
import time
from fractions import Fraction

import numpy as np

from meanmotion.core import ExpPolynomial, UnivariateExpSum, lift
from meanmotion.errors import EndpointZeroError
from meanmotion.lattice import group_basis
from meanmotion.motion import (
    WindowSchedule,
    box_mean_motion,
    compare_estimators,
    torus_mean,
)
from meanmotion.tracker import (
    arg_increment_pair,
    count_zeros_rectangle,
    locate_zeros,
)
from conftest import line_increments, random_poly

PI = math.pi


def report(num, label, ok):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_01_pure_exponential():
    sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=16)
    ok = True
    for lam in (Fraction(1), Fraction(5, 2), Fraction(-3)):
        t0 = time.perf_counter()
        P = ExpPolynomial.from_pairs(1, [(1.0, [lam])])
        box_p, box_m = box_mean_motion(P, [0.0], sched)
        tor = torus_mean(P, [0.0], samples=32)
        for v in (box_p.value, box_m.value, tor.plus, tor.minus):
            ok = ok and abs(v - float(lam)) < 1e-6
        ok = ok and (time.perf_counter() - t0) < 1.0
    report(1, "pure exponential", ok)


def test_02_sin_at_zero_height():
    t0 = time.perf_counter()
    sin = ExpPolynomial.from_pairs(1, [(-0.5j, ["1"]), (0.5j, ["-1"])])
    sched = WindowSchedule(sizes=(50.0, 100.0, 200.0), lines_per_box=1024)
    box_p, box_m = box_mean_motion(sin, [0.0], sched)
    # pool the three window means: 3072 lines, standard error ~ 0.026
    pool_p = float(np.mean([v for _, v in box_p.per_window]))
    pool_m = float(np.mean([v for _, v in box_m.per_window]))
    tor = torus_mean(sin, [0.0], samples=2000)
    ok = abs(pool_p + 1.0) < 0.05 and abs(pool_m - 1.0) < 0.05
    ok = ok and abs(tor.plus + 1.0) < 0.05 and abs(tor.minus - 1.0) < 0.05
    # the unit window sees the zero on a u-set of measure 2, jump -pi,
    # so the torus mean is -pi * 2 / (2 pi) = -1; deterministic grid
    grid = torus_mean(sin, [0.0], samples=4000, method="grid")
    ok = ok and abs(grid.plus + 1.0) <= 0.01 and abs(grid.minus - 1.0) <= 0.01
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(2, f"sin at y=0 ({elapsed:.1f}s)", ok)


def _dominant_poly(rng):
    """p=2, one coefficient larger than the sum of the rest."""
    s = 3
    exps = []
    seen = set()
    while len(exps) < s:
        e = (
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))),
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))),
        )
        if e in seen:
            continue
        seen.add(e)
        exps.append(e)
    coeffs = [4.0 * np.exp(1j * rng.uniform(0, 2 * PI))]
    coeffs += [
        0.3 * rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * PI))
        for _ in range(s - 1)
    ]
    pairs = [(c, [str(a) for a in e]) for c, e in zip(coeffs, exps)]
    return ExpPolynomial.from_pairs(2, pairs), float(exps[0][0])


def test_03_dominant_coefficient():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    sched = WindowSchedule(sizes=(25.0, 50.0, 100.0), lines_per_box=64)
    ok = True
    for _ in range(10):
        P, lam1 = _dominant_poly(rng)
        box_p, box_m = box_mean_motion(P, [0.0, 0.0], sched)
        tor = torus_mean(P, [0.0, 0.0], samples=300)
        vals = {
            ("box", "plus"): box_p.value,
            ("box", "minus"): box_m.value,
            ("torus", "plus"): tor.plus,
            ("torus", "minus"): tor.minus,
        }
        for v in vals.values():
            ok = ok and abs(v - lam1) < 0.05
        for route in ("box", "torus"):
            ok = ok and abs(vals[(route, "plus")] - vals[(route, "minus")]) < 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(3, f"dominant coefficient ({elapsed:.1f}s)", ok)


def test_04_estimator_cross_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    sched = WindowSchedule(sizes=(25.0, 50.0, 100.0), lines_per_box=64)
    ok = True
    for _ in range(10):
        p = int(rng.integers(2, 4))
        s = int(rng.integers(3, 6))
        P = random_poly(rng, p, s)
        y = [float(v) for v in rng.uniform(-0.5, 0.5, p)]
        rep = compare_estimators(P, y, sched, samples=1000, seed=1)
        for conv in ("plus", "minus"):
            ok = ok and rep["diff"][conv] <= rep["tolerance"][conv]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    report(4, f"box vs torus agreement ({elapsed:.1f}s)", ok)


def _box_character_averages(K, mu, L):
    """Midpoint-rule averages of exp(i K_j . (mu x)) over x in [-L/2, L/2]^p,
    one per row K_j of K."""
    p = mu.shape[1]
    n = int(16 * L) if p == 1 else int(2 * L)
    axis = -L / 2 + (np.arange(n) + 0.5) * (L / n)
    x = np.stack(np.meshgrid(*([axis] * p), indexing="ij"), -1).reshape(-1, p)
    return np.exp(1j * (x @ mu.T) @ K.T).mean(axis=0)


def test_05_character_averages():
    # The torus route samples the lift's characters u -> exp(i K_j . u) at
    # u = mu x; their box averages must tend to the torus averages.
    rng = np.random.default_rng(77)
    l_max = 200.0
    worst = 0.0
    for _ in range(18):
        p = int(rng.integers(1, 3))
        P = random_poly(rng, p, int(rng.integers(2, 5)), max_den=2)
        lifted = lift(P, group_basis(P.exponents))
        got = _box_character_averages(lifted._K, lifted._mu, l_max)
        want = np.all(lifted._K == 0, axis=1).astype(float)
        worst = max(worst, float(np.abs(got - want).max()))
    report(5, f"character averages (worst {worst * l_max:.2f}/L)",
           worst <= 4.0 / l_max)


def _random_line_sum(rng, nterms):
    freqs = rng.uniform(-3.0, 3.0, nterms)
    while np.min(np.abs(np.subtract.outer(freqs, freqs)) + np.eye(nterms)) < 0.05:
        freqs = rng.uniform(-3.0, 3.0, nterms)
    amps = rng.normal(size=nterms) + 1j * rng.normal(size=nterms)
    return UnivariateExpSum.from_terms(list(zip(amps, freqs)))


def test_06_jump_convention_identity():
    rng = np.random.default_rng(6)
    ok = True
    done = 0
    while done < 100:
        U = _random_line_sum(rng, int(rng.integers(2, 5)))
        a = float(rng.uniform(-4, 4))
        b = a + float(rng.uniform(0.5, 3.0))
        try:
            trace = arg_increment_pair(U, (a, b))
        except EndpointZeroError:
            continue
        gap = trace.minus - trace.plus
        counted = count_zeros_rectangle(U, (a, b, -1e-5, 1e-5))
        ok = ok and abs(gap - 2 * PI * counted) < 1e-6
        done += 1
    report(6, "jump convention identity", ok)


def test_07_winding_oracle():
    sin_sum = UnivariateExpSum.from_terms(
        [(-0.5j, Fraction(1)), (0.5j, Fraction(-1))]
    )
    cos_m1 = UnivariateExpSum.from_terms(
        [(1, Fraction(1)), (1, Fraction(-1)), (-2, Fraction(0))]
    )
    pure = UnivariateExpSum.from_terms([(1, Fraction(1))])
    ok = True
    # unit-height rectangles: all three examples have only real zeros,
    # so located multiplicity totals must match the contour counts exactly
    for U, box, expected in (
        (sin_sum, (-4, 4, -1, 1), 3),
        (cos_m1, (-1, 1, -1, 1), 2),
        (pure, (-4, 4, -1, 1), 0),
    ):
        a, b = box[0], box[1]
        located = sum(z.multiplicity for z in locate_zeros(U, (a, b)))
        counted = count_zeros_rectangle(U, box)
        ok = ok and located == counted == expected
    ok = ok and locate_zeros(cos_m1, (-1, 1))[0].multiplicity == 2
    ok = ok and locate_zeros(pure, (-4, 4)) == []
    report(7, "winding oracle", ok)


def test_08_modulation_shift():
    rng = np.random.default_rng(8)
    ok = True
    done = 0
    while done < 5:
        p = int(rng.integers(1, 3))
        P = random_poly(rng, p, 3)
        shift = tuple(
            Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            for _ in range(p)
        )
        shifted = ExpPolynomial.from_pairs(
            p,
            [
                (t.coefficient, [c + d for c, d in zip(t.exponent, shift)])
                for t in P.terms
            ],
        )
        x = [float(v) for v in rng.uniform(-5, 5, p)]
        y = [float(v) for v in rng.uniform(-0.5, 0.5, p)]
        tp, tm = line_increments(P, y, x)
        sp, sm = line_increments(shifted, y, x)
        if math.isnan(tp) or math.isnan(sp):
            continue
        ok = ok and abs((sp - tp) - float(shift[0])) < 1e-9
        ok = ok and abs((sm - tm) - float(shift[0])) < 1e-9
        done += 1
    report(8, "modulation-shift invariance", ok)


def test_09_deep_strip_limit():
    sin = ExpPolynomial.from_pairs(1, [(-0.5j, ["1"]), (0.5j, ["-1"])])
    sched = WindowSchedule(sizes=(25.0, 50.0), lines_per_box=32)
    ok = True
    box_p, box_m = box_mean_motion(sin, [3.0], sched)
    tor = torus_mean(sin, [3.0], samples=200)
    for v in (box_p.value, box_m.value, tor.plus, tor.minus):
        ok = ok and abs(v + 1.0) < 0.02

    # seeded 3-term p=1 polynomial; strip amplitudes |c_j| e^{-y lam_j}
    rng = np.random.default_rng(99)
    P = random_poly(rng, 1, 3)
    lams = [float(t.exponent[0]) for t in P.terms]
    cs = [abs(t.coefficient) for t in P.terms]
    for y in (8.0, -8.0):
        amps = [c * math.exp(-y * l) for c, l in zip(cs, lams)]
        j = int(np.argmax(amps))
        # analytic dominance check before trusting the estimators
        assert amps[j] > sum(a for i, a in enumerate(amps) if i != j)
        box_p, box_m = box_mean_motion(P, [y], sched)
        tor = torus_mean(P, [y], samples=200)
        for v in (box_p.value, box_m.value, tor.plus, tor.minus):
            ok = ok and abs(v - lams[j]) < 0.05
    report(9, "deep-strip limit", ok)


def test_10_multiple_real_zeros():
    # 2 cos z - 2 = -4 sin^2(z/2) has a double zero every 2 pi and no
    # smooth motion: c+- = -+1. (e^{iz} - 1)^3 has a triple zero every
    # 2 pi on the smooth motion 3/2: c+ = 0, c- = 3. Both routes must meet
    # the targets by the rule of `meanmotion verify`, and the deterministic
    # torus grid within 0.05.
    t0 = time.perf_counter()
    sched = WindowSchedule(sizes=(25.0, 50.0, 100.0), lines_per_box=128)
    ok = True
    for pairs, targets in (
        ([(1, ["1"]), (-2, ["0"]), (1, ["-1"])], (-1.0, 1.0)),
        ([(1, ["3"]), (-3, ["2"]), (3, ["1"]), (-1, ["0"])], (0.0, 3.0)),
    ):
        P = ExpPolynomial.from_pairs(1, pairs)
        rep = compare_estimators(P, [0.0], sched, samples=800)
        grid = torus_mean(P, [0.0], samples=1000, method="grid")
        for conv, target, on_grid in zip(("plus", "minus"), targets, grid[::2]):
            tol = max(rep["tolerance"][conv], 0.05)
            ok = ok and rep["diff"][conv] <= rep["tolerance"][conv]
            ok = ok and abs(rep["box"][conv]["value"] - target) <= tol
            ok = ok and abs(rep["torus"][conv]["value"] - target) <= tol
            ok = ok and abs(on_grid - target) <= 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(10, f"multiple real zeros ({elapsed:.1f}s)", ok)
