from fractions import Fraction

import numpy as np
import pytest

from meanmotion import motion
from meanmotion.core import ExpPolynomial, UnivariateExpSum
from meanmotion.tracker import unit_increments


@pytest.fixture
def sin_poly():
    # sin z = (e^{iz} - e^{-iz}) / 2i
    return ExpPolynomial.from_pairs(1, [(-0.5j, ["1"]), (0.5j, ["-1"])])


@pytest.fixture
def sin_sum(sin_poly):
    return sin_poly.restrict_line([0j])


@pytest.fixture
def cos_minus_one():
    # 2(cos s - 1): double zero at s = 0
    return UnivariateExpSum.from_terms(
        [(1, Fraction(1)), (1, Fraction(-1)), (-2, Fraction(0))]
    )


def random_poly(rng, p, s, max_num=3, max_den=3, coeff_scale=1.0):
    """Random rational-exponent polynomial with distinct exponents."""
    seen = set()
    pairs = []
    while len(pairs) < s:
        exp = tuple(
            f"{rng.integers(-max_num, max_num + 1)}/{rng.integers(1, max_den + 1)}"
            for _ in range(p)
        )
        key = tuple(Fraction(e) for e in exp)
        if key in seen:
            continue
        seen.add(key)
        c = coeff_scale * (rng.normal() + 1j * rng.normal())
        if abs(c) < 1e-3:
            c = coeff_scale * (1 + 1j)
        pairs.append((c, exp))
    return ExpPolynomial.from_pairs(p, pairs)


def line_increments(P, y, x):
    """(plus, minus) of the unit window centred at x along the line x + iy
    of P, through unit_increments on the line's one line_rows row: nan
    where the engine leaves the window undone."""
    x = np.asarray(x, dtype=float)
    plus, minus, _ = unit_increments(*P.line_rows(y, motion._perp_phases(P, x[None, 1:])), x[:1])
    return float(plus[0]), float(minus[0])
