"""Exponential sums with exact rational exponents.

The central object is P(z) = sum_j c_j * exp(i <z, l_j>) with complex
double-precision coefficients and exact rational exponent vectors l_j,
each a plain tuple of Fractions. Exactness lives only in the exponents;
all pairings <.,.> are bilinear (non-conjugating) and the rationals are
converted to doubles at the last step of every evaluation. lift takes each
exponent's integer coordinates from lattice.coordinates, and each
ExpPolynomial keeps the lattice.group_basis of its exponents once built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    InternalConsistencyError,
)
from .lattice import LatticeBasis, coordinates, group_basis

RationalLike = Union[int, str, Fraction]

MERGE_TOLERANCE = 1e-12


def as_rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "num/den" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class ExpTerm:
    """One (coefficient, exponent) pair of an exponential polynomial."""

    coefficient: complex
    exponent: tuple[Fraction, ...]

    def __post_init__(self):
        if self.coefficient == 0:
            raise DegenerateInputError("zero coefficient")
        if not cmath.isfinite(self.coefficient):
            raise DegenerateInputError("non-finite coefficient")


@dataclass(frozen=True)
class ExpPolynomial:
    """P(z) = sum_j c_j exp(i <z, l_j>) with pairwise distinct exponents."""

    dimension: int
    terms: tuple[ExpTerm, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionError("dimension must be positive")
        if not self.terms:
            raise DegenerateInputError("polynomial needs at least one term")
        seen: dict[tuple[Fraction, ...], int] = {}
        for k, term in enumerate(self.terms):
            if len(term.exponent) != self.dimension:
                raise DimensionError(
                    f"term {k}: exponent length {len(term.exponent)} != "
                    f"dimension {self.dimension}"
                )
            try:
                np.array(term.exponent, dtype=float)
            except OverflowError:
                raise DegenerateInputError(
                    f"term {k}: exponent component too large for a double"
                ) from None
            if term.exponent in seen:
                raise DegenerateInputError(
                    f"terms {seen[term.exponent]} and {k} share "
                    f"exponent {[str(c) for c in term.exponent]}"
                )
            seen[term.exponent] = k

    @classmethod
    def from_pairs(cls, dimension, pairs) -> "ExpPolynomial":
        """Build from (coefficient, exponent components) pairs; each
        component an int, Fraction or "num/den" string."""
        terms = tuple(
            ExpTerm(complex(c), tuple(map(as_rational, e))) for c, e in pairs
        )
        return cls(dimension, terms)

    @property
    def exponents(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(t.exponent for t in self.terms)

    @cached_property
    def _coeffs(self) -> np.ndarray:
        return np.array([t.coefficient for t in self.terms], dtype=complex)

    @cached_property
    def _lam(self) -> np.ndarray:
        # S x p float image of the exponent matrix
        return np.array(self.exponents, dtype=float)

    @cached_property
    def _lam_max(self) -> float:
        return float(np.abs(self._lam).max())

    def evaluate(self, z: Sequence[complex]) -> complex:
        if len(z) != self.dimension:
            raise DimensionError(
                f"point has length {len(z)}, expected {self.dimension}"
            )
        zv = np.asarray(z, dtype=complex)
        return complex(self._coeffs @ np.exp(1j * (self._lam @ zv)))

    def restrict_line(self, base: Sequence[complex]) -> "UnivariateExpSum":
        """Restriction s -> P(base + s e_1) along the first axis as a
        univariate sum.

        Frequencies are the exact first exponent components; amplitudes
        with equal frequency are merged and near-zero merged amplitudes
        dropped. Amplitudes that overflow raise DegenerateInputError;
        line_rows builds the same lines normalised.
        """
        if len(base) != self.dimension:
            raise DimensionError("base length mismatch")
        zv = np.asarray(base, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            amps = self._coeffs * np.exp(1j * (self._lam @ zv))
        if not np.isfinite(amps).all():
            raise DegenerateInputError(
                f"amplitudes overflow at height y = {zv.imag.tolist()}; "
                "ExpPolynomial.line_rows builds normalised restrictions"
            )
        return UnivariateExpSum.from_terms(
            zip(amps, (t.exponent[0] for t in self.terms))
        )

    @cached_property
    def _first_merge(self) -> tuple[tuple[Fraction, ...], np.ndarray]:
        """Distinct first exponent components, ascending, and the S x S'
        0/1 matrix that adds each term's amplitude into its component."""
        firsts = [t.exponent[0] for t in self.terms]
        freqs = tuple(sorted(set(firsts)))
        merge = np.array([[f == g for g in freqs] for f in firsts], dtype=complex)
        return freqs, merge

    @cached_property
    def _basis(self) -> LatticeBasis:
        """group_basis of the exponents, built once for every torus report."""
        return group_basis(self.exponents)

    def line_rows(self, y: Sequence[float], phases: np.ndarray) -> "LineRows":
        """Restrictions to lines along the first axis at height y, one per
        row of the B x S phase array.

        Row b has the amplitudes c_j * exp(w_j - max w) * exp(i phases[b, j])
        with w_j = -<l_j, y>, merged over equal first components. Dividing
        every amplitude by exp(max w) keeps them finite at any finite y,
        including where <l_j, y> is beyond the double range: l_j / max|l| is
        then paired with y / max|y_i| and the differences scaled back, one
        that overflows giving amplitude 0. A merged amplitude at or below
        MERGE_TOLERANCE times the largest unmerged one is set to 0, as
        UnivariateExpSum.from_terms drops it. A non-finite y is a
        DegenerateInputError.
        """
        yv = np.asarray(y, dtype=float)
        if yv.shape != (self.dimension,):
            raise DimensionError(f"y has {yv.size} components, not {self.dimension}")
        if not all(map(math.isfinite, yv.tolist())):
            raise DegenerateInputError(f"height y = {yv.tolist()} is not finite")
        top = max(map(abs, yv.tolist()))
        # |<l_j, y>| <= p max|l| max|y_i|, so below 1e307 no difference overflows
        if top * self._lam_max < 1e307 / self.dimension:
            w = -(self._lam @ yv)
            w -= w.max()
        else:
            with np.errstate(over="ignore"):
                w = -((self._lam / self._lam_max) @ (yv / top))
                w = (w - w.max()) * self._lam_max * top
        mags = self._coeffs * np.exp(w)
        freqs, merge = self._first_merge
        amps = (mags * np.exp(1j * phases)) @ merge
        amps[np.abs(amps) <= MERGE_TOLERANCE * np.abs(mags).max()] = 0
        return LineRows(amps, freqs)


class LineRows(NamedTuple):
    """Merged line restrictions: row b is s -> sum_k amps[b, k] exp(i freqs[k] s).

    An amplitude that cancelled in the merge is exactly 0, so a line on
    which P cancels identically has a row of zeros.
    """

    amps: np.ndarray  # B x S' complex
    freqs: tuple[Fraction, ...]  # distinct first exponent components, ascending

    def restriction(self, b: int) -> "UnivariateExpSum":
        return UnivariateExpSum(tuple(
            (complex(a), g) for a, g in zip(self.amps[b], self.freqs) if a
        ))


@dataclass(frozen=True)
class UnivariateExpSum:
    """q(s) = sum_k a_k exp(i g_k s) with pairwise distinct frequencies.

    Frequencies are exact Fractions when derived from rational data,
    floats otherwise. An empty term list marks the identically-zero sum.
    """

    terms: tuple[tuple[complex, Union[Fraction, float]], ...]

    @classmethod
    def from_terms(cls, pairs) -> "UnivariateExpSum":
        """Sum the amplitudes of equal frequencies, compared exactly: ints,
        strs and Fractions as rationals, floats by equality. A merged
        amplitude at or below MERGE_TOLERANCE times the largest given one
        is dropped."""
        pairs = [(complex(a), g) for a, g in pairs]
        groups: dict[Union[Fraction, float], complex] = {}
        for a, g in pairs:
            key = as_rational(g) if isinstance(g, (int, str, Fraction)) else float(g)
            groups[key] = groups.get(key, 0j) + a
        tol = MERGE_TOLERANCE * max((abs(a) for a, _ in pairs), default=0.0)
        return cls(tuple((a, g) for g, a in sorted(groups.items()) if abs(a) > tol))

    @property
    def is_identically_zero(self) -> bool:
        return not self.terms

    @cached_property
    def _amps(self) -> np.ndarray:
        return np.array([a for a, _ in self.terms], dtype=complex)

    @cached_property
    def _freqs(self) -> np.ndarray:
        return np.array([float(g) for _, g in self.terms], dtype=float)

    @cached_property
    def frequency_scale(self) -> float:
        """Sum of |g_k|; drives Nyquist-style sampling seeds."""
        return float(np.abs(self._freqs).sum())

    @cached_property
    def amplitude_scale(self) -> float:
        return float(np.abs(self._amps).sum())

    def __call__(self, s):
        """Evaluate at real or complex s (scalar or array)."""
        sv = np.asarray(s, dtype=complex)
        vals = np.exp(1j * np.multiply.outer(sv, self._freqs)) @ self._amps
        return complex(vals) if np.ndim(s) == 0 else vals

    def derivative(self, s):
        sv = np.asarray(s, dtype=complex)
        vals = np.exp(1j * np.multiply.outer(sv, self._freqs)) @ (
            1j * self._freqs * self._amps
        )
        return complex(vals) if np.ndim(s) == 0 else vals

    def leading_coefficient(self, z: complex, m: int) -> complex:
        """q^(m)(z) / m!; the leading Taylor coefficient at a zero of order m."""
        return complex(
            np.exp(1j * self._freqs * z) @ ((1j * self._freqs) ** m * self._amps)
        ) / math.factorial(m)


@dataclass(frozen=True)
class LiftedPolynomial:
    """Periodic extension F(z, w) = sum_j c_j exp(i<z,l_j> + i sum_r K[j][r] w_r).

    Satisfies F(t + iy, <m_1,x>, ..., <m_N,x>) = P(x + iy + t) for every
    real shift t when the coordinate matrix K expresses each exponent in
    the lattice basis m_1, ..., m_N.
    """

    base: ExpPolynomial
    basis_vectors: tuple[tuple[Fraction, ...], ...]
    coords: tuple[tuple[int, ...], ...]
    lift_dimension: int

    @cached_property
    def _K(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    @cached_property
    def _mu(self) -> np.ndarray:
        return np.array(self.basis_vectors, dtype=float)

    def evaluate(self, z: Sequence[complex], w: Sequence[complex]) -> complex:
        if len(w) != self.lift_dimension:
            raise DimensionError("w length mismatch")
        zv = np.asarray(z, dtype=complex)
        wv = np.asarray(w, dtype=complex)
        phases = self.base._lam @ zv + self._K @ wv
        return complex(self.base._coeffs @ np.exp(1j * phases))

    def line_restriction(self, y: Sequence[float], u: Sequence[float]) -> UnivariateExpSum:
        """Univariate sum s -> F(s + i y_1, i 'y, u) along the first axis,
        divided by a positive constant.

        Amplitudes c_j * exp(-<y, l_j>) * exp(i K_j . u), frequencies the
        first exponent components; equal first components merge.
        """
        phases = self._K @ np.asarray(u, dtype=float)
        return self.base.line_rows(y, phases[None]).restriction(0)


def lift(P: ExpPolynomial, basis) -> LiftedPolynomial:
    """Build the torus lift of P over a lattice basis of its exponents.

    lattice.coordinates gives each exponent's exact integer coordinates,
    so that K . mu = lambda, or raises MembershipError; the shift identity
    is self-checked at pseudo-random points.
    """
    K = tuple(coordinates(t.exponent, basis) for t in P.terms)
    lifted = LiftedPolynomial(P, basis.basis_vectors, K, basis.rank)
    _check_shift_identity(lifted)
    return lifted


def _check_shift_identity(lifted: LiftedPolynomial):
    """Check F(t + iy, mu x) = P(x + iy + t) to 1e-9 times max(|F|, |P|, 1)
    at 8 seeded points. Heights are drawn in [-1, 1]^p, shrunk by the
    largest exponent component above 1, so no term overflows however large
    the exponents are."""
    rng = np.random.default_rng(0x5EED)
    p = lifted.base.dimension
    mu = lifted._mu
    height = 1.0 / max(1.0, lifted.base._lam_max)
    for _ in range(8):
        t = rng.uniform(-3.0, 3.0, p)
        x = rng.uniform(-3.0, 3.0, p)
        y = rng.uniform(-height, height, p)
        lhs = lifted.evaluate(t + 1j * y, mu @ x)
        rhs = lifted.base.evaluate(x + 1j * y + t)
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1.0):
            raise InternalConsistencyError(
                f"shift identity violated: {lhs} != {rhs}"
            )
