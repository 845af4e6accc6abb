"""Exponential sums with exact rational exponents.

The central object is P(z) = sum_j c_j * exp(i <z, l_j>) with complex
double-precision coefficients and exact rational exponent vectors l_j.
Exactness lives only in the exponents; all pairings <.,.> are bilinear
(non-conjugating) and the rationals are converted to doubles at the last
step of every evaluation.
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
class FrequencyVector:
    """Exact rational exponent vector in R^p."""

    components: tuple[Fraction, ...]

    @classmethod
    def of(cls, *components: RationalLike) -> "FrequencyVector":
        return cls(tuple(as_rational(c) for c in components))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    def as_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.components], dtype=float)

    def dot_exact(self, other: Sequence[RationalLike]) -> Fraction:
        if len(other) != len(self.components):
            raise DimensionError("vector lengths differ")
        return sum(
            (c * as_rational(o) for c, o in zip(self.components, other)),
            Fraction(0),
        )


@dataclass(frozen=True)
class ExpTerm:
    """One (coefficient, exponent) pair of an exponential polynomial."""

    coefficient: complex
    exponent: FrequencyVector

    def __post_init__(self):
        if self.coefficient == 0:
            raise DegenerateInputError("term coefficient must be nonzero")
        if not cmath.isfinite(self.coefficient):
            raise DegenerateInputError("term coefficient must be finite")


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
        seen = set()
        for k, term in enumerate(self.terms):
            if len(term.exponent) != self.dimension:
                raise DimensionError(
                    f"term {k}: exponent length {len(term.exponent)} != "
                    f"dimension {self.dimension}"
                )
            if term.exponent.components in seen:
                raise DegenerateInputError(
                    f"term {k}: duplicate exponent {term.exponent.components}"
                )
            seen.add(term.exponent.components)

    @classmethod
    def from_pairs(cls, dimension, pairs) -> "ExpPolynomial":
        """Build from (coefficient, exponent components) pairs."""
        terms = tuple(
            ExpTerm(complex(c), FrequencyVector.of(*e)) for c, e in pairs
        )
        return cls(dimension, terms)

    @property
    def exponents(self) -> tuple[FrequencyVector, ...]:
        return tuple(t.exponent for t in self.terms)

    @cached_property
    def _coeffs(self) -> np.ndarray:
        return np.array([t.coefficient for t in self.terms], dtype=complex)

    @cached_property
    def _lam(self) -> np.ndarray:
        # S x p float image of the exponent matrix
        return np.array([t.exponent.as_floats() for t in self.terms])

    def evaluate(self, z: Sequence[complex]) -> complex:
        if len(z) != self.dimension:
            raise DimensionError(
                f"point has length {len(z)}, expected {self.dimension}"
            )
        zv = np.asarray(z, dtype=complex)
        return complex(self._coeffs @ np.exp(1j * (self._lam @ zv)))

    def restrict_line(
        self,
        base: Sequence[complex],
        direction: Sequence[RationalLike] | None = None,
    ) -> "UnivariateExpSum":
        """Restriction s -> P(base + s * direction) as a univariate sum.

        Frequencies stay exact rationals when the direction is rational;
        amplitudes with equal frequency are merged and near-zero merged
        amplitudes dropped. Amplitudes that overflow raise
        DegenerateInputError; line_rows builds the same lines normalised.
        """
        if direction is None:
            direction = [1] + [0] * (self.dimension - 1)
        if len(base) != self.dimension or len(direction) != self.dimension:
            raise DimensionError("base/direction length mismatch")
        exact = all(isinstance(d, (int, Fraction, str)) for d in direction)
        if exact and all(as_rational(d) == 0 for d in direction):
            raise DegenerateInputError("direction must be nonzero")
        pairs = []
        zv = np.asarray(base, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            amps = self._coeffs * np.exp(1j * (self._lam @ zv))
        if not np.isfinite(amps).all():
            raise DegenerateInputError(
                f"amplitudes overflow at height y = {zv.imag.tolist()}; "
                "ExpPolynomial.line_rows builds normalised restrictions"
            )
        for k, term in enumerate(self.terms):
            if exact:
                gamma = term.exponent.dot_exact(direction)
            else:
                dv = np.asarray([float(d) for d in direction])
                gamma = float(term.exponent.as_floats() @ dv)
            pairs.append((complex(amps[k]), gamma))
        return UnivariateExpSum.from_terms(pairs)

    @cached_property
    def _first_merge(self) -> tuple[tuple[Fraction, ...], np.ndarray]:
        """Distinct first exponent components, ascending, and the S x S'
        0/1 matrix that adds each term's amplitude into its component."""
        firsts = [t.exponent[0] for t in self.terms]
        freqs = tuple(sorted(set(firsts)))
        merge = np.array([[f == g for g in freqs] for f in firsts], dtype=complex)
        return freqs, merge

    def line_rows(self, y: Sequence[float], phases: np.ndarray) -> "LineRows":
        """Restrictions to lines along the first axis at height y, one per
        row of the B x S phase array.

        Row b has the amplitudes c_j * exp(w_j - max w) * exp(i phases[b, j])
        with w_j = -<l_j, y>, merged over equal first components. Dividing
        every amplitude by exp(max w) keeps them finite at any |y| and
        leaves the argument unchanged. A non-finite y is a
        DegenerateInputError.
        """
        yv = np.asarray(y, dtype=float)
        if yv.shape != (self.dimension,):
            raise DimensionError("y length mismatch")
        if not np.isfinite(yv).all():
            raise DegenerateInputError(f"height y = {yv.tolist()} is not finite")
        w = -(self._lam @ yv)
        mags = self._coeffs * np.exp(w - w.max())
        freqs, merge = self._first_merge
        floor = MERGE_TOLERANCE * float(np.abs(mags).max())
        return LineRows((mags * np.exp(1j * phases)) @ merge, freqs, floor)


class LineRows(NamedTuple):
    """Merged line restrictions: row b is s -> sum_k amps[b, k] exp(i freqs[k] s).

    An amplitude at or below `floor` (the merge tolerance times the largest
    unmerged amplitude) is dropped, as UnivariateExpSum.from_terms does.
    """

    amps: np.ndarray  # B x S' complex
    freqs: tuple[Fraction, ...]  # distinct first exponent components, ascending
    floor: float

    def restriction(self, b: int) -> "UnivariateExpSum":
        return UnivariateExpSum(tuple(
            (complex(a), g)
            for a, g in zip(self.amps[b], self.freqs)
            if abs(a) > self.floor
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
        pairs = [(complex(a), g) for a, g in pairs]
        if not pairs:
            return cls(())
        tol = MERGE_TOLERANCE * max(abs(a) for a, _ in pairs)
        exact = all(isinstance(g, (int, Fraction)) for _, g in pairs)
        merged: list[tuple[complex, Union[Fraction, float]]] = []
        if exact:
            groups: dict[Fraction, complex] = {}
            for a, g in pairs:
                key = as_rational(g)
                groups[key] = groups.get(key, 0j) + a
            merged = [(a, g) for g, a in sorted(groups.items())]
        else:
            fl = sorted(((float(g), a) for a, g in pairs), key=lambda t: t[0])
            gtol = 1e-12 * max(1.0, max(abs(g) for g, _ in fl))
            cur_g, cur_a = fl[0]
            acc = []
            for g, a in fl[1:]:
                if g - cur_g <= gtol:
                    cur_a += a
                else:
                    acc.append((cur_a, cur_g))
                    cur_g, cur_a = g, a
            acc.append((cur_a, cur_g))
            merged = acc
        kept = tuple((a, g) for a, g in merged if abs(a) > tol)
        return cls(kept)

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
    basis_vectors: tuple[FrequencyVector, ...]
    coords: tuple[tuple[int, ...], ...]
    lift_dimension: int

    @cached_property
    def _K(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    @cached_property
    def _mu(self) -> np.ndarray:
        return np.array([m.as_floats() for m in self.basis_vectors])

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

    Verifies the exact coordinate reconstruction K . mu = lambda and
    self-checks the shift identity at pseudo-random points.
    """
    from .lattice import coordinates

    K = tuple(coordinates(t.exponent, basis) for t in P.terms)
    for j, (t, row) in enumerate(zip(P.terms, K)):
        recon = [
            sum(
                (Fraction(k) * mu[c] for k, mu in zip(row, basis.basis_vectors)),
                Fraction(0),
            )
            for c in range(P.dimension)
        ]
        if tuple(recon) != t.exponent.components:
            raise InternalConsistencyError(
                f"coordinate reconstruction failed for exponent {j}"
            )
    lifted = LiftedPolynomial(P, tuple(basis.basis_vectors), K, basis.rank)
    _check_shift_identity(lifted)
    return lifted


def _check_shift_identity(lifted: LiftedPolynomial, n: int = 8, rtol: float = 1e-9):
    rng = np.random.default_rng(0x5EED)
    p = lifted.base.dimension
    mu = lifted._mu
    for _ in range(n):
        t = rng.uniform(-3.0, 3.0, p)
        x = rng.uniform(-3.0, 3.0, p)
        y = rng.uniform(-1.0, 1.0, p)
        lhs = lifted.evaluate(t + 1j * y, mu @ x)
        rhs = lifted.base.evaluate(x + 1j * y + t)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs - rhs) > rtol * max(scale, 1.0):
            raise InternalConsistencyError(
                f"shift identity violated: {lhs} != {rhs}"
            )
