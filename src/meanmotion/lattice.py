"""Integer lattice basis of the group generated by rational exponent vectors.

Denominators are cleared with their LCM, the resulting integer matrix is
put in row-style Hermite normal form by unimodular row operations, and the
basis is read off the nonzero rows. All arithmetic uses Python
ints / Fractions, so there is no overflow to guard against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import FrequencyVector, as_rational
from .errors import (
    DegenerateInputError,
    DimensionError,
    InternalConsistencyError,
    MembershipError,
)


@dataclass(frozen=True)
class LatticeBasis:
    """HNF-canonical basis m_1..m_N of the lattice spanned by the inputs.

    `coords` holds the exact integer coordinates of each generating
    exponent in this basis, in input order.
    """

    dimension: int
    rank: int
    basis_vectors: tuple[FrequencyVector, ...]
    coords: tuple[tuple[int, ...], ...]


def hnf(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Nonzero rows of the row-style Hermite normal form of an integer
    matrix; they span the same lattice as its rows."""
    m = [[int(v) for v in row] for row in matrix]
    if not m:
        raise DegenerateInputError("empty matrix")
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        while True:
            live = [i for i in range(r, rows) if m[i][c] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: abs(m[i][c]))
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
            if len(live) == 1:
                break
            for i in range(r + 1, rows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        if m[r][c] == 0:
            continue
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return m[:r]


def rational_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank over Q by fraction-free Gaussian elimination."""
    m = [[as_rational(v) for v in row] for row in vectors]
    rank = 0
    rows, cols = len(m), len(m[0])
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, rows):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def group_basis(exponents: Sequence[FrequencyVector]) -> LatticeBasis:
    """Z-basis of Lin_Z{l_1, ..., l_S} with exact coordinates for each l_j."""
    if not exponents:
        raise DegenerateInputError("empty exponent list")
    p = len(exponents[0])
    for e in exponents:
        if len(e) != p:
            raise DimensionError("exponents have mixed dimensions")
    if all(e.is_zero for e in exponents):
        raise DegenerateInputError("all exponents are zero")
    denom = 1
    for e in exponents:
        for c in e:
            denom = math.lcm(denom, c.denominator)
    integer_rows = [
        [int(c * denom) for c in e.components] for e in exponents
    ]
    h = hnf(integer_rows)
    basis = tuple(
        FrequencyVector(tuple(Fraction(v, denom) for v in row)) for row in h
    )
    rank = len(basis)
    if rank != rational_rank([e.components for e in exponents]):
        raise InternalConsistencyError("HNF rank disagrees with rational rank")
    probe = LatticeBasis(p, rank, basis, ())
    coords = tuple(coordinates(e, probe) for e in exponents)
    return LatticeBasis(p, rank, basis, coords)


def coordinates(lam: FrequencyVector, basis: LatticeBasis) -> tuple[int, ...]:
    """Exact integer coordinates of `lam` in `basis`, or MembershipError."""
    if len(lam) != basis.dimension:
        raise DimensionError("vector length mismatch")
    v = list(lam.components)
    pivots = []
    for mu in basis.basis_vectors:
        piv = next(i for i, c in enumerate(mu) if c != 0)
        pivots.append(piv)
    ks = []
    for mu, piv in zip(basis.basis_vectors, pivots):
        q = v[piv] / mu[piv]
        if q.denominator != 1:
            raise MembershipError(
                f"{tuple(lam)} is not in the lattice (non-integer coordinate {q})"
            )
        k = int(q)
        ks.append(k)
        v = [a - k * b for a, b in zip(v, mu)]
    if any(a != 0 for a in v):
        raise MembershipError(f"{tuple(lam)} is not in the lattice")
    return tuple(ks)
