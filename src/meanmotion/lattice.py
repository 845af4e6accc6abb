"""Integer lattice basis of the group generated by rational exponent vectors.

Denominators are cleared with their LCM, the resulting integer matrix is
put in row-style Hermite normal form by unimodular row operations, and the
basis is read off the nonzero rows. The same reduction carries the
transformation matrix whose rows are each exponent's integer coordinates
(Cohen, GTM 138, section 2.4). All arithmetic uses Python ints and
Fractions; a coordinate beyond the double range is an input error.
Exponents are sequences of Fractions and basis vectors tuples of them,
so the module needs nothing of the package but its errors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    basis_vectors: tuple[tuple[Fraction, ...], ...]
    coords: tuple[tuple[int, ...], ...]


def hnf(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form of an integer matrix A, with the
    coordinates of A's rows in it.

    Returns (H, K): H holds the nonzero rows of the normal form, which
    span the same lattice as A's rows, and K has one row per row of A
    with K . H = A. K starts as the identity and undoes every row
    operation on A as a column operation, so the coordinates come out of
    the one reduction.
    """
    m = [[int(v) for v in row] for row in matrix]
    if not m:
        raise DegenerateInputError("empty matrix")
    rows, cols = len(m), len(m[0])
    # kt[k] is column k of K; it stays K . m = A throughout
    kt = [[int(i == k) for i in range(rows)] for k in range(rows)]

    def subtract(i, q, r):
        # row i -= q * row r, so column r of K += q * column i
        m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        kt[r] = [a + q * b for a, b in zip(kt[r], kt[i])]

    r = 0
    for c in range(cols):
        while True:
            live = [i for i in range(r, rows) if m[i][c] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: abs(m[i][c]))
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
                kt[r], kt[piv] = kt[piv], kt[r]
            if len(live) == 1:
                break
            for i in range(r + 1, rows):
                if m[i][c]:
                    subtract(i, m[i][c] // m[r][c], r)
        if m[r][c] == 0:
            continue
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
            kt[r] = [-a for a in kt[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                subtract(i, q, r)
        r += 1
        if r == rows:
            break
    return m[:r], [[kt[k][j] for k in range(r)] for j in range(rows)]


def group_basis(exponents: Sequence[Sequence[Fraction]]) -> LatticeBasis:
    """Z-basis of Lin_Z{l_1, ..., l_S} with exact coordinates for each l_j.

    The basis is the HNF of the denominator-cleared exponent matrix and the
    coordinates are hnf's K; an integer check that K . H rebuilds the
    matrix guards both. A coordinate above the largest double, such as
    10**400 for the exponents 1e-400 and 1, is a DegenerateInputError.
    """
    if not exponents:
        raise DegenerateInputError("empty exponent list")
    p = len(exponents[0])
    for e in exponents:
        if len(e) != p:
            raise DimensionError("exponents have mixed dimensions")
    if not any(map(any, exponents)):
        raise DegenerateInputError("all exponents are zero")
    denom = 1
    for e in exponents:
        for c in e:
            denom = math.lcm(denom, c.denominator)
    integer_rows = [[int(c * denom) for c in e] for e in exponents]
    h, k = hnf(integer_rows)
    for row, a in zip(k, integer_rows):
        if [sum(x * hr[c] for x, hr in zip(row, h)) for c in range(p)] != a:
            raise InternalConsistencyError(
                f"HNF coordinates {row} do not rebuild exponent row {a}"
            )
    if max(abs(x) for row in k for x in row) > sys.float_info.max:
        raise DegenerateInputError("a lattice coordinate is beyond the double range")
    basis = tuple(tuple(Fraction(v, denom) for v in row) for row in h)
    return LatticeBasis(p, len(basis), basis, tuple(map(tuple, k)))


def coordinates(lam: Sequence[Fraction], basis: LatticeBasis) -> tuple[int, ...]:
    """Exact integer coordinates of `lam` in `basis`, or MembershipError."""
    if len(lam) != basis.dimension:
        raise DimensionError("vector length mismatch")
    v = list(lam)
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
