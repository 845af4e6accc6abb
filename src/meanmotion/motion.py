"""Mean motion estimators: expanding-box averages and the torus oracle.

Two routes to c+(y), c-(y) that sample separately:

* box route - average unit-window argument increments of P along lines
  parallel to the first axis, over boxes of growing edge length;
* torus route - average the unit-window increment of the lifted sum
  F(s + i y_1, i 'y, u) over uniform torus points u in [0, 2pi]^N.

Both build their line restrictions with ExpPolynomial.line_rows and track
them with one window engine: a batched pass over up to _BATCH windows that
certifies the zero-free ones and isolates the zeros of the others, then
the scalar tracker for the windows it does not certify, which starts from
those clusters where the batched isolation had no irregular rectangle.
Agreement of the two within the dispersion-aware tolerance is the
artifact's core property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import ExpPolynomial, UnivariateExpSum, lift
from .errors import (
    DegenerateInputError,
    DimensionError,
    EndpointZeroError,
    SingularContourError,
    TrackingError,
)
from .lattice import LatticeBasis, group_basis
from .tracker import arg_increment_pair, zero_free_increments

_RETRIES = 8
_PERTURB = 1e-6
_BATCH = 64  # windows per batched pass; bounds its sample arrays


class SkippedLine(Exception):
    """A line whose restriction could not be tracked; counted, not averaged."""


def _check_count(name, value, least=None):
    """TypeError unless value is an int (not a bool); ValueError below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class BoxSpec:
    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha/beta length mismatch")
        if not all(a < b for a, b in zip(self.alpha, self.beta)):
            raise ValueError("box requires alpha_j < beta_j for all j")


@dataclass(frozen=True)
class WindowSchedule:
    sizes: tuple[float, ...] = (25.0, 50.0, 100.0, 200.0)
    lines_per_box: int = 64
    seed: int = 0

    def __post_init__(self):
        if not self.sizes or not all(0 < s < math.inf for s in self.sizes):
            raise ValueError("window sizes must be positive and finite")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("window sizes must be strictly increasing")
        _check_count("lines_per_box", self.lines_per_box, 16)
        _check_count("seed", self.seed)


@dataclass(frozen=True)
class MeanMotionEstimate:
    convention: str
    y: tuple[float, ...]
    per_window: tuple[tuple[float, float], ...]
    value: float
    spread: float
    skipped_lines: int
    total_lines: int

    @property
    def reliable(self) -> bool:
        return self.skipped_lines < 0.01 * max(self.total_lines, 1)


def _perp_phases(P: ExpPolynomial, xperp: np.ndarray) -> np.ndarray:
    """B x S phases <l_j', x'> of the lines with transverse coordinates xperp."""
    return xperp @ P._lam[:, 1:].T


def _line_sum(P: ExpPolynomial, y, xperp) -> UnivariateExpSum:
    """Restriction of P to s -> P((s, xperp) + iy) along the first axis,
    divided by a positive constant."""
    if len(xperp) != P.dimension - 1:
        raise DimensionError("xperp length mismatch")
    xperp = np.asarray(xperp, dtype=float)[None]
    return P.line_rows(y, _perp_phases(P, xperp)).restriction(0)


def _pair_with_retries(U, center, width, rng, clusters=None):
    """(plus, minus) increments over (center - w/2, center + w/2).

    Endpoint-zero and contour failures retry with the window centre
    perturbed by a seeded epsilon in (0, 1e-6); after 8 failures the line
    is skipped. A window first tried with precomputed clusters (see
    arg_increment_pair) that fails is redone from the start, so rng is
    drawn as if the clusters had not been given.
    """
    if clusters is not None:
        try:
            tp, tm = arg_increment_pair(
                U, (center - width / 2, center + width / 2), clusters
            )
            return tp.total_increment, tm.total_increment
        except (EndpointZeroError, SingularContourError, TrackingError):
            pass
    c = center
    for _ in range(_RETRIES):
        try:
            tp, tm = arg_increment_pair(U, (c - width / 2, c + width / 2))
            return tp.total_increment, tm.total_increment
        except (EndpointZeroError, SingularContourError, TrackingError):
            c = center + rng.uniform(0.0, _PERTURB)
    raise SkippedLine


def windowed_increment_pair(P, y, x, rng=None):
    """(plus, minus) unit-window increments of arg P along the line x + iy."""
    if rng is None:
        rng = np.random.default_rng(0)
    U = _line_sum(P, y, x[1:])
    if U.is_identically_zero:
        raise SkippedLine
    return _pair_with_retries(U, float(x[0]), 1.0, rng)


def _unit_windows(P, y, centers, phases, rng, on_zero):
    """Unit-window increments of the lines with the given window centres and
    B x S phases (see ExpPolynomial.line_rows): plus values, minus values
    and the number of untrackable lines, in line order.

    zero_free_increments works on _BATCH windows at a time. The windows it
    certifies with no amplitude dropped take its increment and draw nothing
    from rng. Every other window goes through _pair_with_retries, with the
    batch's clusters when it has them and no amplitude is dropped, as all of
    them would without the batched pass, so rng is drawn in the same order.
    An identically-zero line contributes the pair on_zero, or is skipped
    when on_zero is None.
    """
    vp, vm, skipped = [], [], 0
    for k in range(0, len(centers), _BATCH):
        rows = P.line_rows(y, phases[k : k + _BATCH])
        batch = centers[k : k + _BATCH]
        inc, certified, clusters = zero_free_increments(
            rows.amps, rows.freqs, batch
        )
        full = (np.abs(rows.amps) > rows.floor).all(axis=1)
        certified &= full
        for b, center in enumerate(batch):
            U = None if certified[b] else rows.restriction(b)
            if U is None:
                pair = (float(inc[b]), float(inc[b]))
            elif U.is_identically_zero:
                pair = on_zero
            else:
                given = clusters[b] if full[b] else None
                try:
                    pair = _pair_with_retries(U, float(center), 1.0, rng, given)
                except SkippedLine:
                    pair = None
            if pair is None:
                skipped += 1
            else:
                vp.append(pair[0])
                vm.append(pair[1])
    return vp, vm, skipped


def _spread(per_window) -> float:
    tail = [v for _, v in per_window[-3:]]
    return float(max(tail) - min(tail)) if tail else 0.0


def _estimate_pair(y, per_p, per_m, skipped, total):
    yv = tuple(float(v) for v in y)
    return tuple(
        MeanMotionEstimate(
            conv, yv, tuple(per), per[-1][1], _spread(per), skipped, total
        )
        for conv, per in (("plus", per_p), ("minus", per_m))
    )


def direct_mean_motion(
    P: ExpPolynomial,
    y: Sequence[float],
    box: BoxSpec,
    lines: int = 64,
    seed: int = 0,
) -> tuple[MeanMotionEstimate, MeanMotionEstimate]:
    """The literal boxed average of the full-interval increment, (plus, minus).

    Monte-Carlo over uniform 'x in the (p-1)-box; for p = 1 the 'x
    average degenerates to a single full-interval trace. The one window
    of each estimate is the box's first-axis edge.
    """
    p = P.dimension
    if len(box.alpha) != p:
        raise ValueError("box dimension mismatch")
    _check_count("lines", lines, 1)
    _check_count("seed", seed)
    rng = np.random.default_rng(seed)
    a1, b1 = box.alpha[0], box.beta[0]
    if p == 1:
        perps = [()]
    else:
        lo = np.array(box.alpha[1:])
        hi = np.array(box.beta[1:])
        perps = [rng.uniform(lo, hi) for _ in range(lines)]
    vp, vm = [], []
    skipped = 0
    for xp in perps:
        U = _line_sum(P, y, xp)
        if U.is_identically_zero:
            skipped += 1
            continue
        center = 0.5 * (a1 + b1)
        try:
            tp, tm = _pair_with_retries(U, center, b1 - a1, rng)
        except SkippedLine:
            skipped += 1
            continue
        vp.append(tp)
        vm.append(tm)
    if not vp:
        raise DegenerateInputError("every sampled line was skipped")
    w = float(b1 - a1)
    per_p = [(w, float(np.mean(vp)) / w)]
    per_m = [(w, float(np.mean(vm)) / w)]
    return _estimate_pair(y, per_p, per_m, skipped, len(perps))


def box_mean_motion(
    P: ExpPolynomial,
    y: Sequence[float],
    schedule: WindowSchedule,
) -> tuple[MeanMotionEstimate, MeanMotionEstimate]:
    """(plus, minus) averages of unit-window increments over growing boxes."""
    rng = np.random.default_rng(schedule.seed)
    p = P.dimension
    per_p, per_m = [], []
    skipped = 0
    total = 0
    for L in schedule.sizes:
        xs = rng.uniform(-L / 2, L / 2, size=(schedule.lines_per_box, p))
        total += len(xs)
        vp, vm, skip = _unit_windows(
            P, y, xs[:, 0], _perp_phases(P, xs[:, 1:]), rng, None
        )
        skipped += skip
        per_p.append((float(L), float(np.mean(vp)) if vp else math.nan))
        per_m.append((float(L), float(np.mean(vm)) if vm else math.nan))
    return _estimate_pair(y, per_p, per_m, skipped, total)


def _torus_points(rank, samples, seed, method):
    if method == "random":
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 2 * math.pi, size=(samples, rank))
    if method == "grid":
        n = round(samples ** (1.0 / rank))
        axis = (np.arange(n) + 0.5) * (2 * math.pi / n)
        mesh = np.meshgrid(*([axis] * rank), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])
    raise ValueError("method must be 'random' or 'grid'")


class TorusMean(NamedTuple):
    """Torus averages of both branches with their standard errors.

    `samples` counts the averaged points, `skipped` the untrackable ones.
    """

    plus: float
    plus_stderr: float
    minus: float
    minus_stderr: float
    samples: int
    skipped: int


def torus_mean(
    P: ExpPolynomial,
    y: Sequence[float],
    basis: LatticeBasis,
    samples: int = 2000,
    seed: int = 0,
    method: str = "random",
) -> TorusMean:
    """Average of the unit-window increment of the lifted sum over the torus."""
    _check_count("samples", samples, 1)
    lifted = lift(P, basis)
    rng = np.random.default_rng(seed)
    us = _torus_points(basis.rank, samples, seed, method)
    # exceptional torus points (fully cancelled sum): I+- := 0
    vp, vm, skipped = _unit_windows(
        P, y, np.zeros(len(us)), us @ lifted._K.T, rng, (0.0, 0.0)
    )
    n = len(vp)
    if n == 0:
        raise DegenerateInputError("every torus sample was skipped")
    ap, am = np.array(vp), np.array(vm)

    def stderr(a):
        return float(a.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    return TorusMean(
        float(ap.mean()), stderr(ap), float(am.mean()), stderr(am), n, skipped
    )


def compare_estimators(
    P: ExpPolynomial,
    y: Sequence[float],
    schedule: WindowSchedule | None = None,
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Box vs torus cross-validation report for both conventions.

    Failures are reported (pass = False), never thrown. Tolerance is
    max(0.05, 3 * (box spread + torus standard error)) per convention.
    """
    if schedule is None:
        schedule = WindowSchedule(seed=seed)
    basis = group_basis([t.exponent for t in P.terms])
    box_p, box_m = box_mean_motion(P, y, schedule)
    tp, sp, tm, sm, t_n, t_skipped = torus_mean(P, y, basis, samples, seed + 1)
    report = {
        "y": [float(v) for v in y],
        "box": {},
        "torus": {
            "plus": {"value": tp, "stderr": sp, "samples": t_n, "skipped": t_skipped},
            "minus": {"value": tm, "stderr": sm, "samples": t_n, "skipped": t_skipped},
        },
        "diff": {},
        "tolerance": {},
    }
    ok = True
    for conv, est, tval, terr in (
        ("plus", box_p, tp, sp),
        ("minus", box_m, tm, sm),
    ):
        report["box"][conv] = {
            "per_window": [[L, v] for L, v in est.per_window],
            "value": est.value,
            "spread": est.spread,
            "skipped": est.skipped_lines,
            "total_lines": est.total_lines,
            "reliable": est.reliable,
        }
        diff = abs(est.value - tval)
        tol = max(0.05, 3.0 * (est.spread + terr))
        report["diff"][conv] = diff
        report["tolerance"][conv] = tol
        ok = ok and diff <= tol and est.reliable
    report["pass"] = bool(ok)
    return report
