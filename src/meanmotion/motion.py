"""Mean motion estimators: expanding-box averages and the torus oracle.

Two routes to c+(y), c-(y) that sample separately:

* box route - average unit-window argument increments of P along lines
  parallel to the first axis, over boxes of growing edge length;
* torus route - average the unit-window increment of the lifted sum
  F(s + i y_1, i 'y, u) over uniform torus points u in [0, 2pi]^N, where
  N is the rank of lattice.group_basis(P.exponents) and the basis's exact
  integer coordinates of each exponent give the line's phases.

Both build their line restrictions with ExpPolynomial.line_rows and leave
them to one window engine: one tracker.unit_increments call settles every
window of a route it can, and this module only samples the lines and
averages. A window the engine leaves undone, such as one on a line where
P cancels identically, has no increment: it is skipped and counted on
every route. No random number is drawn for a window, so each route's
generator gives its sample points only.
Agreement of the two within the dispersion-aware tolerance is the
artifact's core property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import ExpPolynomial, UnivariateExpSum
from .errors import DegenerateInputError, DimensionError
from .lattice import group_basis
from .tracker import unit_increments


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
        if not all(math.isfinite(v) for v in (*self.alpha, *self.beta)):
            raise ValueError("box edges must be finite")
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
        raise DimensionError(f"xperp has {len(xperp)} values, not {P.dimension - 1}")
    xperp = np.asarray(xperp, dtype=float)[None]
    return P.line_rows(y, _perp_phases(P, xperp)).restriction(0)


def windowed_increment_pair(P, y, x):
    """(plus, minus) unit-window increments of arg P along the line x + iy,
    the window centred at x; SkippedLine if it cannot be tracked. A point
    of the wrong length or not finite is an input error."""
    x = np.asarray(x, dtype=float)
    if x.shape != (P.dimension,):
        raise DimensionError(f"x has {x.size} values, not {P.dimension}")
    if not all(map(math.isfinite, x.tolist())):
        raise DegenerateInputError(f"point x = {x.tolist()} is not finite")
    vp, vm, done = unit_increments(*P.line_rows(y, _perp_phases(P, x[None, 1:])), x[:1])
    if not done[0]:
        raise SkippedLine
    return float(vp[0]), float(vm[0])


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
        perps = np.zeros((1, 0))
    else:
        lo = np.array(box.alpha[1:])
        hi = np.array(box.beta[1:])
        perps = np.array([rng.uniform(lo, hi) for _ in range(lines)])
    vp, vm, done = unit_increments(*P.line_rows(y, _perp_phases(P, perps)),
                                   np.full(len(perps), 0.5 * (a1 + b1)), b1 - a1)
    if not done.any():
        raise DegenerateInputError("every sampled line was skipped")
    w = float(b1 - a1)
    per_p, per_m = ([(w, float(np.mean(v[done])) / w)] for v in (vp, vm))
    return _estimate_pair(y, per_p, per_m, int((~done).sum()), len(perps))


def box_mean_motion(
    P: ExpPolynomial,
    y: Sequence[float],
    schedule: WindowSchedule,
) -> tuple[MeanMotionEstimate, MeanMotionEstimate]:
    """(plus, minus) averages of unit-window increments over growing boxes."""
    rng = np.random.default_rng(schedule.seed)
    sizes, n = schedule.sizes, schedule.lines_per_box
    xs = np.concatenate([rng.uniform(-L / 2, L / 2, (n, P.dimension)) for L in sizes])
    vp, vm, done = unit_increments(*P.line_rows(y, _perp_phases(P, xs[:, 1:])), xs[:, 0])
    per_p, per_m = (
        [(float(L), float(np.mean(r[d])) if d.any() else math.nan)
         for L, r, d in zip(sizes, v.reshape(-1, n), done.reshape(-1, n))]
        for v in (vp, vm)
    )
    return _estimate_pair(y, per_p, per_m, int((~done).sum()), len(xs))


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

    `samples` counts the averaged points, `skipped` the untrackable ones,
    among them points whose line P cancels identically.
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
    samples: int = 2000,
    seed: int = 0,
    method: str = "random",
) -> TorusMean:
    """Average of the unit-window increment of the lifted sum over the torus
    of group_basis(P.exponents): the line at u has phases K u, where row j
    of K holds the exact integer coordinates of exponent j in that basis."""
    _check_count("samples", samples, 1)
    basis = group_basis(P.exponents)
    K = np.array(basis.coords, dtype=float)
    us = _torus_points(basis.rank, samples, seed, method)
    vp, vm, done = unit_increments(*P.line_rows(y, us @ K.T), np.zeros(len(us)))
    vp, vm, n = vp[done], vm[done], int(done.sum())
    if n == 0:
        raise DegenerateInputError("every torus sample was skipped")

    def stderr(a):
        return float(a.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    return TorusMean(
        float(vp.mean()), stderr(vp), float(vm.mean()), stderr(vm), n, len(us) - n
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
    box_p, box_m = box_mean_motion(P, y, schedule)
    tp, sp, tm, sm, t_n, t_skipped = torus_mean(P, y, samples, seed + 1)
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
