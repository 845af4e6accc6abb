"""Mean motion estimators: expanding-box averages and the torus oracle.

Two routes to c+(y), c-(y) that sample separately:

* box route - average unit-window argument increments of P along lines
  parallel to the first axis, over boxes of growing edge length;
* torus route - average the unit-window increment of the lifted sum
  F(s + i y_1, i 'y, u) over uniform torus points u in [0, 2pi]^N, where
  N is the rank of lattice.group_basis(P.exponents) and the basis's exact
  integer coordinates of each exponent give the line's phases.

Each report builds its line restrictions in one ExpPolynomial.line_rows
call and leaves them to one window engine: one tracker.unit_increments
call per report settles every window it can, of one route or, in
compare_estimators, of both routes stacked, and this module only samples
the lines and averages, each route's two conventions at once.
The torus basis is built once per polynomial and cached on it
(ExpPolynomial._basis). A window the engine leaves undone, such as one on
a line where P cancels identically, has no increment: it is skipped and
counted on every route. No random number is drawn for a window, so each
route's generator gives its sample points only.
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
from .tracker import unit_increments


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
        _check_count("seed", self.seed, 0)


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


def _spread(per_window) -> float:
    tail = [v for _, v in per_window[-3:]]
    return float(max(tail) - min(tail))


def _estimate_pair(y, per_p, per_m, skipped, total):
    yv = tuple(float(v) for v in y)
    return tuple(
        MeanMotionEstimate(
            conv, yv, tuple(per), per[-1][1], _spread(per), skipped, total
        )
        for conv, per in (("plus", per_p), ("minus", per_m))
    )


def _kept(vp, vm, done):
    """The increments of the done windows, plus over minus, in C order: the
    rows of a[:, done] would lie in Fortran order, and a reduction along them
    would not sum pairwise as np.mean of each does."""
    return np.array([vp[done], vm[done]])


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
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    a1, b1 = box.alpha[0], box.beta[0]
    perps = rng.uniform(box.alpha[1:], box.beta[1:], (lines if p > 1 else 1, p - 1))
    vp, vm, done = unit_increments(*P.line_rows(y, _perp_phases(P, perps)),
                                   np.full(len(perps), 0.5 * (a1 + b1)), b1 - a1)
    if not done.any():
        raise DegenerateInputError("every sampled line was skipped")
    w = float(b1 - a1)
    means = _kept(vp, vm, done).sum(axis=1) / done.sum()
    per_p, per_m = ([(w, float(m) / w)] for m in means)
    return _estimate_pair(y, per_p, per_m, int((~done).sum()), len(perps))


def _box_rows(P, schedule):
    """The box route's line phases and window centres: lines_per_box uniform
    points of each box, drawn from the schedule's own generator."""
    rng = np.random.default_rng(schedule.seed)
    sizes, n = schedule.sizes, schedule.lines_per_box
    xs = np.concatenate([rng.uniform(-L / 2, L / 2, (n, P.dimension)) for L in sizes])
    return _perp_phases(P, xs[:, 1:]), xs[:, 0]


def _box_average(y, schedule, vp, vm, done):
    """(plus, minus) estimates from the box route's increments, box by box:
    np.mean's arithmetic, each box's sum one reduction over both
    conventions; nan for a box with every line skipped."""
    kept = done.reshape(-1, schedule.lines_per_box).sum(axis=1)
    v = _kept(vp, vm, done)
    with np.errstate(invalid="ignore"):  # 0 / 0 where a box keeps no line
        means = np.array([v[:, i - k : i].sum(axis=1)
                          for i, k in zip(np.cumsum(kept), kept)]) / kept[:, None]
    per_p, per_m = ([(float(L), float(m)) for L, m in zip(schedule.sizes, col)]
                    for col in means.T)
    return _estimate_pair(y, per_p, per_m, int((~done).sum()), len(done))


def box_mean_motion(
    P: ExpPolynomial,
    y: Sequence[float],
    schedule: WindowSchedule,
) -> tuple[MeanMotionEstimate, MeanMotionEstimate]:
    """(plus, minus) averages of unit-window increments over growing boxes."""
    phases, centres = _box_rows(P, schedule)
    return _box_average(y, schedule, *unit_increments(*P.line_rows(y, phases), centres))


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


def _torus_rows(P, samples, seed, method):
    """The torus route's line phases and window centres: the line at u has
    phases K u, where row j of K holds the exact integer coordinates of
    exponent j in P's cached group basis."""
    _check_count("samples", samples, 1)
    basis = P._basis
    us = _torus_points(basis.rank, samples, seed, method)
    K = np.array(basis.coords, dtype=float)
    return us @ K.T, np.zeros(len(us))


def _torus_average(vp, vm, done) -> TorusMean:
    """TorusMean of the torus route's increments, both conventions reduced
    at once: np.mean's and np.std(ddof=1)'s arithmetic, on one mean."""
    v, n = _kept(vp, vm, done), int(done.sum())
    if n == 0:
        raise DegenerateInputError("every torus sample was skipped")
    mean = v.sum(axis=1, keepdims=True) / n
    dev = v - mean
    err = np.sqrt((dev * dev).sum(axis=1) / (n - 1)) / math.sqrt(n) if n > 1 else (0.0, 0.0)
    return TorusMean(float(mean[0, 0]), float(err[0]), float(mean[1, 0]), float(err[1]),
                     n, len(done) - n)


def torus_mean(
    P: ExpPolynomial,
    y: Sequence[float],
    samples: int = 2000,
    seed: int = 0,
    method: str = "random",
) -> TorusMean:
    """Average of the unit-window increment of the lifted sum over the torus
    of group_basis(P.exponents)."""
    _check_count("seed", seed, 0)
    phases, centres = _torus_rows(P, samples, seed, method)
    return _torus_average(*unit_increments(*P.line_rows(y, phases), centres))


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
    The routes sample apart, the box lines from schedule.seed and the torus
    points from seed + 1, and one unit_increments call settles the windows
    of both.
    """
    _check_count("seed", seed, 0)
    if schedule is None:
        schedule = WindowSchedule(seed=seed)
    box_phases, box_centres = _box_rows(P, schedule)
    torus_phases, torus_centres = _torus_rows(P, samples, seed + 1, "random")
    vp, vm, done = unit_increments(
        *P.line_rows(y, np.vstack([box_phases, torus_phases])),
        np.concatenate([box_centres, torus_centres]),
    )
    n = len(box_centres)
    box_p, box_m = _box_average(y, schedule, vp[:n], vm[:n], done[:n])
    tp, sp, tm, sm, t_n, t_skipped = _torus_average(vp[n:], vm[n:], done[n:])
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
