"""Continuous argument branches of univariate exponential sums.

Tracks arg+ / arg- along real segments with the convention that a zero of
multiplicity m contributes a jump of -m*pi (plus branch) or +m*pi (minus
branch), locates real-axis zeros by rectangle subdivision with boundary
winding counts, and certifies every contour as zero-free before trusting
its phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .core import UnivariateExpSum
from .errors import (
    DegenerateInputError,
    EndpointZeroError,
    SingularContourError,
    TrackingError,
)

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Interval widths at which rectangle subdivision hands over to polishing.
_COARSE_WIDTH = 0.02
_FINE_WIDTH = 1e-8
_H_FACTORS = (1.0, 0.87, 0.71, 0.55, 0.41, 0.26, 0.17, 0.11)
_SPLIT_OFFSETS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.51, 0.61, 0.39, 0.55)
_MULTIPLICITY_CAP = 50
# A sample whose modulus is at or below ZERO_THRESHOLD times the scale
# counts as a zero. Read at call time, never bound as a default argument.
ZERO_THRESHOLD = 1e-9
# Phase-step bisection rounds, and radius perturbations in winding_number.
_MAX_REFINEMENTS = 24
_POINTS_PER_TURN = 64  # least samples on a winding circle


@dataclass(frozen=True)
class Zero:
    location: float
    multiplicity: int


@dataclass(frozen=True)
class ArgTrace:
    convention: str
    interval: tuple[float, float]
    zeros: tuple[Zero, ...]
    smooth_increment: float
    jump_increment: float
    total_increment: float
    _spans: tuple[_Span, ...] = field(repr=False, compare=False)

    @cached_property
    def samples(self) -> np.ndarray:
        """(n, 2) columns: s, unwrapped phase; built on first access."""
        jump_sign = -math.pi if self.convention == "plus" else math.pi
        spans = self._spans
        ss, phs = [], []
        base = 0.0
        for i, sp in enumerate(spans):
            steps = np.angle(sp.v[1:] / sp.v[:-1])
            if i == 0:
                base = float(np.angle(sp.v[0]))
            else:
                base += spans[i - 1].right_correction
                base += jump_sign * self.zeros[i - 1].multiplicity
                base += sp.left_correction
            ph = base + np.concatenate([[0.0], np.cumsum(steps)])
            ss.append(sp.t)
            phs.append(ph)
            base = float(ph[-1])
        return np.column_stack([np.concatenate(ss), np.concatenate(phs)])


@dataclass(frozen=True)
class _Span:
    t: np.ndarray
    v: np.ndarray
    left_correction: float
    right_correction: float


def _wrap(x: float) -> float:
    """Reduce to [-pi, pi)."""
    return x - TWO_PI * math.floor((x + math.pi) / TWO_PI)


def _refined_track(
    fn: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    n0: int,
    err: type = SingularContourError,
    floor_scale: float | None = None,
):
    """Total continuous phase change of fn along [t0, t1].

    Adaptively bisects until every step's phase change is below pi/2;
    raises `err` when the samples come within ZERO_THRESHOLD of zero
    relative to the (given or running) modulus scale.
    """
    t = np.linspace(t0, t1, n0 + 1)
    v = fn(t)
    for _ in range(_MAX_REFINEMENTS):
        mods = np.abs(v)
        scale = floor_scale if floor_scale is not None else mods.max()
        if mods.min() <= ZERO_THRESHOLD * scale:
            raise err("contour passes too close to a zero")
        steps = np.angle(v[1:] / v[:-1])
        bad = np.abs(steps) >= HALF_PI
        if not bad.any():
            return float(steps.sum()), t, v
        mids = 0.5 * (t[:-1][bad] + t[1:][bad])
        t = np.unique(np.concatenate([t, mids]))
        v = fn(t)
    raise TrackingError("phase-step refinement did not converge")


def winding_number(
    U: UnivariateExpSum,
    center: complex,
    radius: float,
) -> int:
    """Winding of U around a circle, certified zero-free; exact integer.

    Perturbs the radius when the circle cannot be certified, up to
    _MAX_REFINEMENTS attempts.
    """
    if U.is_identically_zero:
        raise DegenerateInputError("identically-zero sum has no winding")
    if radius <= 0:
        raise ValueError("radius must be positive")
    last: Exception | None = None
    for attempt in range(_MAX_REFINEMENTS):
        bump = 0.065 * ((attempt + 1) // 2) * (1 if attempt % 2 else -1)
        r = radius * (1.0 + bump)
        n0 = max(_POINTS_PER_TURN, int(8 * U.frequency_scale * r) + 16)
        fn = lambda th: U(center + r * np.exp(1j * th))
        try:
            total, _, _ = _refined_track(fn, 0.0, TWO_PI, n0)
        except (SingularContourError, TrackingError) as e:
            last = e
            continue
        w = total / TWO_PI
        k = round(w)
        if abs(w - k) > 0.1:
            last = TrackingError(f"winding residual {abs(w - k):.3f} turns")
            continue
        if abs(k) > _MULTIPLICITY_CAP:
            raise TrackingError(
                f"winding {k} exceeds plausible multiplicity; "
                "input is near-degenerate or tracking is broken"
            )
        return int(k)
    raise SingularContourError(
        "could not certify a zero-free circle"
    ) from last


def _rect_path(rect, t):
    """Points at parameters t in [0, 4] on the boundary of rect, one side
    per unit of t, counter-clockwise from the corner (s0, t0)."""
    s0, s1, t0, t1 = rect
    corners = np.array(
        [
            s0 + 1j * t0,
            s1 + 1j * t0,
            s1 + 1j * t1,
            s0 + 1j * t1,
            s0 + 1j * t0,
        ]
    )
    k = np.minimum(np.floor(t).astype(int), 3)
    frac = t - k
    return corners[k] * (1 - frac) + corners[k + 1] * frac


def _rect_samples(fs, rect) -> int:
    """First sampling of the boundary of rect for a sum of frequency scale fs."""
    s0, s1, t0, t1 = rect
    perimeter = 2 * ((s1 - s0) + (t1 - t0))
    return max(128, int(8 * fs * perimeter / TWO_PI) + 16)


@lru_cache(maxsize=64)
def _first_sampling(rect, n0) -> np.ndarray:
    """n0 + 1 points from corner to corner along the boundary of rect, or
    along the real segment [s0, s1] when rect is (s0, s1); read-only."""
    if len(rect) == 2:
        points = np.linspace(rect[0], rect[1], n0 + 1)
    else:
        points = _rect_path(rect, np.linspace(0.0, 4.0, n0 + 1))
    points.flags.writeable = False
    return points


def count_zeros_rectangle(
    U: UnivariateExpSum,
    rect: tuple[float, float, float, float],
) -> int:
    """Zeros of the analytic continuation inside the rectangle, with
    multiplicity, by boundary phase tracking."""
    if U.is_identically_zero:
        raise DegenerateInputError("identically-zero sum")
    s0, s1, t0, t1 = rect
    if not (s0 < s1 and t0 < t1):
        raise ValueError("rectangle must have positive extent")
    total, _, _ = _refined_track(
        lambda t: U(_rect_path(rect, t)), 0.0, 4.0,
        _rect_samples(U.frequency_scale, rect),
    )
    w = total / TWO_PI
    k = round(w)
    if abs(w - k) > 0.1:
        raise TrackingError(f"boundary winding residual {abs(w - k):.3f}")
    return int(k)


def _rect_count_any_height(U, lo, hi, h) -> int:
    for f in _H_FACTORS:
        try:
            return count_zeros_rectangle(U, (lo, hi, -h * f, h * f))
        except (SingularContourError, TrackingError):
            continue
    raise SingularContourError(
        f"no certifiable rectangle over ({lo}, {hi})"
    )


def _isolate(U, lo, hi, h, width_stop):
    """Recursive subdivision; returns disjoint clusters (lo, hi, count)."""
    h_eff = min(h, hi - lo)
    cnt = _rect_count_any_height(U, lo, hi, h_eff)
    if cnt == 0:
        return []
    if hi - lo <= width_stop:
        return [(lo, hi, cnt)]
    last = None
    for off in _SPLIT_OFFSETS:
        mid = lo + off * (hi - lo)
        try:
            return _isolate(U, lo, mid, h_eff, width_stop) + _isolate(
                U, mid, hi, h_eff, width_stop
            )
        except (SingularContourError, TrackingError) as e:
            last = e
    raise last if last is not None else SingularContourError("isolation failed")


def _newton(U, s0: complex, m: int) -> complex | None:
    s = complex(s0)
    for _ in range(60):
        du = U.derivative(s)
        if du == 0:
            return None
        step = m * U(s) / du
        s -= step
        if abs(step) <= 1e-14 * max(1.0, abs(s)):
            return s
    return None


def _resolve_cluster(U, lo, hi, cnt, depth=0):
    """Turn an isolated cluster into real zero candidates (loc, mult)."""
    scale = U.amplitude_scale
    width = hi - lo
    s = _newton(U, 0.5 * (lo + hi), cnt)
    if (
        s is not None
        and abs(U(s)) <= 1e-7 * scale
        and lo - width <= s.real <= hi + width
    ):
        if abs(s.imag) <= 1e-7:
            return [(s.real, cnt)]
        if cnt == 1:
            return []  # an off-axis zero caught by the coarse rectangle
    if depth >= 1 or width <= 10 * _FINE_WIDTH:
        return [(0.5 * (lo + hi), cnt)]
    subs = _isolate(U, lo, hi, width, _FINE_WIDTH)
    out = []
    for l2, h2, c2 in subs:
        out.extend(_resolve_cluster(U, l2, h2, c2, depth + 1))
    return out


def locate_zeros(
    U: UnivariateExpSum,
    interval: tuple[float, float],
    clusters: list[tuple[float, float, int]] | None = None,
) -> list[Zero]:
    """All real zeros of U in the open interval, with multiplicities.

    Zeros are isolated by recursive subdivision with rectangle winding
    counts and polished by Newton iteration; a zero's multiplicity is the
    winding count of its isolating rectangle. A zero at either endpoint is
    an EndpointZeroError; the caller is expected to perturb the window.
    `clusters`, when given, is the result of that subdivision, made in
    advance by _isolate_rows.
    """
    if U.is_identically_zero:
        raise DegenerateInputError("identically-zero sum")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("empty interval")
    ends = np.abs(U(np.array([a, b])))
    if ends.min() <= ZERO_THRESHOLD * U.amplitude_scale:
        raise EndpointZeroError("window endpoint sits on a zero")
    if clusters is None:
        clusters = _isolate(U, a, b, min(0.5, 0.5 * (b - a)), _COARSE_WIDTH)
    candidates: list[tuple[float, int]] = []
    for lo, hi, cnt in clusters:
        candidates.extend(_resolve_cluster(U, lo, hi, cnt))
    candidates.sort()
    end_tol = max(1e-9, 1e-7 * min(1.0, b - a))
    for loc, _ in candidates:
        if loc - a < end_tol or b - loc < end_tol:
            raise EndpointZeroError(f"zero at {loc} abuts the window")
    return [Zero(loc, cnt) for loc, cnt in candidates]


def _endpoint_offset(U, z, gap, scale):
    """Distance at which |U| is safely above the noise floor near a zero."""
    d = min(1e-6, 0.1 * gap)
    while d < 0.2 * gap:
        if min(abs(U(z - d)), abs(U(z + d))) > 1e-7 * scale:
            break
        d *= 3.0
    return d


def _smooth_trace(U, interval, clusters=None):
    """Smooth branch increment and per-span samples between zeros.

    The one-sided limits at each zero come from the leading Taylor
    coefficient, so skipping a tiny neighbourhood of the zero costs no
    accuracy: the tracked phase is matched to the exact limit by a wrap
    correction strictly below pi.
    """
    a, b = float(interval[0]), float(interval[1])
    zeros = locate_zeros(U, (a, b), clusters)
    pts = [a] + [z.location for z in zeros] + [b]
    scale = U.amplitude_scale
    spans = []
    smooth = 0.0
    for i in range(len(pts) - 1):
        l, r = pts[i], pts[i + 1]
        zl = zeros[i - 1] if i > 0 else None
        zr = zeros[i] if i < len(zeros) else None
        dl = _endpoint_offset(U, l, r - l, scale) if zl else 0.0
        dr = _endpoint_offset(U, r, r - l, scale) if zr else 0.0
        n0 = max(64, math.ceil(8 * U.frequency_scale * (r - dr - l - dl) / TWO_PI))
        inc, t, v = _refined_track(
            lambda s: U(s), l + dl, r - dr, n0,
            err=TrackingError, floor_scale=scale,
        )
        cl = 0.0
        if zl is not None:
            limit = cmath.phase(U.leading_coefficient(l, zl.multiplicity))
            cl = _wrap(float(np.angle(v[0])) - limit)
        cr = 0.0
        if zr is not None:
            limit = (
                cmath.phase(U.leading_coefficient(r, zr.multiplicity))
                + zr.multiplicity * math.pi
            )
            cr = _wrap(limit - float(np.angle(v[-1])))
        spans.append(_Span(t, v, cl, cr))
        smooth += inc + cl + cr
    return smooth, zeros, spans


def arg_increment_pair(
    U: UnivariateExpSum,
    interval: tuple[float, float],
    clusters: list[tuple[float, float, int]] | None = None,
) -> tuple[ArgTrace, ArgTrace]:
    """Increments of the arg+ and arg- branches of U over the interval,
    (plus, minus), from a single zero search and smooth trace.

    `clusters` is passed to locate_zeros: the isolating subdivision of the
    interval, when zero_free_increments has already made it.
    """
    smooth, zeros, spans = _smooth_trace(U, interval, clusters)
    interval = (float(interval[0]), float(interval[1]))
    zeros, spans = tuple(zeros), tuple(spans)
    jump = math.pi * sum(z.multiplicity for z in zeros)
    return (
        ArgTrace("plus", interval, zeros, smooth, -jump, smooth - jump, spans),
        ArgTrace("minus", interval, zeros, smooth, jump, smooth + jump, spans),
    )


def _track_rows(amps, freqs, path, floor_scale=None):
    """_refined_track for many rows at one sampling, without refinement.

    Row b is sum_k amps[b, k] exp(i freqs[k] s) sampled at the points of
    path. Returns each row's total phase change, whether the row passed the
    modulus rule, and which of its steps passed the step rule (below pi/2),
    as a B x n mask.
    """
    v = amps @ np.exp(1j * np.multiply.outer(freqs, path))
    mods = np.abs(v)
    scale = mods.max(axis=1) if floor_scale is None else floor_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.angle(v[:, 1:] / v[:, :-1])
    mod_ok = mods.min(axis=1) > ZERO_THRESHOLD * scale
    return steps.sum(axis=1), mod_ok, np.abs(steps) < HALF_PI


def _wind_rows(amps, g, rect, n0):
    """Boundary phase change of rect for many rows and whether each passed
    the rules of _refined_track. Rows that fail only the step rule are
    resampled together: every step bad in any of them is bisected, for at
    most _MAX_REFINEMENTS samplings in all, as _refined_track does."""
    winding, mod_ok, good = _track_rows(amps, g, _first_sampling(rect, n0))
    ok = mod_ok & good.all(axis=1)
    if ok.all():
        return winding, ok
    todo = np.flatnonzero(mod_ok & ~ok)
    t, good = np.linspace(0.0, 4.0, n0 + 1), good[todo]
    for _ in range(_MAX_REFINEMENTS - 1):
        if not len(todo):
            break
        split = ~good.all(axis=0)
        t = np.unique(np.concatenate([t, 0.5 * (t[:-1][split] + t[1:][split])]))
        turned, mod_ok, good = _track_rows(amps[todo], g, _rect_path(rect, t))
        done = mod_ok & good.all(axis=1)
        winding[todo[done]] = turned[done]
        ok[todo[done]] = True
        keep = mod_ok & ~done
        todo, good = todo[keep], good[keep]
    return winding, ok


def _isolate_rows(shifted, g, centers):
    """_isolate(U_b, c_b - 1/2, c_b + 1/2, 1/2, _COARSE_WIDTH) for many rows
    at once, one subdivision level per _wind_rows pass.

    U_b(s) = sum_k a_bk exp(i g[k] s), c_b = centers[b], and row b of
    shifted is a_bk exp(i g[k] c_b), U_b seen from c_b. At depth d every
    live rectangle has width 2^-d and half-height min(1/2, 2^-d), is split
    at its midpoint and dropped when it holds no zero: the rectangles
    _isolate makes while every count succeeds at its first height and first
    split. A rectangle whose steps need bisection is refined in the batch.

    Returns (clusters, clear). clusters[b] is row b's clusters (lo, hi,
    count), in order, or None when a count of the row failed the modulus or
    residual rule of count_zeros_rectangle, or its step rule after
    refinement; _isolate would have tried another rectangle there.
    clear[b] says that clusters[b] is [].
    """
    fs = float(np.abs(g).sum())
    row = np.arange(len(centers))
    lo, hi = centers - 0.5, centers + 0.5
    off = np.zeros(len(row))  # rectangle centre - window centre, dyadic
    amps = shifted  # each live rectangle's row, seen from its centre
    regular = np.ones(len(row), dtype=bool)
    found: dict[int, list] = {}
    w, h = 1.0, 0.5
    while True:
        rect = (-w / 2, w / 2, -h, h)
        winding, ok = _wind_rows(amps, g, rect, _rect_samples(fs, rect))
        turns = winding / TWO_PI
        counts = np.round(turns)
        ok &= np.abs(turns - counts) <= 0.1
        live = ok & (counts != 0)
        if not ok.all():  # drop the failed rows' other rectangles too
            regular[row[~ok]] = False
            live &= regular[row]
        if not live.any():
            break
        if w <= _COARSE_WIDTH:
            for b, l, r, k in zip(row[live], lo[live], hi[live], counts[live]):
                found.setdefault(b, []).append((float(l), float(r), int(k)))
            break
        row, lo, hi, off = row[live], lo[live], hi[live], off[live]
        split = lo + 0.5 * (hi - lo)
        row = np.concatenate([row, row])
        lo, hi = np.concatenate([lo, split]), np.concatenate([split, hi])
        off = np.concatenate([off - w / 4, off + w / 4])
        amps = shifted[row] * np.exp(1j * np.multiply.outer(off, g))
        w /= 2
        h = min(h, w)
    clusters = [[] if r else None for r in regular.tolist()]
    for b, c in found.items():
        clusters[b] = sorted(c)
        regular[b] = False
    return clusters, regular


def zero_free_increments(
    amps: np.ndarray,
    freqs,
    centers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Unit-window increments of B sums at once: (increments, certified,
    clusters).

    Row b is q_b(s) = sum_k amps[b, k] exp(i freqs[k] s) on the window
    (centers[b] - 1/2, centers[b] + 1/2). Its zeros are isolated by
    _isolate_rows, whose first rectangle, at height 1/2, is the first one
    _isolate makes. The row is certified when that isolation leaves no
    cluster and the real segment passes the modulus rule against sum |a_k|,
    which covers the endpoint rule of locate_zeros, and the step rule, with
    no refinement. Such a window holds no zero near the axis, and the scalar
    path would trace the same segment at the same sampling, so both branches
    gain increments[b]. Every other row is left to arg_increment_pair, and
    its entry of increments means nothing; clusters[b] is then the row's
    isolating subdivision, or None when it needs the scalar one.

    Each row is shifted to its window or rectangle by a phase on its
    amplitudes, so the samples of all rows at one stage come from one
    (B x S) @ (S x n) product.
    """
    g = np.array([float(f) for f in freqs])
    fs = float(np.abs(g).sum())
    shifted = amps * np.exp(1j * np.multiply.outer(centers, g))
    clusters, clear = _isolate_rows(shifted, g, centers)
    segment = _first_sampling((-0.5, 0.5), max(64, math.ceil(8 * fs / TWO_PI)))
    floor = np.abs(amps).sum(axis=1)
    increments, seg_ok, good = _track_rows(shifted, g, segment, floor)
    certified = clear & seg_ok & good.all(axis=1)
    return increments, certified, clusters
