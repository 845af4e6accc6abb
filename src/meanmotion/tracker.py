"""Continuous argument branches of univariate exponential sums.

Tracks arg+ / arg- along real segments with the convention that a zero of
multiplicity m contributes a jump of -m*pi (plus branch) or +m*pi (minus
branch), locates real-axis zeros by rectangle subdivision with boundary
winding counts, and certifies every contour as zero-free before trusting
its phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def _wrap(x):
    """Reduce to [-pi, pi), elementwise."""
    return x - TWO_PI * np.floor((x + math.pi) / TWO_PI)


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
        fn = lambda _, th: U(center + r * np.exp(1j * th))[None]
        th = np.linspace(0.0, TWO_PI, n0 + 1)
        total, ok, _ = _refine_rows(fn(0, th), th, fn)
        if not ok[0]:
            last = SingularContourError("circle passes too close to a zero")
            continue
        w = total[0] / TWO_PI
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
def _first_sampling(rect, n0) -> tuple[np.ndarray, np.ndarray]:
    """Parameters in [0, 4] and points of n0 + 1 samples from corner to
    corner along the boundary of rect, or along the real segment [s0, s1]
    when rect is (s0, s1); read-only."""
    t = np.linspace(0.0, 4.0, n0 + 1)
    points = np.linspace(*rect, n0 + 1) if len(rect) == 2 else _rect_path(rect, t)
    t.flags.writeable = points.flags.writeable = False
    return t, points


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
    fn = lambda _, t: U(_rect_path(rect, t))[None]
    t = np.linspace(0.0, 4.0, _rect_samples(U.frequency_scale, rect) + 1)
    total, ok, _ = _refine_rows(fn(0, t), t, fn)
    if not ok[0]:
        raise SingularContourError("boundary passes too close to a zero")
    w = total[0] / TWO_PI
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


def _values(amps, g, s):
    """Row r of amps as a sum, sum_k amps[r, k] exp(i g[k] s), at the
    points s[r], each row with the arithmetic of UnivariateExpSum.__call__."""
    return (np.exp(1j * s[..., None] * g) @ amps[..., None])[..., 0]


def _polish(amps, g, lo, hi, cnt):
    """Newton's method on clusters (lo, hi, cnt) of zeros from their
    midpoints, cluster c in the sum of row c of amps, with q and q' of every
    unfinished cluster from one product per step. A cluster fails when q'
    vanishes or 60 steps leave the last above 1e-14 max(1, |s|). Returns the
    roots' real parts and each cluster's state: 1 for a real zero, 0 for an
    off-axis zero of a count-1 cluster, -1 for a failure or neither.
    """
    coef = np.stack([amps, 1j * g * amps], axis=1)[..., None]  # q, q'
    s = (0.5 * (lo + hi)).astype(complex)
    live, found = np.arange(len(s)), np.zeros(len(s), dtype=bool)
    for _ in range(60):
        if not len(live):
            break
        e = np.exp(1j * np.multiply.outer(s[live], g))[:, None, None]
        q, dq = (e @ coef[live])[:, :, 0, 0].T
        moving = dq != 0
        live, q, dq = live[moving], q[moving], dq[moving]
        # a multiple zero is found only to the rounding noise of q, so steps
        # are divided as Python divides complex numbers, which numpy does not
        step = ((cnt[live] * q).astype(object) / dq.astype(object)).astype(complex)
        s[live] -= step
        done = np.abs(step) <= 1e-14 * np.maximum(1.0, np.abs(s[live]))
        found[live[done]] = True
        live = live[~done]
    q = np.abs(_values(amps, g, np.where(found, s, lo)[:, None]))[:, 0]
    near = found & (q <= 1e-7 * np.abs(amps).sum(axis=1))
    near &= (lo - (hi - lo) <= s.real) & (s.real <= hi + (hi - lo))
    real = near & (np.abs(s.imag) <= 1e-7)
    return s.real, np.where(real, 1, np.where(near & (cnt == 1), 0, -1))


def _resolve_clusters(U, clusters, depth=0):
    """Turn isolated clusters into real zero candidates (loc, mult); one
    that _polish cannot settle is subdivided once, or taken at its middle."""
    if not clusters:
        return []
    lo, hi, cnt = np.array(clusters).T
    amps = np.broadcast_to(U._amps, (len(clusters), len(U._amps)))
    loc, state = _polish(amps, U._freqs, lo, hi, cnt.astype(int))
    out = []
    for (lo, hi, cnt), x, st in zip(clusters, loc.tolist(), state.tolist()):
        if st == 1:
            out.append((x, cnt))
        elif st < 0 and (depth >= 1 or hi - lo <= 10 * _FINE_WIDTH):
            out.append((0.5 * (lo + hi), cnt))
        elif st < 0:
            subs = _isolate(U, lo, hi, hi - lo, _FINE_WIDTH)
            out.extend(_resolve_clusters(U, subs, depth + 1))
    return out


def locate_zeros(
    U: UnivariateExpSum,
    interval: tuple[float, float],
) -> list[Zero]:
    """All real zeros of U in the open interval, with multiplicities.

    Zeros are isolated by recursive subdivision with rectangle winding
    counts and polished by Newton iteration; a zero's multiplicity is the
    winding count of its isolating rectangle. A zero at either endpoint is
    an EndpointZeroError; the caller is expected to perturb the window.
    """
    if U.is_identically_zero:
        raise DegenerateInputError("identically-zero sum")
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("empty interval")
    ends = np.abs(U(np.array([a, b])))
    if ends.min() <= ZERO_THRESHOLD * U.amplitude_scale:
        raise EndpointZeroError("window endpoint sits on a zero")
    clusters = _isolate(U, a, b, min(0.5, 0.5 * (b - a)), _COARSE_WIDTH)
    candidates = sorted(_resolve_clusters(U, clusters))
    end_tol = max(1e-9, 1e-7 * min(1.0, b - a))
    for loc, _ in candidates:
        if loc - a < end_tol or b - loc < end_tol:
            raise EndpointZeroError(f"zero at {loc} abuts the window")
    return [Zero(loc, cnt) for loc, cnt in candidates]


def _offsets(amps, g, z, gap):
    """Distances from zeros z, zero i in the sum of row i of amps, at which
    |q| is safely above the noise floor: the first d = d0 3^k below 0.2 gap,
    d0 = min(1e-6, 0.1 gap), with |q(z -+ d)| > 1e-7 sum |a_k|, else the
    first d not below 0.2 gap. All candidates are evaluated at once."""
    if not len(z):
        return gap
    n = 1 + int(math.log(max(2.0, 0.2 * gap.max() / 1e-6), 3))  # 3^n > 0.2 gap / d0
    d = np.column_stack([np.minimum(1e-6, 0.1 * gap)] + [np.full(len(gap), 3.0)] * n)
    d = np.cumprod(d, axis=1)  # rounded as repeated multiplication by 3
    below = d < 0.2 * gap[:, None]
    q = np.abs(_values(amps, g, np.hstack([z[:, None] - d, z[:, None] + d])))
    floor = 1e-7 * np.abs(amps).sum(axis=1)[:, None]
    clear = below & (np.minimum(q[:, : d.shape[1]], q[:, d.shape[1] :]) > floor)
    k = np.where(clear.any(axis=1), clear.argmax(axis=1), below.sum(axis=1))
    return d[np.arange(len(d)), k]


def _track_rows(v, floor=None):
    """The rules of phase tracking on rows of samples v, without refinement:
    each row's total phase change, whether its moduli stay above
    ZERO_THRESHOLD times floor (by default its largest sample), and which
    of its steps change the phase by less than pi/2, as a mask."""
    mods = np.abs(v)
    scale = mods.max(axis=1) if floor is None else floor
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.angle(v[:, 1:] / v[:, :-1])
    mod_ok = mods.min(axis=1) > ZERO_THRESHOLD * scale
    return steps.sum(axis=1), mod_ok, np.abs(steps) < HALF_PI


def _refine_rows(v, t, resample, floor=None):
    """Phase tracking of many rows: v holds their samples at parameters t,
    shared (n,) or one row each, and resample(rows, t) samples some rows.
    Rows that fail only the step rule are resampled together, with every
    step bad in any of them bisected, for at most _MAX_REFINEMENTS
    samplings in all. Returns each row's total phase change, whether it
    passed, and (rows, passed, t, v) for each sampling.
    """
    total, mod_ok, good = _track_rows(v, floor)
    ok = mod_ok & good.all(axis=1)
    passed = [(slice(None), ok.copy(), t, v)]
    if ok.all():
        return total, ok, passed
    todo = np.flatnonzero(mod_ok & ~ok)
    t, good = (t[todo] if t.ndim > 1 else t), good[todo]
    for _ in range(_MAX_REFINEMENTS - 1):
        if not len(todo):
            break
        split = np.flatnonzero(~good.all(axis=0))
        mids = 0.5 * (t[..., split] + t[..., split + 1])
        t = np.insert(t, split + 1, mids, axis=-1)
        v = resample(todo, t)
        turned, mod_ok, good = _track_rows(v, None if floor is None else floor[todo])
        done = mod_ok & good.all(axis=1)
        total[todo[done]], ok[todo[done]] = turned[done], True
        passed.append((todo, done, t, v))
        keep = mod_ok & ~done
        todo, good = todo[keep], good[keep]
        t = t[keep] if t.ndim > 1 else t
    return total, ok, passed


def _smooth_rows(amps, g, a, b, zrow, zloc, zmult):
    """Smooth branch increments of the sums in the rows of amps on
    (a[r], b[r]), with zero i of multiplicity zmult[i] at zloc[i] in row
    zrow[i], sorted by row and location.

    Every span between consecutive points of a, the zeros and b stops
    _offsets short of a zero and is tracked from max(64, ceil(8 fs length /
    2pi)) samples with the modulus floor sum |a_k|. Wrap corrections below
    pi match its phase to the exact limits at its zeros, the phase of
    q^(m)(z) / m! (plus m pi before the zero). Returns each row's smooth
    increment, whether all its spans passed, and a generator of the spans.
    """
    scale = np.abs(amps).sum(axis=1)
    rows = np.repeat(np.arange(len(a)), np.bincount(zrow, minlength=len(a)) + 1)
    at = np.arange(len(zrow)) + zrow  # the span that ends at each zero
    l, r = a[rows], b[rows]
    r[at], l[at + 1] = zloc, zloc
    gap = np.concatenate([(r - l)[at], (r - l)[at + 1]])  # before, after
    both = np.concatenate([zrow, zrow])
    d = _offsets(amps[both], g, np.concatenate([zloc, zloc]), gap)
    dl, dr, cl, cr = np.zeros((4, len(rows)))  # offsets and corrections
    dr[at], dl[at + 1] = d[: len(at)], d[len(at) :]
    fs = float(np.abs(g).sum())
    n0 = np.maximum(64, np.ceil(8 * fs * (r - dr - l - dl) / TWO_PI)).astype(int)
    inc, ok = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool)
    ends, tracked = np.zeros((len(rows), 2)), []
    for n in np.unique(n0):
        k = np.flatnonzero(n0 == n)
        own = amps[rows[k]]
        t = np.linspace(l[k] + dl[k], r[k] - dr[k], n + 1, axis=-1)
        v = _values(own, g, t)
        ends[k] = np.angle(v[:, [0, -1]])
        inc[k], ok[k], passed = _refine_rows(
            v, t, lambda i, t: _values(own[i], g, t), scale[rows[k]]
        )
        tracked += [(k[i][done], ts[done], vs[done]) for i, done, ts, vs in passed]
    if len(zrow):  # the Taylor limits
        coef = (1j * g) ** zmult[:, None] * amps[zrow]
        lead = np.exp(1j * g * zloc[:, None])[:, None] @ coef[..., None]
        limit = np.angle(lead[:, 0, 0])
        cr[at] = _wrap(limit + zmult * math.pi - ends[at, 1])
        cl[at + 1] = _wrap(ends[at + 1, 0] - limit)
    smooth = np.bincount(rows, inc + cl + cr, minlength=len(a))

    def spans():
        samples = {j: (t, v) for k, ts, vs in tracked
                   for j, t, v in zip(k.tolist(), ts, vs)}
        for j in sorted(samples):
            yield _Span(*samples[j], cl[j], cr[j])

    return smooth, np.bincount(rows, ~ok, minlength=len(a)) == 0, spans()


def arg_increment_pair(
    U: UnivariateExpSum,
    interval: tuple[float, float],
) -> tuple[ArgTrace, ArgTrace]:
    """Increments of the arg+ and arg- branches of U over the interval,
    (plus, minus), from a single zero search and smooth trace."""
    zeros = locate_zeros(U, interval)
    interval = (float(interval[0]), float(interval[1]))
    loc = np.array([z.location for z in zeros])
    mult = np.array([z.multiplicity for z in zeros], dtype=int)
    smooth, ok, spans = _smooth_rows(
        U._amps[None], U._freqs, np.array(interval[:1]), np.array(interval[1:]),
        np.zeros_like(mult), loc, mult,
    )
    if not ok[0]:
        raise TrackingError("a span between zeros failed the modulus or step rule")
    smooth, zeros, spans = float(smooth[0]), tuple(zeros), tuple(spans)
    jump = math.pi * sum(z.multiplicity for z in zeros)
    return (
        ArgTrace("plus", interval, zeros, smooth, -jump, smooth - jump, spans),
        ArgTrace("minus", interval, zeros, smooth, jump, smooth + jump, spans),
    )


def _isolate_rows(shifted, g, centers):
    """_isolate(U_b, c_b - 1/2, c_b + 1/2, 1/2, _COARSE_WIDTH) for many rows
    at once, one subdivision level per _refine_rows pass.

    U_b(s) = sum_k a_bk exp(i g[k] s), c_b = centers[b], and row b of
    shifted is a_bk exp(i g[k] c_b), U_b seen from c_b. At depth d every
    live rectangle has width 2^-d and half-height min(1/2, 2^-d), is split
    at its midpoint and dropped when it holds no zero: the rectangles
    _isolate makes while every count succeeds at its first height and first
    split. A rectangle whose steps need bisection is refined in the batch.

    Returns (clusters, clear). clusters[b] is row b's clusters (lo, hi,
    count), in order, or None when a count of the row failed the modulus or
    residual rule of count_zeros_rectangle, or its step rule after
    refinement; _isolate would have tried another rectangle there, so
    unit_increments leaves the row to arg_increment_pair.
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
        t, points = _first_sampling(rect, _rect_samples(fs, rect))
        winding, ok, _ = _refine_rows(
            amps @ np.exp(1j * np.multiply.outer(g, points)), t,
            lambda i, t: amps[i] @ np.exp(1j * np.multiply.outer(g, _rect_path(rect, t))),
        )
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


def unit_increments(
    amps: np.ndarray,
    freqs,
    centers: np.ndarray,
    floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """arg_increment_pair on the unit windows of B sums at once: (plus,
    minus, done).

    Row b is q_b(s) = sum_k amps[b, k] exp(i freqs[k] s) on the window
    (centers[b] - 1/2, centers[b] + 1/2). Its zeros are isolated by
    _isolate_rows. A row whose isolation leaves no cluster and whose real
    segment passes the modulus rule against sum |a_k|, which covers the
    endpoint rule of locate_zeros, and the step rule with no refinement
    holds no zero near the axis: the scalar path would trace the same
    segment at the same sampling, so both branches gain its phase change.
    The other rows with an isolation run the rest of the rules of
    locate_zeros and the smooth trace together: the endpoint rule, _polish
    on every cluster, end_tol and _smooth_rows.

    done[b] is False for a row any rule rejects, whose isolation failed,
    or with an amplitude at or below floor, which its restriction drops;
    arg_increment_pair, which can try other rectangles and subdivide a
    cluster further, then decides the window, and plus[b] and minus[b]
    mean nothing.

    Each row is shifted to its window or rectangle by a phase on its
    amplitudes, so the samples of all rows at one stage come from one
    (B x S) @ (S x n) product.
    """
    g = np.array([float(f) for f in freqs])
    fs = float(np.abs(g).sum())
    shifted = amps * np.exp(1j * np.multiply.outer(centers, g))
    clusters, clear = _isolate_rows(shifted, g, centers)
    _, segment = _first_sampling((-0.5, 0.5), max(64, math.ceil(8 * fs / TWO_PI)))
    scale = np.abs(amps).sum(axis=1)
    inc, seg_ok, good = _track_rows(
        shifted @ np.exp(1j * np.multiply.outer(g, segment)), scale
    )
    full = (np.abs(amps) > floor).all(axis=1)
    done = full & clear & seg_ok & good.all(axis=1)
    plus, minus = inc.copy(), inc
    traced = np.flatnonzero(full & ~done & [c is not None for c in clusters])
    if not len(traced):
        return plus, minus, done
    amps, a, b = amps[traced], centers[traced] - 0.5, centers[traced] + 0.5
    ends = np.abs(_values(amps, g, np.column_stack([a, b])))
    ok = ends.min(axis=1) > ZERO_THRESHOLD * scale[traced]
    owned = [clusters[r] if k else [] for r, k in zip(traced.tolist(), ok.tolist())]
    owner = np.repeat(np.arange(len(traced)), [len(c) for c in owned])
    lo, hi, cnt = np.reshape([c for cs in owned for c in cs], (-1, 3)).T
    loc, state = _polish(amps[owner], g, lo, hi, cnt.astype(int))
    ok[owner[state < 0]] = False
    real = np.flatnonzero(state == 1)
    real = real[np.lexsort((cnt[real], loc[real], owner[real]))]
    zrow, zloc, zmult = owner[real], loc[real], cnt[real].astype(int)
    end_tol = np.maximum(1e-9, 1e-7 * np.minimum(1.0, b - a))[zrow]
    ok[zrow[(zloc - a[zrow] < end_tol) | (b[zrow] - zloc < end_tol)]] = False
    smooth, spans_ok, _ = _smooth_rows(amps, g, a, b, zrow, zloc, zmult)
    jump = math.pi * np.bincount(zrow, zmult, minlength=len(a))
    plus[traced], minus[traced] = smooth - jump, smooth + jump
    done[traced] = ok & spans_ok
    return plus, minus, done
