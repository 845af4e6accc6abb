"""Continuous argument branches of univariate exponential sums.

The arg+ / arg- branches along a real segment follow the convention that
a zero of multiplicity m contributes a jump of -m*pi (plus branch) or
+m*pi (minus branch). Two engines compute their increments:

* unit_increments, which both estimators use, settles many unit windows
  at once without locating any zero. Every phase step is certified by
  the step rule of _step_ok. A window whose real segment certifies holds
  no zero; one whose segment does not is traced at heights +-delta, the
  one-sided limits that pass its real zeros above and below;
* arg_increment_pair, the scalar tracker, locates the real zeros by
  rectangle subdivision with boundary winding counts, polishes them by
  Newton's method and traces the spans between them. It decides the
  windows unit_increments leaves undone, and serves the zeros and track
  commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

# Interval width at which the subdivision of an unsettled cluster stops.
_FINE_WIDTH = 1e-8
_H_FACTORS = (1.0, 0.87, 0.71, 0.55, 0.41, 0.26, 0.17, 0.11)
_SPLIT_OFFSETS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.51, 0.61, 0.39, 0.55)
_MULTIPLICITY_CAP = 50
# A sample whose modulus is at or below ZERO_THRESHOLD times the scale
# counts as a zero. Read at call time, never bound as a default argument.
ZERO_THRESHOLD = 1e-9
# Certified steps: the step rule's rounding floor over sum |a_k|, the width
# below which a real-line step that still fails sends its window to the
# +-delta traces, the deltas in order, and the cuts of a failing step.
_STEP_FLOOR = 1e-12
_AXIS_WIDTH = 1e-5
_DELTAS = (1e-5, 1e-4, 1e-3)
_CUTS = np.linspace(0.0, 1.0, 9)
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
    corners = np.array([s0, s1, s1, s0, s0]) + 1j * np.array([t0, t0, t1, t1, t0])
    k = np.minimum(np.floor(t).astype(int), 3)
    frac = t - k
    return corners[k] * (1 - frac) + corners[k + 1] * frac


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
    perimeter = 2 * ((s1 - s0) + (t1 - t0))
    n0 = max(128, int(8 * U.frequency_scale * perimeter / TWO_PI) + 16)
    t = np.linspace(0.0, 4.0, n0 + 1)
    total, ok, _ = _refine_rows(fn(0, t), t, fn)
    if not ok[0]:
        raise SingularContourError("boundary passes too close to a zero")
    w = total[0] / TWO_PI
    k = round(w)
    if abs(w - k) > 0.1:
        raise TrackingError(f"boundary winding residual {abs(w - k):.3f}")
    if k < 0:  # the argument principle counts zeros, never fewer than none
        raise TrackingError(f"boundary winding {k} is negative")
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
    that _polish cannot settle is subdivided once, which must keep its
    count, or taken at its middle."""
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
            if sum(k for _, _, k in subs) != cnt:
                raise TrackingError(f"subdividing a cluster of {cnt} zeros lost some")
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
    clusters = _isolate(U, a, b, min(0.5, 0.5 * (b - a)), 0.02)
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


def _smooth_spans(U, a, b, zloc, zmult):
    """Smooth branch increment of U on (a, b), with zeros of multiplicity
    zmult at the sorted locations zloc.

    Every span between consecutive points of a, the zeros and b stops
    _offsets short of a zero and is tracked from max(64, ceil(8 fs length /
    2pi)) samples with the modulus floor sum |a_k|, spans of one sampling
    together. Wrap corrections below pi match its phase to the exact
    limits at its zeros, the phase of q^(m)(z) / m! (plus m pi before the
    zero). Returns the smooth increment, whether every span passed, and
    the spans.
    """
    amps, g, m = U._amps, U._freqs, len(zloc)
    l, r = np.append(a, zloc), np.append(zloc, b)
    gap = np.append(r[:-1] - l[:-1], r[1:] - l[1:])  # before, after each zero
    d = _offsets(np.tile(amps, (2 * m, 1)), g, np.tile(zloc, 2), gap)
    l[1:] += d[m:]
    r[:-1] -= d[:m]
    n0 = np.maximum(64, np.ceil(8 * U.frequency_scale * (r - l) / TWO_PI)).astype(int)
    inc, ok, ends = np.zeros(m + 1), np.zeros(m + 1, dtype=bool), np.zeros((m + 1, 2))
    samples = {}
    for n in np.unique(n0):
        k = np.flatnonzero(n0 == n)
        t = np.linspace(l[k], r[k], n + 1, axis=-1)
        v = U(t)
        ends[k] = np.angle(v[:, [0, -1]])
        inc[k], ok[k], passed = _refine_rows(
            v, t, lambda _, t: U(t), np.full(len(k), U.amplitude_scale)
        )
        for i, done, ts, vs in passed:
            samples.update(zip(k[i][done].tolist(), zip(ts[done], vs[done])))
    cl, cr = np.zeros((2, m + 1))  # the Taylor limits
    if m:
        coef = (1j * g) ** zmult[:, None] * amps
        lead = np.exp(1j * g * zloc[:, None])[:, None] @ coef[..., None]
        limit = np.angle(lead[:, 0, 0])
        cr[:-1] = _wrap(limit + zmult * math.pi - ends[:-1, 1])
        cl[1:] = _wrap(ends[1:, 0] - limit)
    spans = tuple(_Span(*samples[j], cl[j], cr[j]) for j in sorted(samples))
    return float((inc + cl + cr).sum()), ok.all(), spans


def arg_increment_pair(
    U: UnivariateExpSum,
    interval: tuple[float, float],
) -> tuple[ArgTrace, ArgTrace]:
    """Increments of the arg+ and arg- branches of U over the interval,
    (plus, minus), from a single zero search and smooth trace."""
    zeros = locate_zeros(U, interval)
    interval = (float(interval[0]), float(interval[1]))
    smooth, ok, spans = _smooth_spans(
        U, *interval, np.array([z.location for z in zeros]),
        np.array([z.multiplicity for z in zeros], dtype=int),
    )
    if not ok:
        raise TrackingError("a span between zeros failed the modulus or step rule")
    zeros = tuple(zeros)
    jump = math.pi * sum(z.multiplicity for z in zeros)
    if not math.isfinite(smooth - jump):
        raise TrackingError("the increment is not finite")
    return (
        ArgTrace("plus", interval, zeros, smooth, -jump, smooth - jump, spans),
        ArgTrace("minus", interval, zeros, smooth, jump, smooth + jump, spans),
    )


def _step_ok(z0, z1, q0, q1, m1, m2, floor):
    """The certified step rule, elementwise: whether q with q0 = q(z0),
    q1 = q(z1), |q'| <= m1 and |q''| <= m2 on [z0, z1] has no zero there
    and turns along it by exactly angle(q1 / q0) (Ying & Katz, Numer. Math.
    53, 1988). With h = |z1 - z0|, q stays in the ellipse |w - q0| +
    |w - q1| <= m1 h and within m2 h^2 / 8 of the chord [q0, q1]; the step
    passes when 0 lies outside either by more than the rounding floor.
    """
    h = np.abs(z1 - z0)
    ok = np.abs(q0) + np.abs(q1) > m1 * h + floor
    rest = ~ok
    if rest.any():
        q0, q1, reach = (
            np.broadcast_to(a, ok.shape)[rest]
            for a in (q0, q1, m2 * h * h / 8 + floor)
        )
        d = q1 - q0
        c0, c1 = d.conj() * q0, d.conj() * q1
        inside = (c0.real < 0) & (c1.real > 0)  # 0 projects inside the chord
        ok[rest] = np.where(
            inside,
            np.abs(c0.imag) > reach * np.abs(d),
            np.minimum(np.abs(q0), np.abs(q1)) > reach,
        )
    return ok


def _trace(shifted, g, rows, origin, step, t, stop):
    """Certified phase change of row rows[p] of shifted, a sum in z, along
    z = origin[p] + step t over the grid t, for every p; step is 1 or 1j.
    Returns each path's phase change and whether it passed.

    The samples at t are tested as one (paths x steps) array. The failing
    steps form a ragged queue: each round cuts them all by _CUTS, each
    evaluated on its own row, and tests them as one array. A path fails
    when a step narrower than stop still fails, or when more than
    4 max(64, len(t) - 1) of its steps fail at once: it is then in the
    rounding noise of a multiple zero, and the cap bounds the queue.
    """
    amps = shifted[rows] * np.exp(1j * np.multiply.outer(origin, g))
    e = np.exp(1j * step * np.multiply.outer(g, t))
    grow = np.maximum(np.abs(e[:, 0]), np.abs(e[:, -1]))  # largest |exp(i g z)| on a path
    mods = np.abs(amps) * grow
    m1, m2 = mods @ np.abs(g), mods @ (g * g)
    floor = _STEP_FLOOR * np.abs(shifted[rows]).sum(axis=1)
    v = amps @ e
    p, s, total = np.arange(len(rows)), t, np.zeros(len(rows))
    passed, cap = np.ones(len(rows), dtype=bool), 4 * max(64, len(t) - 1)
    width = t[1] - t[0]  # of every step in the current array
    while True:
        # on the real line one row of points serves every path
        z = step * s if not origin.any() else origin[p, None] + step * s
        ok = _step_ok(z[..., :-1], z[..., 1:], v[:, :-1], v[:, 1:],
                      m1[p, None], m2[p, None], floor[p, None])
        turn = np.where(ok, np.angle(v[:, 1:] * v[:, :-1].conj()), 0.0)
        total += np.bincount(p, turn.sum(axis=1), minlength=len(rows))
        if ok.all() or width < stop:
            break
        i, j = np.nonzero(~ok)
        if len(i) > cap:
            crowded = np.bincount(p[i], minlength=len(rows)) > cap
            passed[crowded] = False
            i, j = i[~crowded[p[i]]], j[~crowded[p[i]]]
        s = np.broadcast_to(s, v.shape)
        p, s0, s1 = p[i], s[i, j], s[i, j + 1]
        s = s0[:, None] + np.multiply.outer(s1 - s0, _CUTS)
        s[:, -1] = s1
        inner = np.exp(1j * step * np.multiply.outer(s[:, 1:-1], g)) @ amps[p, :, None]
        v = np.column_stack([v[i, j], inner[..., 0], v[i, j + 1]])
        width /= len(_CUTS) - 1
    passed[p[~ok.all(axis=1)]] = False
    return total, passed


def unit_increments(
    amps: np.ndarray,
    freqs,
    centers: np.ndarray,
    floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Increments (plus, minus, done) of the arg+ and arg- branches of the
    sums q_b(s) = sum_k amps[b, k] exp(i freqs[k] s) over the windows
    (centers[b] - 1/2, centers[b] + 1/2), each seen from its centre.

    Every phase step is certified by _step_ok; no zero is located.
    * Real-line pass: a window whose max(64, ceil(8 fs / 2pi)) steps all
      pass, after cuts, holds no zero; both branches gain its phase change.
    * +-delta pass: a window with a step still failing below _AXIS_WIDTH
      has a zero on or next to the axis. Its arg+ (arg-) increment is the
      phase change from its left end up to height +delta (down to -delta),
      along that height and back to its right end: the one-sided limit
      that passes every real zero above (below). A window that fails is
      traced again at the next of _DELTAS.
    done[b] is False for a row with an amplitude at or below floor, with
    |q_b| at or below ZERO_THRESHOLD sum |a_k| at an end, or that fails at
    every delta; arg_increment_pair then decides the window.
    """
    g = np.array([float(f) for f in freqs])
    shifted = amps * np.exp(1j * np.multiply.outer(centers, g))
    ends = shifted @ np.exp(0.5j * np.multiply.outer(g, [-1.0, 1.0]))
    usable = (np.abs(amps) > floor).all(axis=1)
    usable &= np.abs(ends).min(axis=1) > ZERO_THRESHOLD * np.abs(amps).sum(axis=1)
    n0 = max(64, math.ceil(8 * float(np.abs(g).sum()) / TWO_PI))
    t = np.arange(n0 + 1) / n0 - 0.5
    todo = np.flatnonzero(usable)
    plus, minus, done = np.zeros(len(amps)), np.zeros(len(amps)), usable.copy()
    plus[todo], done[todo] = _trace(shifted, g, todo, np.zeros(len(todo)), 1, t, _AXIS_WIDTH)
    minus[todo] = plus[todo]
    todo = todo[~done[todo]]
    for delta in _DELTAS:
        if not len(todo):
            break
        k = len(todo)
        heights = np.repeat([1j * delta, -1j * delta], k)
        level, ok = _trace(shifted, g, np.tile(todo, 2), heights, 1, t, delta / 100)
        # the vertical ends, each traced upwards: at -1/2 and at 1/2, from
        # the axis to +i delta and from -i delta to the axis
        starts = np.repeat([-0.5, -0.5 - 1j * delta, 0.5, 0.5 - 1j * delta], k)
        up, up_ok = _trace(shifted, g, np.tile(todo, 4), starts, 1j,
                           np.array([0.0, delta]), delta / 100)
        (la, lb, ra, rb), up_ok = up.reshape(4, k), up_ok.reshape(4, k).all(axis=0)
        ok = ok[:k] & ok[k:] & up_ok
        plus[todo[ok]] = (la + level[:k] - ra)[ok]
        minus[todo[ok]] = (rb + level[k:] - lb)[ok]
        done[todo[ok]] = True
        todo = todo[~ok]
    return plus, minus, done
