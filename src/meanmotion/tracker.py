"""Continuous argument branches of univariate exponential sums.

The arg+ / arg- branches along a real segment follow the convention that
a zero of multiplicity m contributes a jump of -m*pi (plus branch) or
+m*pi (minus branch). One engine computes their increments:
unit_increments settles many windows at once without locating any zero.
A window in which one term outweighs the others settles from its two
ends (Rouche's theorem on the line). Every other phase step is certified
by the step rule of _step_ok, and the real segment keeps each step's
outcome. A window whose steps all pass holds no zero. A run of steps that
fail and provably holds one simple zero crosses it in closed form,
Arg(-q_b / q_a) -+ pi (_crossings). Every other run is traced again along
two detours, through heights +delta and -delta, which start and end on
the real segment's own samples. Either gives the one-sided limits that
pass the run's real zeros above and below, added to the turns of the
steps that pass. A step on a real zero fails in the round where it
first fails: _doomed proves by a bound on |q| at a located zero that the
cuts would fail it, and answers stay those of the cuts. A window with an
end on a zero is settled again alone at slightly shifted centres, where
the one-sided limits still hold.

locate_zeros and arg_increment_pair, which serve the zeros and track
commands, run on the same engine in one pass: the interval is one row
over its first sampling, each run of its failing steps is a cluster of
zeros, and the cluster's crossing or detours give its multiplicity.

count_zeros_rectangle and winding_number count zeros by _winding: the
winding of a contour under the plain pi/2 step rule, certified for the
contour given, or an error. They share no code with the engine, so they
can serve as its oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

# A sample whose modulus is at or below ZERO_THRESHOLD times the sum of its
# terms' moduli (U.amplitude_scale on the real line) counts as a zero. Read
# at call time, never bound as a default argument.
ZERO_THRESHOLD = 1e-9
# Certified steps: the step rule's rounding floor over sum |a_k|, the width
# below which a real-line step that still fails is detoured through
# +-delta, the deltas in order, and the cuts of a failing step and of a
# detour's run.
_STEP_FLOOR = 1e-12
_AXIS_WIDTH = 1e-5
_DELTAS = (1e-5, 1e-4, 1e-3)
# Centre shifts, in order, at which a window with an end on a zero is
# settled again: a zero of order m at an end needs |shift|^m above the floor.
_SHIFTS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
_CUTS = np.linspace(0.0, 1.0, 9)
# The most steps of a first sampling: it allocates rows x steps arrays.
_MAX_STEPS = 2**16
_BATCH_POINTS = 2**14  # the most rows x points that one _certify batch tests
# The most samplings of a contour in _winding, each bisecting the failing steps.
_MAX_REFINEMENTS = 24
_POINTS_PER_TURN = 64  # least samples on a winding circle


@dataclass(frozen=True)
class Zero:
    location: float
    multiplicity: int


@dataclass(frozen=True)
class ArgTrace:
    """Both branches of arg U over an interval, from one zero scan: the
    plus (minus) total is the smooth increment less (plus) the jump, pi
    times the zeros' multiplicities."""

    interval: tuple[float, float]
    zeros: tuple[Zero, ...]
    smooth_increment: float
    jump_increment: float
    plus: float
    minus: float
    # (n + 1, 3) columns: s on the interval's first sampling, arg+ and arg- there
    samples: np.ndarray = field(repr=False, compare=False)


def winding_number(
    U: UnivariateExpSum,
    center: complex,
    radius: float,
) -> int:
    """Zeros of U inside the circle of the given centre and radius, with
    multiplicity, by _winding along it."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    n0 = max(_POINTS_PER_TURN, int(8 * U.frequency_scale * radius) + 16)
    circle = lambda th: center + radius * np.exp(1j * th)
    return _winding(U, circle, np.linspace(0.0, TWO_PI, n0 + 1))


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
    multiplicity, by _winding along its boundary."""
    s0, s1, t0, t1 = rect
    if not (s0 < s1 and t0 < t1):
        raise ValueError("rectangle must have positive extent")
    perimeter = 2 * ((s1 - s0) + (t1 - t0))
    n0 = max(128, int(8 * U.frequency_scale * perimeter / TWO_PI) + 16)
    return _winding(U, lambda t: _rect_path(rect, t), np.linspace(0.0, 4.0, n0 + 1))


def _winding(U, path, t):
    """Zeros of U inside the closed path, with multiplicity: the phase
    change of U along path(t) over 2pi, when every sample's modulus is above
    ZERO_THRESHOLD times the sum of its terms' moduli and every step turns
    by less than pi/2, failing steps bisected for at most _MAX_REFINEMENTS
    samplings. SingularContourError when a sample, or a step after the last
    sampling, breaks its rule; TrackingError unless the winding is within
    0.1 turns of a whole number that is not negative.
    """
    if U.is_identically_zero:
        raise DegenerateInputError("identically-zero sum has no winding")
    for _ in range(_MAX_REFINEMENTS):
        terms = np.exp(1j * np.multiply.outer(path(t), U._freqs)) * U._amps
        v = terms.sum(axis=1)
        if (np.abs(v) <= ZERO_THRESHOLD * np.abs(terms).sum(axis=1)).any():
            raise SingularContourError("the contour passes too close to a zero")
        steps = np.angle(v[1:] / v[:-1])
        bad = np.flatnonzero(~(np.abs(steps) < HALF_PI))
        if not len(bad):
            w = steps.sum() / TWO_PI
            if not (abs(w - round(w)) <= 0.1 and round(w) >= 0):
                raise TrackingError(f"the contour winds {w:.3f} times")
            return round(w)
        t = np.insert(t, bad + 1, 0.5 * (t[bad] + t[bad + 1]))
    raise SingularContourError(f"steps still fail after {_MAX_REFINEMENTS} samplings")


def _newton(U, lo, hi, m):
    """A real zero of multiplicity m of U in [lo, hi], by Newton's method
    for m q / q' on the real line from the middle: the iterate in [lo, hi]
    of least |q| of at most 60, which stop once a step falls to 1e-14
    max(1, |s|). Steps are divided as Python divides complex numbers,
    since a multiple zero is found only to the rounding noise of q."""
    coef = np.array([U._amps, 1j * U._freqs * U._amps])  # q, q'
    s = best = 0.5 * (lo + hi)
    least, done = math.inf, False
    for _ in range(60):
        q, dq = coef @ np.exp(1j * (s * U._freqs))
        if abs(q) < least and lo <= s <= hi:
            least, best = abs(q), s
        if done or dq == 0:
            break
        step = (complex(m * q) / complex(dq)).real
        s -= step
        done = abs(step) <= 1e-14 * max(1.0, abs(s))
    return float(best)


def _first_steps(fs, width):
    """Steps of the first sampling of a window of the given width on a sum
    of frequency scale fs (sum |g_k|): max(16, ceil(8 fs width / 2pi)).
    DegenerateInputError when that is not finite or above _MAX_STEPS."""
    n = 8 * fs * width / TWO_PI
    if not n <= _MAX_STEPS:
        raise DegenerateInputError(
            f"a window of width {width} needs {n:.3g} steps, over {_MAX_STEPS}"
        )
    return max(16, math.ceil(n))


def _scan(U, interval):
    """Real zeros of U in the interval (a, b) and its branches' turns.

    The interval is one row of _passes, seen from its middle, over its
    first sampling (_first_steps: 16 steps, 17 points, or more). Each run
    of steps that still fail below _AXIS_WIDTH is a cluster of zeros on
    or next to the axis: (down - up) / 2pi of its crossing (_crossings)
    or detours is its multiplicity. A cluster of m >= 2 zeros is scanned
    again, which may split it, while its neighbourhood is wider than 64 r:
    rounding splits an m-fold zero over the radius r = (F / |c_m|)^(1/m),
    F the step floor and c_m the m-th Taylor coefficient at the middle.
    Otherwise Newton's method in the cluster locates its zero. Returns the
    first sampling, each step's turn on the arg+ and arg- branches, 2 x
    steps, each cluster's one-sided limits on its middle step, and the
    zeros.
    """
    if U.is_identically_zero:
        raise DegenerateInputError("identically-zero sum")
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DegenerateInputError(f"the interval ({a}, {b}) is not finite")
    if not a < b:
        raise ValueError("empty interval")
    if np.abs(U(np.array([a, b]))).min() <= ZERO_THRESHOLD * U.amplitude_scale:
        raise EndpointZeroError("window endpoint sits on a zero")
    n0 = _first_steps(U.frequency_scale, b - a)
    grid = np.linspace(a, b, n0 + 1)
    shifted = U._amps * np.exp(1j * (0.5 * (a + b)) * U._freqs)
    t = (np.arange(n0 + 1) / n0 - 0.5) * (b - a)
    turn, _, lo, hi, up, down, settled = _passes(shifted[None], U._freqs, t)
    if not settled.all():
        i, j = lo[~settled][0], hi[~settled][0]
        raise TrackingError(f"the steps ({grid[i]}, {grid[j]}) of the interval failed")
    turned = (down - up) / TWO_PI
    mult = np.rint(turned)
    if not (np.abs(turned - mult) <= 0.1).all() or (mult < 0).any():
        raise TrackingError(f"clusters turned {turned.tolist()} times")
    zeros = []
    for i, j, m in zip(lo, hi, mult):
        # the cluster's neighbourhood, from the middle of the step before it
        left = a if i == 0 else 0.5 * (grid[i - 1] + grid[i])
        right = b if j == n0 else 0.5 * (grid[j] + grid[j + 1])
        c = abs(U.leading_coefficient(0.5 * (left + right), int(m))) if m > 1 else 0.0
        found = ()
        if c and right - left > 64 * (_STEP_FLOOR * U.amplitude_scale / c) ** (1 / m):
            try:
                found = _scan(U, (left, right))[-1]
            except (EndpointZeroError, TrackingError):
                pass
        if len(found) > 1 and sum(z.multiplicity for z in found) == m:
            zeros += found
        elif m:
            zeros.append(Zero(_newton(U, grid[i], grid[j], int(m)), int(m)))
    turns = np.vstack([turn, turn])
    turns[:, (lo + hi) // 2] = up, down
    return grid, turns, tuple(zeros)


def locate_zeros(
    U: UnivariateExpSum,
    interval: tuple[float, float],
) -> list[Zero]:
    """All real zeros of U in the open interval, with multiplicities.

    A run of steps of the interval's first sampling that the certified
    step rule cannot pass is a cluster of zeros: its multiplicity is the
    turn between the run's one-sided limits over 2pi, from its closed-form
    crossing or its +-delta detours, as in _scan. A finer scan of a
    multiple cluster may split it; a cluster it does not split is one
    zero, which Newton's method locates. A zero at either endpoint is an
    EndpointZeroError; the caller is expected to perturb the window.
    """
    return list(_scan(U, interval)[-1])


def arg_increment_pair(
    U: UnivariateExpSum,
    interval: tuple[float, float],
) -> ArgTrace:
    """Increments of the arg+ and arg- branches of U over the interval,
    from a single zero scan.

    The samples are both branches' phases on the interval's first
    sampling: each step turns by its certified turn, and each cluster's
    one-sided limits past its zeros go on its middle step. The smooth
    increment is the mean of the two branches' totals.
    """
    grid, turns, zeros = _scan(U, interval)
    smooth = float(turns.sum(axis=1).mean())
    jump = math.pi * sum(z.multiplicity for z in zeros)
    phase = np.angle(U(grid[:1]))[0] + np.pad(np.cumsum(turns, axis=1), ((0, 0), (1, 0)))
    return ArgTrace((float(grid[0]), float(grid[-1])), zeros, smooth, jump,
                    smooth - jump, smooth + jump, np.column_stack([grid, phase.T]))


def _step_ok(h, v, m1, m2, floor):
    """The certified step rule on paths held steps x paths: whether q,
    sampled at v[j] and v[j + 1] at the ends of step j of each path, with
    |q'| <= m1 and |q''| <= m2 along a step of length h[j], has no zero
    there and turns along it by exactly angle(v[j + 1] / v[j]) (Ying &
    Katz, Numer. Math. 53, 1988). q stays in the ellipse |w - q0| + |w - q1|
    <= m1 h and within m2 h^2 / 8 of the chord [q0, q1]; the step passes
    when 0 lies outside either by more than the rounding floor. m1, m2 and
    floor are per path; |v| is taken once, and the chord test runs only on
    the steps that fail the ellipse test, gathered by index.
    """
    av = np.abs(v)
    ok = av[:-1] + av[1:] > m1 * h + floor
    rest = np.flatnonzero(~ok)
    if len(rest):
        cols = rest % ok.shape[1]
        q0, q1 = v[:-1].reshape(-1)[rest], v[1:].reshape(-1)[rest]
        a0, a1 = av[:-1].reshape(-1)[rest], av[1:].reshape(-1)[rest]
        hr = np.broadcast_to(h, ok.shape).reshape(-1)[rest]
        reach = m2[cols] * hr * hr / 8 + floor[cols]
        d = q1 - q0
        c0, c1 = d.conj() * q0, d.conj() * q1
        inside = (c0.real < 0) & (c1.real > 0)  # 0 projects inside the chord
        ok.flat[rest] = np.where(
            inside,
            np.abs(c0.imag) > reach * np.abs(d),
            np.minimum(a0, a1) > reach,
        )
    return ok


def _trace(amps, g, t, stop, v):
    """Certified phase change of each step of a polyline z = t, for each
    row of amps, a sum in z, sampled by the caller at t: v. t and v are
    held points x rows; t may be one column that every row shares.
    Returns (turn, ok), rows x steps: each step's phase change, 0 where
    it failed, and whether it passed.

    _certify takes the rows max(1, _BATCH_POINTS // len(t)) at a time,
    which bounds the arrays of the rounds of cuts, and tests each batch's
    samples, held steps x rows.
    """
    t = np.broadcast_to(t, v.shape)
    # |exp(i g z)| is largest where Im z is extreme, at a vertex of the path
    heights = np.stack([t.imag.min(axis=0), t.imag.max(axis=0)])
    grow = np.exp(-np.multiply.outer(heights, g)).max(axis=0)
    size, out = max(1, _BATCH_POINTS // len(t)), []
    for lo in range(0, len(amps), size):
        s, vb = (np.ascontiguousarray(a[:, lo : lo + size]) for a in (t, v))
        out.append(_certify(amps[lo : lo + size], g, s, vb, grow[lo : lo + size], stop))
    turn, ok = zip(*out)
    return np.concatenate(turn), np.concatenate(ok)


def _certify(amps, g, s, v, grow, stop):
    """_trace on one batch: the rows amps sampled at v along the paths s,
    both steps x rows (s may be one column that every row shares), where
    |exp(i g_k z)| <= grow[..., k].

    Each round tests its samples as one array. The failing steps form a
    ragged queue of pieces, each keeping the row and step it came from:
    each round cuts them all by _CUTS, each evaluated on its own row, and
    tests them as one array. A step fails when a piece of it narrower than
    stop still fails, or when more than 4 max(64, steps) of its pieces fail
    at once: it is then in the rounding noise of a multiple zero, and the
    cap bounds the queue. On a real path, a step also fails in any round
    where _doomed proves, by a bound on |q| at a zero located in one of its
    failing pieces, that the cuts would fail it. A failed step leaves the
    queue. So the proof changes no step's outcome, and the turn of no step
    that passes.
    """
    real = not np.iscomplexobj(s)
    n, steps = v.shape[1], len(v) - 1
    mods = np.abs(amps) * grow
    m1, m2 = mods @ np.abs(g), mods @ (g * g)
    floor = _STEP_FLOOR * np.abs(amps).sum(axis=1)
    failed, cap = np.zeros(n * steps, dtype=bool), 4 * max(64, steps)
    # a round's columns are the rows in the first round, then pieces, each
    # of the step key, whose index in turn is row * steps + step
    p, key, h = np.arange(n), None, np.abs(np.diff(s, axis=0))
    while True:
        ok = _step_ok(h, v, m1[p], m2[p], floor[p])
        # the principal angle of each step, from one angle per sample
        arg = np.angle(v)
        step = np.where(ok, arg[1:] - arg[:-1], 0.0)
        step -= TWO_PI * np.rint(step / TWO_PI)
        if key is None:
            turn = step.T.copy()
        else:
            turn += np.bincount(key, step.sum(axis=0), minlength=n * steps).reshape(n, steps)
        i, j = np.divmod(np.flatnonzero(~ok), ok.shape[1])
        if not len(i):
            break
        k = j * steps + i if key is None else key[j]
        s = np.broadcast_to(s, v.shape)
        p, s0, s1, v0, v1 = p[j], s[i, j], s[i + 1, j], v[i, j], v[i + 1, j]
        failed[k[np.abs(s1 - s0) < stop]] = True
        failed[np.bincount(k, minlength=n * steps) > cap] = True
        live = np.flatnonzero(~failed[k])
        if real and len(live):
            # one piece of each step, the first
            f = live if key is None else live[np.unique(k[live], return_index=True)[1]]
            failed[k[f]] = _doomed(amps[p[f]], g, s0[f], s1[f], v0[f], v1[f], floor[p[f]])
            live = live[~failed[k[live]]]
        if not len(live):
            break
        p, s0, s1, v0, v1, key = (a[live] for a in (p, s0, s1, v0, v1, k))
        s = s0 + np.multiply.outer(_CUTS, s1 - s0)
        s[-1] = s1
        h = np.abs(np.diff(s, axis=0))
        v = np.empty(s.shape, dtype=complex)
        v[0], v[-1] = v0, v1
        v[1:-1] = (np.exp(1j * np.multiply.outer(s[1:-1].T, g)) @ amps[p, :, None])[..., 0].T
    failed = failed.reshape(n, steps)
    turn[failed] = 0.0
    return turn, ~failed


def _doomed(amps, g, s0, s1, q0, q1, floor):
    """Whether _certify's cuts would surely fail each of the steps [s0, s1]
    of an increasing real grid, with end values q0 and q1, of the sums
    amps, row by row, whose floors are floor.

    The chord root and one Newton step on q / q' give z. A step is doomed
    when x = Re z lies in it and |q(x)| <= F/4, F its floor. Every step
    [lo, hi] of width h that the cuts would test around x then fails:
    |q(lo)| + |q(hi)| <= 2 |q(x)| + m1 h < m1 h + F, and the chord passes
    within |q(x)| + m2 h^2 / 8 < m2 h^2 / 8 + F of 0, the margin covering
    the rounding of q(x). So the cuts fail it down to a step narrower than
    stop.

    Near a simple zero, |Im c| |q1 - q0| / (s1 - s0), c the chord root,
    is about the least |q| on the axis. Where it is F or more, the step is
    not tried: the Newton step is skipped, and the cuts decide the step.
    """
    doomed = np.zeros(len(s0), dtype=bool)
    # a nan or infinite chord root or x, as where q' = 0, fails the comparisons
    with np.errstate(all="ignore"):
        c = s0 + (s1 - s0) * (q0 / (q0 - q1))
        tried = np.flatnonzero(np.abs(c.imag) * np.abs(q1 - q0) < floor * (s1 - s0))
        if len(tried):
            x, terms = _newton_point(amps[tried], g, c[tried])
            q = terms.sum(axis=1)
            doomed[tried] = (s0[tried] <= x) & (x <= s1[tried]) & (np.abs(q) <= floor[tried] / 4)
    return doomed


def _newton_point(amps, g, c):
    """x = Re of one Newton step on q / q' from c[r], for each sum amps[r],
    and the terms a_k exp(i g_k x) there, rows x terms."""
    terms = amps * np.exp(1j * np.multiply.outer(c, g))
    x = (c - terms.sum(axis=1) / (terms @ (1j * g))).real
    return x, amps * np.exp(1j * np.multiply.outer(x, g))


def unit_increments(
    amps: np.ndarray,
    freqs,
    centers: np.ndarray,
    width: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Increments (plus, minus, done) of the arg+ and arg- branches of the
    sums q_b(s) = sum_k amps[b, k] exp(i freqs[k] s) over the windows
    (centers[b] - width/2, centers[b] + width/2), each seen from its
    centre. The rows may be as many as a route has windows: the real-line
    pass samples them all at once, and _trace bounds the arrays of the
    rounds of cuts.

    No zero is located. Let F = _STEP_FLOOR sum |a_k| for a row.
    * Dominated rows: when |a_j| - sum_{k != j} |a_k| > F for the largest
      |a_j|, r = q / (a_j exp(i g_j s)) stays in |r - 1| < 1 on the real
      line (Rouche), so both increments are g_j width + Arg r(width/2) -
      Arg r(-width/2) (Forsberg, Passare & Tsikh, Adv. Math. 151, 2000),
      from the two ends and no trace. The other rows take two passes, every
      phase step certified by _step_ok.
    * Real-line pass: each step of a window's first sampling (16 steps,
      17 points, or more; see _first_steps) passes, after cuts, or fails
      when a piece of it narrower than _AXIS_WIDTH still fails. A window
      whose steps all pass holds no zero; both branches gain its phase
      change. A step on a real zero fails in the round where it first
      fails (_doomed).
    * Crossings and the +-delta pass: each maximal run of a window's
      failing steps holds a zero on or next to the axis. A run whose
      +-delta rectangle provably holds one simple zero crosses it in
      closed form (_crossings); _detours traces every other run from its
      left end up to height +delta (down to -delta), through its _CUTS
      points there and back to its right end. The arg+ (arg-) increment
      is the turn of the steps that pass plus every run's up (down)
      limit: the one-sided limit that passes every real zero above
      (below). It is the whole window's detour up to rounding, but for a
      zero within delta above or below a step that passes, which the
      limit delta -> 0+ leaves out.
    * Centre shifts: a nonzero row with |q_b| at or below F at an end,
      where no step can be certified, is settled again by the rules above
      at its centre plus each of _SHIFTS in turn, until one takes it. It
      is settled alone: |q| of about shift^m there magnifies rounding
      that would vary with the batch.
    done[b] is False for an identically-zero row, a row with a run that
    neither _crossings nor _detours settles, and a row with an end on a
    zero that no shift settles; its plus[b] and minus[b] are nan.
    """
    g = np.array([float(f) for f in freqs])
    plus, minus, done, on_zero = _increments(amps, g, centers, width)
    for b in np.flatnonzero(on_zero):
        for shift in _SHIFTS:
            p, m, ok, _ = _increments(amps[b : b + 1], g, centers[b : b + 1] + shift, width)
            if ok[0]:
                plus[b], minus[b], done[b] = p[0], m[0], True
                break
    plus[~done] = minus[~done] = math.nan
    return plus, minus, done


def _increments(amps, g, centers, width):
    """unit_increments at the given centres, with no shift, on the float
    frequencies g: (plus, minus, done, on_zero), on_zero marking the
    nonzero rows with |q| at or below F at an end."""
    n0 = _first_steps(float(np.abs(g).sum()), width)
    shifted = amps * np.exp(1j * np.multiply.outer(centers, g))
    half = 0.5 * width
    at_ends = np.exp(1j * np.multiply.outer(g, [-half, half]))  # e^{i g_k (-+w/2)}
    ends = shifted @ at_ends
    mods = np.abs(amps)
    scale = mods.sum(axis=1)
    floor = _STEP_FLOOR * scale
    usable = np.abs(ends).min(axis=1) > floor
    t = (np.arange(n0 + 1) / n0 - 0.5) * width
    plus, minus, done = np.zeros(len(amps)), np.zeros(len(amps)), usable.copy()
    dominated = usable & (2 * mods.max(axis=1) - scale > floor)
    b, j = np.flatnonzero(dominated), mods[dominated].argmax(axis=1)
    r = ends[b] / (shifted[b, j, None] * at_ends[j])
    plus[b] = minus[b] = g[j] * width + np.angle(r[:, 1]) - np.angle(r[:, 0])
    todo = np.flatnonzero(usable & ~dominated)
    if len(todo):
        turn, row, lo, _, up_run, down_run, settled = _passes(shifted[todo], g, t)
        up, down = turn, turn.copy()
        if len(row):
            up[row, lo], down[row, lo] = up_run, down_run
            done[todo[row[~settled]]] = False
        plus[todo], minus[todo] = up.sum(axis=1), down.sum(axis=1)
    return plus, minus, done, ~usable & (floor > 0)


def _passes(shifted, g, t):
    """The real-line and +-delta passes of the sums shifted, rows seen from
    their centres, over the grid t: (turn, row, lo, hi, up, down, settled).
    turn, rows x steps, is each step's certified real-line turn, 0 where
    it failed; [lo, hi) is each maximal run of failing steps of the row
    row, and up, down and settled are its one-sided limits: _crossings
    settles the runs that cross one simple zero, and only the others go
    to _detours. No step failing, neither is called."""
    n0 = len(t) - 1
    v = (shifted @ np.exp(1j * np.multiply.outer(g, t))).T
    turn, ok = _trace(shifted, g, t[:, None], _AXIS_WIDTH, v)
    f = np.flatnonzero(~ok)  # the failing steps, row * n0 + step
    if not len(f):
        return turn, f, f, f, np.zeros(0), np.zeros(0), np.ones(0, dtype=bool)
    first = (np.diff(f, prepend=-2) > 1) | (f % n0 == 0)
    last = (np.diff(f, append=ok.size + 1) > 1) | (f % n0 == n0 - 1)
    row, lo = np.divmod(f[first], n0)
    hi = f[last] + 1 - row * n0
    amps, a, b, qa, qb = shifted[row], t[lo], t[hi], v[lo, row], v[hi, row]
    up, down, settled = _crossings(amps, g, a, b, qa, qb)
    r = np.flatnonzero(~settled)
    if len(r):
        up[r], down[r], settled[r] = _detours(amps[r], g, a[r], b[r], qa[r], qb[r])
    return turn, row, lo, hi, up, down, settled


def _crossings(amps, g, a, b, qa, qb):
    """_detours in closed form, (up, down, settled), for the segments whose
    rectangle [a, b] x [-delta, delta], delta = _DELTAS[0], provably holds
    exactly one zero z0 of the sum, a simple one: the up (down) path then
    turns by Arg(-qb / qa) - pi (+ pi), the one-sided limits past it.

    x is Re of one Newton step on q / q' from the chord root, as in
    _doomed, and m = min(x - a, b - x). Let e = |q(x)| + F and d = |q'(x)|
    - F', bounds of |q(x)| and |q'(x)| past the rounding of their sums by
    margins of the kind of _doomed's F / 4, F = _STEP_FLOOR sum |a_k| and
    F' = _STEP_FLOOR sum |a_k g_k|; rho = 2 e / d; R = hypot(max(x - a,
    b - x), delta), the radius of a disc about x that covers the rectangle;
    and M2 = sum |a_k| g_k^2 e^{|g_k| R}, which bounds |q''| on the disc.
    A segment is settled when rho <= min(delta, m) and
    (M2 R)^2 + (2 e / m)^2 < d^2. Then M2 R < d and 2 e < d m <= d R, so
    against the linear term q(x) + q'(x) (z - x), within M2 r^2 / 2 of q on
    the circle |z - x| = r <= R:
    * (i) e + M2 R^2 / 2 < d R: by Rouche's theorem the disc holds exactly
      one zero, z0;
    * (ii) the same with rho in place of R, 2 M2 e < d^2: z0 lies within
      rho of x, inside the rectangle, so down - up = 2 pi;
    * (iii) q / (z - z0), the mean of q' over [z0, z], stays within M2 R of
      q'(x): its argument, within asin(M2 R / d) of that of q'(x), turns by
      less than twice that along the up path, while z - z0 turns by -pi
      less the angles, each under asin(rho / m), at which a and b see z0 off
      the axis. The second inequality puts the two arcsines' sum under
      pi / 2, so the up turn, Arg(qb / qa) modulo 2 pi, is within pi of -pi.
    The other segments read nan and are not settled. Like the step rule's
    floor, the margins take each term's rounding at x to be under
    _STEP_FLOOR |a_k|, which the rounding of g_k x alone passes once
    |g_k x| nears 10^4; on such wide rows the certificates seen hold with
    room to spare.
    """
    mods = np.abs(amps)
    # a nan or infinite chord root or x, as where q' = 0, fails the comparisons
    with np.errstate(all="ignore"):
        x, terms = _newton_point(amps, g, a + (b - a) * (qa / (qa - qb)))
        e = np.abs(terms.sum(axis=1)) + _STEP_FLOOR * mods.sum(axis=1)
        d = np.abs(terms @ (1j * g)) - _STEP_FLOOR * (mods @ np.abs(g))
        m = np.minimum(x - a, b - x)
        r = np.hypot(np.maximum(x - a, b - x), _DELTAS[0])
        m2r = (mods * np.exp(np.multiply.outer(r, np.abs(g)))) @ (g * g) * r
        settled = (2 * e <= d * np.minimum(m, _DELTAS[0])) & (m2r**2 + (2 * e / m) ** 2 < d * d)
    arg = np.where(settled, np.angle(-qb / qa), math.nan)
    return arg - math.pi, arg + math.pi, settled


def _detours(amps, g, a, b, qa, qb):
    """The turns (up, down, settled) of each sum amps[r] over its real
    segment [a[r], b[r]], at whose ends it takes the samples qa[r] and
    qb[r], along the one-sided limits: the paths from a[r] up to height
    delta (down to -delta), through the segment's _CUTS points there, and
    back to b[r]. The up and down paths of every segment go through one
    _trace call per delta, and a segment is settled at the first of
    _DELTAS at which both pass. One that no delta settles, as where a zero
    sits within delta above or below an end, is traced along the real line
    through the same points, down to the first delta's stop: where that
    passes, the segment holds no zero, and both turns are its real one.

    Each path starts and ends on the given samples, so that its turn and
    the turns of the real steps around it telescope. Its other points are
    sampled from exp(i g_k x) at the _CUTS points x, taken once for every
    path, times exp(-g_k height).
    """
    x = a + np.multiply.outer(_CUTS, b - a)
    x[-1] = b
    ex = np.exp(1j * np.multiply.outer(g, x))  # terms x points x segments

    def at(todo, height):  # the sums of the segments todo at x + i height
        return sum(e[:, todo] * (amps[todo, k] * math.exp(-gk * height))
                   for k, (gk, e) in enumerate(zip(g, ex)))

    up, down = np.full(len(a), math.nan), np.full(len(a), math.nan)
    todo = np.arange(len(a))
    for delta in _DELTAS:
        if not len(todo):
            break
        path = np.vstack([a[todo], x[:, todo] + 1j * delta, b[todo]])
        v = [np.vstack([qa[todo], at(todo, side), qb[todo]]) for side in (delta, -delta)]
        turn, ok = _trace(np.vstack([amps[todo]] * 2), g, np.hstack([path, path.conj()]),
                          delta / 100, np.hstack(v))
        turn, ok = turn.sum(axis=1).reshape(2, -1), ok.all(axis=1).reshape(2, -1).all(axis=0)
        up[todo[ok]], down[todo[ok]] = turn[:, ok]
        todo = todo[~ok]
    if len(todo):
        v = at(todo, 0.0)
        v[0], v[-1] = qa[todo], qb[todo]
        turn, ok = _trace(amps[todo], g, x[:, todo], _DELTAS[0] / 100, v)
        ok = ok.all(axis=1)
        up[todo[ok]] = down[todo[ok]] = turn[ok].sum(axis=1)
        todo = todo[~ok]
    settled = np.ones(len(a), dtype=bool)
    settled[todo] = False
    return up, down, settled
