"""Continuous argument branches of univariate exponential sums.

The arg+ / arg- branches along a real segment follow the convention that
a zero of multiplicity m contributes a jump of -m*pi (plus branch) or
+m*pi (minus branch). One engine computes their increments:
unit_increments settles many windows at once without locating any zero.
A window in which one term outweighs the others settles from its two
ends (Rouche's theorem on the line). Every other phase step is certified
by the step rule of _step_ok. A window whose real segment certifies holds
no zero; one whose segment does not is traced along two detours, through
heights +delta and -delta: the one-sided limits that pass its real zeros
above and below. A window on a real zero leaves the real segment in the
round where its step first fails: _doomed proves by a bound on |q| at a
located zero that the cuts would fail it, and answers stay those of the
cuts. A window with an end on a zero is settled again alone at slightly
shifted centres, where the one-sided limits still hold.

locate_zeros and arg_increment_pair, which serve the zeros and track
commands, run on the same engine: the failing steps of an interval's
first sampling mark its zero clusters, and the engine's increments over
a piece around each cluster give the cluster's multiplicity.

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
# below which a real-line step that still fails sends its window to the
# +-delta traces, the deltas in order, and the cuts of a failing step.
_STEP_FLOOR = 1e-12
_AXIS_WIDTH = 1e-5
_DELTAS = (1e-5, 1e-4, 1e-3)
# Centre shifts, in order, at which a window with an end on a zero is
# settled again: a zero of order m at an end needs |shift|^m above the floor.
_SHIFTS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
_CUTS = np.linspace(0.0, 1.0, 9)
# The most steps of a first sampling: it allocates rows x steps arrays.
_MAX_STEPS = 2**16
_BATCH_POINTS = 2**14  # the most rows x points that one _trace batch samples
# The most samplings of a contour in _winding, each bisecting the failing steps.
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
    # (n, 2) columns: s on the interval's first sampling, unwrapped phase
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
    """Real zeros of U in the interval (a, b) and the increments around them.

    Each step of the interval's first sampling (_first_steps: 16 steps,
    17 points, or more) is traced alone; a run of steps that still fail below
    _AXIS_WIDTH is a cluster of zeros on or next to the axis. The interval
    is cut halfway between clusters, and unit_increments traces each
    piece: (minus - plus) / 2pi is its cluster's multiplicity. A cluster of
    m >= 2 zeros is scanned again, which may split it, while its
    neighbourhood is wider than 64 r: rounding splits an m-fold zero over
    the radius r = (F / |c_m|)^(1/m), F the step floor and c_m the m-th
    Taylor coefficient at the middle. Otherwise Newton's method in the
    cluster locates its zero. Returns the grid, the cuts (a and b
    included), each piece's cluster as a step range [i, j) (an empty one
    in the middle when there is none), the pieces' plus and minus
    increments, and the zeros.
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
    # each step is a row seen from its left end, so its length does not round with |a|
    steps = U._amps * np.exp(1j * np.multiply.outer(grid[:-1], U._freqs))
    fail = np.flatnonzero(~_trace(steps, U._freqs, grid[:2] - a, _AXIS_WIDTH)[1])
    runs = np.split(fail, np.flatnonzero(np.diff(fail) > 1) + 1) if len(fail) else []
    clusters = [(r[0], r[-1] + 1) for r in runs] or [(n0 // 2, n0 // 2)]
    cuts = [a] + [0.5 * (grid[j] + grid[i]) for (_, j), (i, _) in zip(clusters, clusters[1:])] + [b]
    plus, minus = np.zeros(len(clusters)), np.zeros(len(clusters))
    for k, (l, r) in enumerate(zip(cuts, cuts[1:])):
        p, m, done = unit_increments(U._amps[None], U._freqs,
                                     np.array([0.5 * (l + r)]), r - l)
        if not done[0]:
            raise TrackingError(f"the piece ({l}, {r}) of the interval failed")
        plus[k], minus[k] = p[0], m[0]
    turned = (minus - plus) / TWO_PI
    mult = np.rint(turned)
    if not (np.abs(turned - mult) <= 0.1).all() or (mult < 0).any():
        raise TrackingError(f"pieces turned {turned.tolist()} times")
    zeros = []
    for (i, j), m in zip(clusters, mult):
        # the cluster's neighbourhood, from the middle of the step before it
        lo = a if i == 0 else 0.5 * (grid[i - 1] + grid[i])
        hi = b if j == n0 else 0.5 * (grid[j] + grid[j + 1])
        c = abs(U.leading_coefficient(0.5 * (lo + hi), int(m))) if m > 1 else 0.0
        found = ()
        if c and hi - lo > 64 * (_STEP_FLOOR * U.amplitude_scale / c) ** (1 / m):
            try:
                found = _scan(U, (lo, hi))[-1]
            except (EndpointZeroError, TrackingError):
                pass
        if len(found) > 1 and sum(z.multiplicity for z in found) == m:
            zeros += found
        elif m:
            zeros.append(Zero(_newton(U, grid[i], grid[j], int(m)), int(m)))
    return grid, cuts, clusters, plus, minus, tuple(zeros)


def locate_zeros(
    U: UnivariateExpSum,
    interval: tuple[float, float],
) -> list[Zero]:
    """All real zeros of U in the open interval, with multiplicities.

    A run of steps of the interval's first sampling that the certified
    step rule cannot pass is a cluster of zeros: its multiplicity is the
    winding of the engine's +-delta traces around it. A finer scan of a
    multiple cluster may split it; a cluster it does not split is one
    zero, which Newton's method locates. A zero at either endpoint is an
    EndpointZeroError; the caller is expected to perturb the window.
    """
    return list(_scan(U, interval)[-1])


def arg_increment_pair(
    U: UnivariateExpSum,
    interval: tuple[float, float],
) -> tuple[ArgTrace, ArgTrace]:
    """Increments of the arg+ and arg- branches of U over the interval,
    (plus, minus), from a single zero scan.

    The smooth increment sums (plus + minus) / 2 over the scan's pieces,
    and the jumps are -+pi times the zeros' multiplicities. The samples
    are the branch's phase on the first sampling with the cuts inserted:
    outside the clusters each step turns by the principal angle, which
    the certified step rule makes exact, and each piece's remaining turn
    goes on its cluster's middle step.
    """
    grid, cuts, clusters, plus, minus, zeros = _scan(U, interval)
    smooth = float(np.sum(0.5 * (plus + minus)))
    jump = math.pi * sum(z.multiplicity for z in zeros)
    s = np.sort(np.concatenate([grid, cuts[1:-1]]))
    q = U(s)
    turns = np.angle(q[1:] * q[:-1].conj())
    # a cut sits between two clusters, so cluster k's steps move by k
    for k, (i, j) in enumerate(clusters):
        turns[i + k : j + k] = 0.0
    mids = [(i + j) // 2 + k for k, (i, j) in enumerate(clusters)]
    firsts = np.searchsorted(s, cuts[:-1])
    traces = []
    for convention, inc, sign in (("plus", plus, -1), ("minus", minus, 1)):
        steps = turns.copy()
        steps[mids] += inc - np.add.reduceat(turns, firsts)
        phase = np.angle(q[0]) + np.concatenate([[0.0], np.cumsum(steps)])
        traces.append(ArgTrace(
            convention, (cuts[0], cuts[-1]), zeros, smooth, sign * jump,
            smooth + sign * jump, np.column_stack([s, phase]),
        ))
    return traces[0], traces[1]


def _step_ok(h, q0, q1, m1, m2, floor):
    """The certified step rule, elementwise: whether q with q0 = q(z0),
    q1 = q(z1), |q'| <= m1 and |q''| <= m2 on a segment [z0, z1] of length
    h has no zero there and turns along it by exactly angle(q1 / q0) (Ying
    & Katz, Numer. Math. 53, 1988). q stays in the ellipse |w - q0| +
    |w - q1| <= m1 h and within m2 h^2 / 8 of the chord [q0, q1]; the step
    passes when 0 lies outside either by more than the rounding floor.
    """
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


def _trace(amps, g, t, stop):
    """Certified phase change of each row of amps, a sum in z, along the
    polyline z = t through the complex grid t. Returns each row's phase
    change and whether it passed.

    The rows are taken max(1, _BATCH_POINTS // len(t)) at a time, which
    bounds the sample arrays. The batches share one exp(i g t) grid, and
    the samples at t of each are tested as one (rows x steps) array. The
    failing steps form a ragged queue: each round cuts them all by _CUTS,
    each evaluated on its own row, and tests them as one array. A row
    fails when a step narrower than stop still fails, or when more than
    4 max(64, len(t) - 1) of its steps fail at once: it is then in the
    rounding noise of a multiple zero, and the cap bounds the queue. On a
    real grid, a row also fails, and leaves the queue, in any round where
    _doomed proves, by a bound on |q| at a zero located in its first
    failing step, that the cuts would fail it. Its total is then partial,
    and no caller reads it: the detours replace it, or the row is left
    undone. Every other row runs the same arithmetic as with no proof.
    """
    real = not np.iscomplexobj(t)
    e = np.exp(1j * np.multiply.outer(g, t))
    # |exp(i g z)| is largest where Im z is extreme, at a vertex of the grid
    grow = np.abs(e).max(axis=1)
    size, out = max(1, _BATCH_POINTS // len(t)), []
    # each batch rebinds amps to its own slice of the rows
    for amps in np.split(amps, range(size, len(amps), size)):
        mods = np.abs(amps) * grow
        m1, m2 = mods @ np.abs(g), mods @ (g * g)
        floor = _STEP_FLOOR * np.abs(amps).sum(axis=1)
        v = amps @ e
        p, s, total = np.arange(len(amps)), t, np.zeros(len(amps))
        passed, cap = np.ones(len(amps), dtype=bool), 4 * max(64, len(t) - 1)
        width = np.abs(np.diff(t)).max()  # of the widest step in the current array
        while True:
            ok = _step_ok(np.abs(np.diff(s)), v[:, :-1], v[:, 1:],
                          m1[p, None], m2[p, None], floor[p, None])
            turn = np.where(ok, np.angle(v[:, 1:] * v[:, :-1].conj()), 0.0)
            total += np.bincount(p, turn.sum(axis=1), minlength=len(amps))
            if ok.all() or width < stop:
                passed[p[~ok.all(axis=1)]] = False
                break
            i, j = np.nonzero(~ok)
            s = np.broadcast_to(s, v.shape)
            p, s0, s1, v0, v1 = p[i], s[i, j], s[i, j + 1], v[i, j], v[i, j + 1]
            lost = np.bincount(p, minlength=len(amps)) > cap
            if real:
                lost |= _doomed(amps, g, p, s0, s1, v0, v1, floor)
            passed[lost] = False
            keep = ~lost[p]
            p, s0, s1, v0, v1 = p[keep], s0[keep], s1[keep], v0[keep], v1[keep]
            if not len(p):
                break
            s = s0[:, None] + np.multiply.outer(s1 - s0, _CUTS)
            s[:, -1] = s1
            inner = np.exp(1j * np.multiply.outer(s[:, 1:-1], g)) @ amps[p, :, None]
            v = np.column_stack([v0, inner[..., 0], v1])
            width /= len(_CUTS) - 1
        out.append((total, passed))
    return tuple(map(np.concatenate, zip(*out)))


def _doomed(amps, g, p, s0, s1, q0, q1, floor):
    """A mask of the rows of amps that _trace's cuts would surely fail.
    p, s0, s1, q0 and q1 give the rows, ends and end values of a round's
    failing steps on an increasing real grid, and floor is per row.

    In the first failing step of each row, the chord root and one Newton
    step on q / q' give z. A row is doomed when x = Re z lies in the step
    and |q(x)| <= F/4, F its floor. Every step [lo, hi] of width h that
    the cuts would test around x then fails: |q(lo)| + |q(hi)| <= 2 |q(x)|
    + m1 h < m1 h + F, and the chord passes within |q(x)| + m2 h^2 / 8 <
    m2 h^2 / 8 + F of 0, the margin covering the rounding of q(x). So the
    cuts fail the row down to a step narrower than stop.
    """
    doomed = np.zeros(len(floor), dtype=bool)
    rows, first = np.unique(p, return_index=True)
    s0, s1, q0, q1, amps = s0[first], s1[first], q0[first], q1[first], amps[rows]
    # a nan or infinite x, as where q' = 0, fails the comparisons
    with np.errstate(all="ignore"):
        z = s0 + (s1 - s0) * (q0 / (q0 - q1))
        terms = amps * np.exp(1j * np.multiply.outer(z, g))
        x = (z - terms.sum(axis=1) / (terms @ (1j * g))).real
        q = (amps * np.exp(1j * np.multiply.outer(x, g))).sum(axis=1)
        doomed[rows] = (s0 <= x) & (x <= s1) & (np.abs(q) <= floor[rows] / 4)
    return doomed


def unit_increments(
    amps: np.ndarray,
    freqs,
    centers: np.ndarray,
    width: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Increments (plus, minus, done) of the arg+ and arg- branches of the
    sums q_b(s) = sum_k amps[b, k] exp(i freqs[k] s) over the windows
    (centers[b] - width/2, centers[b] + width/2), each seen from its
    centre. The rows may be as many as a route has windows: _trace bounds
    the arrays it samples.

    No zero is located. Let F = _STEP_FLOOR sum |a_k| for a row.
    * Dominated rows: when |a_j| - sum_{k != j} |a_k| > F for the largest
      |a_j|, r = q / (a_j exp(i g_j s)) stays in |r - 1| < 1 on the real
      line (Rouche), so both increments are g_j width + Arg r(width/2) -
      Arg r(-width/2) (Forsberg, Passare & Tsikh, Adv. Math. 151, 2000),
      from the two ends and no trace. The other rows take two passes, every
      phase step certified by _step_ok.
    * Real-line pass: a window whose first sampling (16 steps, 17
      points, or more; see _first_steps) passes in every step, after
      cuts, holds no zero; both branches gain its phase change. A window
      on a real zero leaves it in the round where a step first fails
      (_doomed).
    * +-delta pass: a window with a step still failing below _AXIS_WIDTH
      has a zero on or next to the axis. Its arg+ (arg-) increment is the
      phase change along one path, the detour from its left end up to
      height +delta (down to -delta), along that height and back down (up)
      to its right end: the one-sided limit that passes every real zero
      above (below). A window whose detour fails in either branch is
      traced again at the next of _DELTAS.
    * Centre shifts: a nonzero row with |q_b| at or below F at an end,
      where no step can be certified, is settled again by the rules above
      at its centre plus each of _SHIFTS in turn, until one takes it. It
      is settled alone: |q| of about shift^m there magnifies rounding
      that would vary with the batch.
    done[b] is False for an identically-zero row, a row that fails at
    every delta, and a row with an end on a zero that no shift settles;
    its plus[b] and minus[b] are nan.
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
        plus[todo], done[todo] = _trace(shifted[todo], g, t, _AXIS_WIDTH)
        minus[todo] = plus[todo]
        todo = todo[~done[todo]]
    for delta in _DELTAS:
        if not len(todo):
            break
        detour = np.concatenate([[-half], t + 1j * delta, [half]])
        up, up_ok = _trace(shifted[todo], g, detour, delta / 100)
        down, down_ok = _trace(shifted[todo], g, detour.conj(), delta / 100)
        ok = up_ok & down_ok
        plus[todo[ok]], minus[todo[ok]] = up[ok], down[ok]
        done[todo[ok]] = True
        todo = todo[~ok]
    return plus, minus, done, ~usable & (floor > 0)
