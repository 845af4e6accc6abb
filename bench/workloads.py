"""Seeded workloads for the mean-motion benchmark.

A workload is a list of cases (a polynomial JSON file, a height y and,
where one exists, the analytic (plus, minus) target) and a report runner.
Every input comes from the workload seed; the program only sees the files.

Why these three:

* sin-real-zeros: about 32% of unit windows hold a real zero of sin, so
  Newton polishing, the multiplicity windings and the leading-coefficient
  corrections run. Its reports go through `meanmotion.cli` and
  `meanmotion.io`, the only workload that does.
* strip-zero-free: one dominant coefficient (p=2, y=0) or sin deep in the
  strip (y=3) leaves no zero near any window, so per-window fixed costs
  dominate. This is where a batched zero-free path would gain most.
* offaxis-multivariate: random p=2..3 sums at higher frequency have complex
  zeros just off the real axis. They force rectangle subdivision and
  Newton rejections, but make no winding calls; lattice rank reaches 3.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# Report sizes: (box sizes, lines per box, torus samples). A report takes
# 0.05-0.3 s on a 2-CPU Xeon host, so a run holds about a hundred (sin) to
# several hundred reports and the median report time is steady.
REPORT_SIZE = {
    "sin-real-zeros": ((25.0, 50.0, 100.0), 64, 400),
    "strip-zero-free": ((25.0, 50.0, 100.0), 16, 96),
    "offaxis-multivariate": ((25.0, 50.0, 100.0), 16, 48),
}
TARGET_TOL = 0.05  # the analytic-target floor that `meanmotion verify` uses
SAMPLING_Z = 6.0  # a 6-sigma sampling deviation has two-sided odds of 2e-9
SIN_TERMS = [(-0.5j, ("1",)), (0.5j, ("-1",))]


@dataclass(frozen=True)
class Case:
    path: Path
    y: tuple[float, ...]
    targets: tuple[float, float] | None  # analytic (plus, minus), if any


def _poly_json(dimension, pairs) -> dict:
    return {
        "dimension": dimension,
        "terms": [
            {"re": float(c.real), "im": float(c.imag), "exponent": list(e)}
            for c, e in pairs
        ],
    }


def _distinct_exponents(rng, count, p, max_num, max_den):
    seen, out = set(), []
    while len(out) < count:
        e = tuple(
            Fraction(int(rng.integers(-max_num, max_num + 1)),
                     int(rng.integers(1, max_den + 1)))
            for _ in range(p)
        )
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def _sin_cases(rng):
    return [(1, SIN_TERMS, (0.0,), (-1.0, 1.0))]


def _strip_cases(rng):
    """Fifteen blocks of fifteen dominant-coefficient p=2 sums at y=0 and
    sin at y=3; many sums, so that the seed barely moves the median report."""
    cases = []
    for k in range(225):
        exps = _distinct_exponents(rng, 3, 2, 3, 2)
        coeffs = [4.0 * np.exp(1j * rng.uniform(0, 2 * math.pi))]
        coeffs += [
            0.3 * rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(2)
        ]
        pairs = [(c, tuple(str(v) for v in e)) for c, e in zip(coeffs, exps)]
        lam1 = float(exps[0][0])
        cases.append((2, pairs, (0.0, 0.0), (lam1, lam1)))
        if k % 15 == 14:
            cases.append((1, SIN_TERMS, (3.0,), (-1.0, -1.0)))
    return cases


# Every seed gets the same mix of (dimension, terms) shapes, so the seed
# changes exponents and coefficients but not the kind of work. Work per
# window still varies about 35% from sum to sum, so a run visits hundreds
# of distinct sums, enough that the seed moves the mean by only a few %.
_OFFAXIS_SHAPES = ((2, 4), (3, 5), (2, 6), (3, 4), (2, 5), (3, 6)) * 96


def _offaxis_cases(rng):
    cases = []
    for p, s in _OFFAXIS_SHAPES:
        exps = _distinct_exponents(rng, s, p, 6, 3)
        coeffs = []
        for _ in exps:
            c = complex(rng.normal(), rng.normal())
            coeffs.append(c if abs(c) >= 1e-3 else 1 + 1j)
        pairs = [(c, tuple(str(v) for v in e)) for c, e in zip(coeffs, exps)]
        y = tuple(float(v) for v in rng.uniform(-0.5, 0.5, p))
        cases.append((p, pairs, y, None))
    return cases


GENERATORS = {
    "sin-real-zeros": _sin_cases,
    "strip-zero-free": _strip_cases,
    "offaxis-multivariate": _offaxis_cases,
}


def write_cases(workload: str, seed: int, workdir: Path) -> list[Case]:
    """Generate the workload's polynomials from the seed and write them."""
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    cases = []
    for k, (p, pairs, y, targets) in enumerate(GENERATORS[workload](rng)):
        path = workdir / f"{workload}-{k:02d}.json"
        path.write_text(json.dumps(_poly_json(p, pairs), indent=2) + "\n")
        cases.append(Case(path, y, targets))
    return cases


def report_seeds(seed: int):
    """Endless seeded stream of per-report seeds."""
    rng = np.random.default_rng([seed, 0x5EED])
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def run_report(mm, workload, case, poly, report_seed) -> dict:
    """One box-vs-torus report; returns the report dict.

    sin-real-zeros goes through `meanmotion mm` in-process, so the CLI and
    the file loader are on its path; the others call compare_estimators on
    the polynomial loaded at set-up.
    """
    sizes, lines, samples = REPORT_SIZE[workload]
    if workload == "sin-real-zeros":
        out = case.path.with_suffix(".report.json")
        argv = [
            "mm", "--poly", str(case.path),
            "--y", ",".join(repr(v) for v in case.y),
            "--windows", ",".join(repr(v) for v in sizes),
            "--lines", str(lines),
            "--torus-samples", str(samples),
            "--seed", str(report_seed),
            "--out", str(out),
        ]
        with contextlib.redirect_stdout(_io.StringIO()):
            code = mm.cli.main(argv)
        if code == 2:
            raise RuntimeError(f"meanmotion mm exited {code}")
        return json.loads(out.read_text())
    schedule = mm.WindowSchedule(sizes, lines, report_seed)
    return mm.compare_estimators(
        poly, case.y, schedule, samples=samples, seed=report_seed
    )


def windows(report) -> int:
    """Unit windows attempted: box lines plus torus samples and skips."""
    t = report["torus"]["plus"]
    return report["box"]["plus"]["total_lines"] + t["samples"] + t["skipped"]


def skipped(report) -> int:
    return report["box"]["plus"]["skipped"] + report["torus"]["plus"]["skipped"]


def _sigmas(report, conv) -> tuple[float, float]:
    """Sampling standard errors (box, torus) of one convention's values.

    The torus route reports its own. Box lines and torus points sample one
    distribution of unit-window increments (the lines equidistribute on the
    torus, which is why the routes agree), so the standard deviation of the
    torus samples over the largest box's lines gives the box route's.
    """
    t, b = report["torus"][conv], report["box"][conv]
    sd = t["stderr"] * math.sqrt(t["samples"])
    lines = (b["total_lines"] - b["skipped"]) / len(b["per_window"])
    return sd / math.sqrt(max(lines, 1.0)), t["stderr"]


def failure(report, targets) -> str | None:
    """Why the report is wrong, or None.

    A report is wrong if a value is not finite, if the box route skipped 1%
    or more of its lines, if box and torus differ by more than the report's
    tolerance and more than SAMPLING_Z sampling standard errors, or, where an
    analytic target exists, if a route is off it by more than
    max(tolerance, 0.05), the rule `meanmotion verify` uses, and more than
    SAMPLING_Z of its standard errors.

    The sampling term is there because the pass flag is a statistical test:
    its tolerance, 3 * (box spread + torus standard error), rests on the
    range of three box means, which is near 0 by chance in about 1 sin
    report in 1250 (the means are multiples of pi/64), so it flags correct
    reports at that rate. Every report it flags still fails here unless
    sampling explains the gap.
    """
    for k, conv in enumerate(("plus", "minus")):
        box = report["box"][conv]
        values = {"box": box["value"], "torus": report["torus"][conv]["value"]}
        for route, value in values.items():
            if not math.isfinite(value):
                return f"{route} {conv} = {value}"
        if not box["reliable"]:
            return f"box {conv} skipped {box['skipped']} of {box['total_lines']} lines"
        tol = report["tolerance"][conv]
        sigma = dict(zip(values, _sigmas(report, conv)))
        gap = abs(values["box"] - values["torus"])
        if not gap <= max(tol, SAMPLING_Z * math.hypot(*sigma.values())):
            return (f"box and torus {conv} differ by {gap}: more than the "
                    f"tolerance {tol} and {SAMPLING_Z} standard errors")
        if targets is None:
            continue
        for route, value in values.items():
            off = abs(value - targets[k])
            if not off <= max(tol, TARGET_TOL, SAMPLING_Z * sigma[route]):
                return (f"{route} {conv} = {value} is off target {targets[k]} "
                        f"by more than max({tol}, {TARGET_TOL}) and "
                        f"{SAMPLING_Z} standard errors")
    return None
