"""Spans around the public callables of each meanmotion layer.

The program is not changed: a Tracer swaps each public function or method
for a wrapper that records a span (name, start, end, parent span, report
id, info) in memory, and puts the originals back on uninstall. Layer
metrics are then computed from the spans; the counts among them are
deterministic for a given seed.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from collections import Counter, defaultdict

import numpy as np

RAISED = "raised"


def _points(args, result):
    # (evaluation points, terms) of UnivariateExpSum.__call__ / .derivative
    return (int(np.size(args[1])), len(args[0].terms))


class Tracer:
    """Records spans while installed; one per traced pass."""

    def __init__(self, mm):
        self.mm = mm
        self.spans: list[list] = []  # [name, start, end, parent, report, info]
        self.report = -1  # id shared by the spans of one report; -1 is set-up
        self._stack = [-1]
        self._route: dict[int, str] = {}  # id(UnivariateExpSum) -> route
        self._saved: list[tuple[object, str, object]] = []

    def _mark(self, route):
        def info(args, result):
            self._route[id(result)] = route

        return info

    def _window_info(self, args, result):
        return (len(result[0].zeros), self._route.get(id(args[0]), "other"))

    def _targets(self):
        mm = self.mm
        core, tracker = mm.core, mm.tracker
        return [
            (mm.cli, "main", "cli.main", None),
            (mm.io, "parse_polynomial_file", "io.parse_polynomial_file", None),
            (mm.motion, "compare_estimators", "motion.compare_estimators", None),
            (mm.lattice, "group_basis", "lattice.group_basis", None),
            (core, "lift", "core.lift", None),
            (core.ExpPolynomial, "restrict_line", "core.restrict_line",
             self._mark("box")),
            (core.LiftedPolynomial, "line_restriction", "core.line_restriction",
             self._mark("torus")),
            (core.UnivariateExpSum, "__call__", "core.eval", _points),
            (core.UnivariateExpSum, "derivative", "core.derivative", _points),
            (core.UnivariateExpSum, "leading_coefficient",
             "core.leading_coefficient", None),
            (tracker, "arg_increment_pair", "tracker.arg_increment_pair",
             self._window_info),
            (tracker, "locate_zeros", "tracker.locate_zeros", None),
            (tracker, "count_zeros_rectangle", "tracker.count_zeros_rectangle",
             None),
            (tracker, "winding_number", "tracker.winding_number", None),
        ]

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], self.report, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = RAISED
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return traced

    def install(self):
        """Wrap every target, in its own module and wherever it was imported."""
        mm = self.mm
        modules = [mm, mm.core, mm.lattice, mm.tracker, mm.motion, mm.io, mm.cli]
        for owner, attr, name, info in self._targets():
            orig = owner.__dict__[attr]
            wrapped = self._wrap(orig, name, info)
            holders = [owner] + [
                m for m in modules if m is not owner and m.__dict__.get(attr) is orig
            ]
            for holder in holders:
                self._saved.append((holder, attr, orig))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, orig in reversed(self._saved):
            setattr(holder, attr, orig)
        self._saved.clear()

    def write_csv(self, path):
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "report", "info"])
            for i, (name, t0, t1, parent, report, info) in enumerate(self.spans):
                w.writerow([i, name, f"{t0:.9f}", f"{t1:.9f}", parent, report,
                            "" if info is None else info])


def counts(spans) -> dict:
    """Deterministic work counters: calls, raises, points and term evals."""
    c = Counter()
    for name, _, _, _, _, info in spans:
        c[f"{name}.calls"] += 1
        if info == RAISED:
            c[f"{name}.raised"] += 1
        elif name in ("core.eval", "core.derivative"):
            c[f"{name}.points"] += info[0]
            c[f"{name}.term_evals"] += info[0] * info[1]
        elif name == "tracker.arg_increment_pair" and info[0]:
            c["tracker.windows_with_zeros"] += 1
    return dict(c)


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, windows: int, reports: int) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)  # parent index -> time in direct children
    named_child_time = defaultdict(float)  # (parent index, child name) -> time
    for i, (name, t0, t1, parent, report, info) in enumerate(spans):
        by_name[name].append((t1 - t0, info, i, report))
        if parent >= 0:
            child_time[parent] += t1 - t0
            named_child_time[(parent, name)] += t1 - t0

    def durs(name, keep=lambda info: True):
        return [d for d, info, _, _ in by_name[name] if keep(info)]

    def total(*names):
        return sum(sum(durs(n)) for n in names)

    def self_times(name, child_name=None):
        """Span durations minus their direct children (or one kind of child)."""
        return [
            d - (child_time[i] if child_name is None
                 else named_child_time[(i, child_name)])
            for d, _, i, _ in by_name[name]
        ]

    c = counts(spans)
    ok = lambda info: info != RAISED
    win = "tracker.arg_increment_pair"
    win_time = total(win)
    win_calls = c.get(f"{win}.calls", 0)
    good = durs(win, ok)
    rect_calls = c.get("tracker.count_zeros_rectangle.calls", 0)
    report_time = total("motion.compare_estimators")
    per_w = lambda key: _ratio(c.get(key, 0), windows)
    us = 1e6
    return {
        "core.eval_calls_per_window": per_w("core.eval.calls"),
        "core.eval_points_per_window": per_w("core.eval.points"),
        "core.term_evals_per_window": per_w("core.eval.term_evals")
        + per_w("core.derivative.term_evals"),
        "core.deriv_calls_per_window": per_w("core.derivative.calls"),
        "core.eval_self_s_frac": _ratio(total(
            "core.eval", "core.derivative", "core.leading_coefficient"
        ), win_time),
        "core.line_restriction_us_p50": _p(durs("core.line_restriction"), 50) * us,
        "core.restrict_line_us_p50": _p(durs("core.restrict_line"), 50) * us,
        "core.lift_s": _p(durs("core.lift"), 50),
        "lattice.group_basis_s": _p(durs("lattice.group_basis"), 50),
        "tracker.window_us_p50": _p(durs(win), 50) * us,
        "tracker.window_us_p99": _p(durs(win), 99) * us,
        "tracker.window_us_zero_free_p50": _p(
            durs(win, lambda i: ok(i) and i[0] == 0), 50) * us,
        "tracker.window_us_zeros_p50": _p(
            durs(win, lambda i: ok(i) and i[0] > 0), 50) * us,
        "tracker.zero_free_frac": (
            1.0 - c.get("tracker.windows_with_zeros", 0) / len(good) if good else 0.0
        ),
        "tracker.locate_zeros_share": _ratio(total("tracker.locate_zeros"), win_time),
        "tracker.rect_counts_per_window": per_w("tracker.count_zeros_rectangle.calls"),
        "tracker.rect_us_p50": _p(durs("tracker.count_zeros_rectangle"), 50) * us,
        "tracker.rect_failed_frac": _ratio(
            c.get("tracker.count_zeros_rectangle.raised", 0), rect_calls),
        "tracker.winding_calls_per_window": per_w("tracker.winding_number.calls"),
        "tracker.window_failed_frac": _ratio(c.get(f"{win}.raised", 0), win_calls),
        "motion.self_s_frac": _ratio(
            sum(self_times("motion.compare_estimators")), report_time),
        "motion.box_window_us_p50": _p(
            durs(win, lambda i: ok(i) and i[1] == "box"), 50) * us,
        "motion.torus_window_us_p50": _p(
            durs(win, lambda i: ok(i) and i[1] == "torus"), 50) * us,
        "motion.attempts_per_window": per_w(f"{win}.calls"),
        "motion.windows_per_report": windows / reports,
        "io.parse_s": sum(
            d for d, _, _, report in by_name["io.parse_polynomial_file"]
            if report == -1
        ),
        "cli.self_s": _p(self_times("cli.main", "motion.compare_estimators"), 50),
    }
