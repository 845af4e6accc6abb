"""Command-line front end: it parses the flags and prints the results.

Subcommands: eval, basis, zeros, track, mm, verify. Every subcommand takes
--out; all but verify take --poly; zeros, track and mm take --y (0 when
not given), and zeros and track also --xperp and --interval. mm and
track report both conventions. Machine-readable output (JSON / CSV) goes
to stdout or --out; human diagnostics go to stderr. Exit codes: 0
success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io as _io
import json
import sys
import time
from pathlib import Path

import numpy as np

from .core import ExpPolynomial
from .errors import DegenerateInputError, MeanMotionError
from .io import parse_polynomial_file
from .lattice import group_basis
from .motion import WindowSchedule, _line_sum, compare_estimators
from .tracker import arg_increment_pair, locate_zeros

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _parse_numbers(text: str, kind=float) -> tuple:
    values = tuple(kind(v) for v in text.split(","))
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError(f"non-finite value in {text!r}")
    return values


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _dump_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _height(args, P) -> tuple[float, ...]:
    return _parse_numbers(args.y) if args.y else (0.0,) * P.dimension


def _interval(text: str) -> tuple[float, float]:
    ab = _parse_numbers(text)
    if len(ab) != 2:
        raise ValueError(f"--interval needs two numbers a,b, not {text!r}")
    return ab


def _line_inputs(args):
    """The restriction of P to the line that --y and --xperp give, and the
    interval."""
    P = parse_polynomial_file(args.poly)
    xperp = _parse_numbers(args.xperp) if args.xperp else (0.0,) * (P.dimension - 1)
    return _line_sum(P, _height(args, P), xperp), _interval(args.interval)


def _zeros_json(zeros) -> list[dict]:
    return [{"location": z.location, "multiplicity": z.multiplicity} for z in zeros]


def cmd_eval(args) -> int:
    P = parse_polynomial_file(args.poly)
    z = _parse_numbers(args.z, complex)
    with np.errstate(over="ignore", invalid="ignore"):
        val = P.evaluate(z)
    if not cmath.isfinite(val):
        raise DegenerateInputError(f"P({', '.join(map(str, z))}) is not finite")
    _dump_json({"re": val.real, "im": val.imag}, args.out)
    return EXIT_OK


def cmd_basis(args) -> int:
    P = parse_polynomial_file(args.poly)
    basis = group_basis(P.exponents)
    _dump_json(
        {
            "dimension": basis.dimension,
            "rank": basis.rank,
            "basis": [[str(c) for c in mu] for mu in basis.basis_vectors],
            "coords": [list(row) for row in basis.coords],
        },
        args.out,
    )
    return EXIT_OK


def cmd_zeros(args) -> int:
    U, interval = _line_inputs(args)
    zeros = _zeros_json(locate_zeros(U, interval))
    _dump_json({"interval": list(interval), "zeros": zeros}, args.out)
    return EXIT_OK


def cmd_track(args) -> int:
    U, interval = _line_inputs(args)
    trace = arg_increment_pair(U, interval)
    if args.trace_csv:
        with open(args.trace_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "plus", "minus"])
            w.writerows(trace.samples.tolist())
    _dump_json(
        {
            "interval": list(trace.interval),
            "zeros": _zeros_json(trace.zeros),
            "smooth_increment": trace.smooth_increment,
            "jump_increment": trace.jump_increment,
            "plus": trace.plus,
            "minus": trace.minus,
        },
        args.out,
    )
    return EXIT_OK


def cmd_mm(args) -> int:
    P = parse_polynomial_file(args.poly)
    schedule = WindowSchedule(
        _parse_numbers(args.windows), args.lines, args.seed
    )
    report = compare_estimators(
        P, _height(args, P), schedule, samples=args.torus_samples, seed=args.seed
    )
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _dump_json(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def _verify_cases():
    poly = ExpPolynomial.from_pairs
    yield ("pure-exp-1", poly(1, [(1.0, ["1"])]), (0.0,), 1.0, 1.0, 1e-6)
    yield ("pure-exp-5/2", poly(1, [(1.0, ["5/2"])]), (0.0,), 2.5, 2.5, 1e-6)
    yield ("pure-exp-neg3", poly(1, [(1.0, ["-3"])]), (0.0,), -3.0, -3.0, 1e-6)
    sin = poly(1, [(-0.5j, ["1"]), (0.5j, ["-1"])])
    yield ("sin-y0", sin, (0.0,), -1.0, 1.0, 0.05)
    yield ("sin-y3", sin, (3.0,), -1.0, -1.0, 0.05)
    dom = poly(2, [(2.0, ["1", "1"]), (0.5, ["2", "-1"])])
    yield ("dominant-p2", dom, (0.0, 0.0), 1.0, 1.0, 0.05)
    # 2 cos z - 2 = -4 sin^2(z/2): a double real zero every 2 pi
    double = poly(1, [(1.0, ["1"]), (-2.0, ["0"]), (1.0, ["-1"])])
    yield ("double-zero-y0", double, (0.0,), -1.0, 1.0, 0.05)
    # (e^{iz} - 1)^3: a triple real zero every 2 pi on a smooth motion 3/2
    triple = poly(1, [(1.0, ["3"]), (-3.0, ["2"]), (3.0, ["1"]), (-1.0, ["0"])])
    yield ("triple-zero-y0", triple, (0.0,), 0.0, 3.0, 0.05)


def cmd_verify(args) -> int:
    schedule = WindowSchedule((25.0, 50.0, 100.0), 128, args.seed)
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["case", "convention", "box", "torus", "diff", "tolerance", "pass"]
    )
    all_ok = True
    for name, P, y, target_plus, target_minus, target_tol in _verify_cases():
        report = compare_estimators(
            P, y, schedule, samples=800, seed=args.seed
        )
        for conv, target in (("plus", target_plus), ("minus", target_minus)):
            box_v = report["box"][conv]["value"]
            torus_v = report["torus"][conv]["value"]
            tol = max(report["tolerance"][conv], target_tol)
            ok = (
                report["box"][conv]["reliable"]
                and report["diff"][conv] <= report["tolerance"][conv]
                and abs(box_v - target) <= tol
                and abs(torus_v - target) <= tol
            )
            all_ok = all_ok and ok
            writer.writerow(
                [
                    name,
                    conv,
                    f"{box_v:.6f}",
                    f"{torus_v:.6f}",
                    f"{report['diff'][conv]:.6f}",
                    f"{report['tolerance'][conv]:.6f}",
                    "pass" if ok else "FAIL",
                ]
            )
        print(f"verified {name}", file=sys.stderr)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meanmotion",
        description="Mean motions of multivariate exponential polynomials",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    # each parent adds flags to the one before: --out, --poly, --y, the line
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file, not stdout")
    poly = argparse.ArgumentParser(add_help=False, parents=[out])
    poly.add_argument("--poly", required=True, help="polynomial JSON file")
    height = argparse.ArgumentParser(add_help=False, parents=[poly])
    height.add_argument("--y", default=None, help="comma-separated y vector")
    line = argparse.ArgumentParser(add_help=False, parents=[height])
    line.add_argument(
        "--xperp", default=None,
        help="comma-separated transverse coordinates x_2..x_p",
    )
    line.add_argument("--interval", required=True, help="a,b")

    p = sub.add_parser("eval", parents=[poly], help="evaluate P at a complex point")
    p.add_argument("--z", required=True, help="comma-separated complex point")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("basis", parents=[poly], help="basis of the exponent group")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("zeros", parents=[line], help="real zeros of a line restriction")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("track", parents=[line], help="both arg branches along a segment")
    p.add_argument("--trace-csv", default=None)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("mm", parents=[height], help="box vs torus mean-motion report")
    p.add_argument("--windows", default="25,50,100,200")
    p.add_argument("--lines", type=int, default=64)
    p.add_argument("--torus-samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mm)

    p = sub.add_parser("verify", parents=[out], help="run the bundled regression suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MeanMotionError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        json.dump(
            {"error": type(e).__name__, "message": str(e)},
            sys.stdout,
            sort_keys=True,
        )
        sys.stdout.write("\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
