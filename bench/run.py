"""Mean-motion benchmark: unit windows tracked per second.

Run from the repository root:

    python3 bench/run.py --workload sin-real-zeros --seed 1 --seconds 30 --trace 0

One process, one closed-loop caller: box-vs-torus reports run back to back
on polynomials generated from --seed (see workloads.py), and each report is
checked (see workloads.failure). With --trace 0 the loop runs
untraced for --seconds and the end-to-end metrics are reported; with
--trace 1 a fixed, seeded set of reports runs once untraced and twice traced
(see spans.py), the passes must give identical reports and the two traced
ones identical work counts, and the per-layer metrics are reported. Every
metric is printed by name with its unit; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

A report fails if it raises or if workloads.failure finds it wrong: a value
not finite, an unreliable box route, or box and torus apart (or, where an
analytic target exists, a route off it) by more than the report's tolerance
and more than six sampling standard errors. A false pass flag that sampling
explains is a statistical false alarm of the report's own test, not a wrong
answer; such reports are counted and printed, not failed. `failed` also
counts a traced run whose passes disagree, and `correct` is failed == 0.

Metrics must be nonzero, so the failed and skipped shares are reported as
their complements ok_frac and tracked_frac.
"""

import os

# Pin BLAS to one thread before numpy loads: one caller, one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans  # bench/ is on sys.path as the script's directory
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
PROBE_REPS = 60
PROBE_WINDOWS = {
    "tracker.fixed_window_zero_free_us": (0.123, 1.123),
    "tracker.fixed_window_zero_us": (-0.5, 0.5),  # sin has a zero at s=0
}
# Seconds one report takes on a 2-CPU Xeon host under Python 3.11; sizes the
# traced run so that its untraced pass fills about a quarter of --seconds.
NOMINAL_REPORT_S = {
    "sin-real-zeros": 0.3,
    "strip-zero-free": 0.045,
    "offaxis-multivariate": 0.065,
}
SETUP_CHILD = (
    "import sys, meanmotion, meanmotion.io\n"
    "for p in sys.argv[1:]:\n"
    "    meanmotion.io.parse_polynomial_file(p)\n"
    "print('ready', flush=True)\n"
)


def host() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or "unknown",
        "l3": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                info["cpu"] = value.strip()
            elif key.strip() == "cache size":
                info["l3"] = value.strip()
                break
    except OSError:
        pass
    return info


def setup_seconds(paths, cpus) -> float:
    """Median, over fresh processes, of start to `import meanmotion` plus
    loading the workload's files through meanmotion.io."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(SETUP_PROBES):
        hop(cpus, k)
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, *map(str, paths)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return statistics.median(times)


def hop(cpus, k):
    """Pin the caller to the k-th allowed CPU, round robin.

    On a shared host one CPU can run 20-40% slower than another for tens of
    seconds (a busy sibling hyperthread); hopping between the allowed CPUs
    from report to report averages that out instead of letting the
    scheduler keep the caller on the slow one. Still one thread.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})


class Loop:
    """Runs and checks reports; a failed report is counted and the run goes on."""

    def __init__(self, mm, workload, cases, polys, seed, cpus):
        self.mm, self.workload = mm, workload
        self.cases, self.polys = cases, polys
        self.cpus = cpus
        self.seeds = workloads.report_seeds(seed)
        self.k = 0
        self.times, self.windows, self.skipped = [], 0, 0
        self.failed = 0  # raised or wrong
        self.false_alarms = 0  # pass flag false, gap explained by sampling
        self.values = []  # (box, torus) x (plus, minus) of every report

    def run_one(self, tracer=None):
        case = self.cases[self.k % len(self.cases)]
        poly = self.polys[self.k % len(self.polys)]
        if tracer is not None:
            tracer.report = self.k
        hop(self.cpus, self.k)
        self.k += 1
        t0 = time.perf_counter()
        try:
            report = workloads.run_report(
                self.mm, self.workload, case, poly, next(self.seeds))
        except Exception:
            self.times.append(time.perf_counter() - t0)
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        self.times.append(time.perf_counter() - t0)
        self.windows += workloads.windows(report)
        self.skipped += workloads.skipped(report)
        self.values.append(tuple(report[route][conv]["value"]
                                 for route in ("box", "torus")
                                 for conv in ("plus", "minus")))
        why = workloads.failure(report, case.targets)
        if why is not None:
            self.failed += 1
            print(f"report {self.k - 1} on {case.path.name} failed: {why}",
                  file=sys.stderr)
        elif not report["pass"]:
            self.false_alarms += 1
            print(f"report {self.k - 1} on {case.path.name}: pass flag false, "
                  "within sampling error", file=sys.stderr)


def timed_run(mm, args, cases, polys, cpus):
    setup_s = setup_seconds([c.path for c in cases], cpus)
    loop = Loop(mm, args.workload, cases, polys, args.seed, cpus)
    t0 = time.perf_counter()
    while True:
        loop.run_one()
        elapsed = time.perf_counter() - t0
        if elapsed >= args.seconds:
            break
    attempted = len(loop.times)
    metrics = {
        "windows_per_s": loop.windows / elapsed,
        "report_s_p50": statistics.median(loop.times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - loop.failed / attempted,
        "tracked_frac": 1.0 - loop.skipped / max(loop.windows, 1),
    }
    notes = {
        "windows_per_s": f"{loop.windows} windows in {elapsed:.3f} s, "
                         f"{loop.windows / attempted:.1f} per report",
        "report_s_p50": f"{attempted} reports",
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "ok_frac": f"failed_frac = {loop.failed / attempted:.6g}, "
                   f"{loop.false_alarms} pass-flag false alarms",
        "tracked_frac": f"skipped_frac = {loop.skipped / max(loop.windows, 1):.6g}",
    }
    return attempted, loop.failed, metrics, notes


def fixed_window_probes(mm):
    sin = mm.ExpPolynomial.from_pairs(1, [(c, e) for c, e in workloads.SIN_TERMS])
    U = sin.restrict_line([0j])
    out = {}
    for name, interval in PROBE_WINDOWS.items():
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            mm.arg_increment_pair(U, interval)
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times) * 1e6
    return out


def traced_pass(mm, args, cases, cpus, n):
    """n reports with every layer wrapped; the files are loaded again inside
    the pass so that io is traced too."""
    tracer = spans.Tracer(mm)
    tracer.install()
    try:
        polys = [mm.io.parse_polynomial_file(c.path) for c in cases]
        loop = Loop(mm, args.workload, cases, polys, args.seed, cpus)
        t0 = time.perf_counter()
        for _ in range(n):
            loop.run_one(tracer)
        wps = loop.windows / (time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    return tracer, loop, wps


def traced_run(mm, args, cases, polys, cpus):
    """One untraced and two traced passes over the same seeded reports."""
    n = max(1, round(args.seconds / 4 / NOMINAL_REPORT_S[args.workload]))
    metrics = fixed_window_probes(mm)

    plain = Loop(mm, args.workload, cases, polys, args.seed, cpus)
    t0 = time.perf_counter()
    for _ in range(n):
        plain.run_one()
    untraced_wps = plain.windows / (time.perf_counter() - t0)

    tracer, loop, wps = traced_pass(mm, args, cases, cpus, n)
    tracer_b, loop_b, _ = traced_pass(mm, args, cases, cpus, n)
    counts = spans.counts(tracer.spans)
    repeat = counts == spans.counts(tracer_b.spans) and loop.windows == loop_b.windows
    if not repeat:
        print("work counts differ between the two traced passes", file=sys.stderr)
    same = plain.values == loop.values == loop_b.values
    if not same:
        print("tracing changed the reports' values", file=sys.stderr)
    metrics.update(spans.layer_metrics(tracer.spans, loop.windows, n))
    metrics.update({
        "trace.windows_per_s": wps,
        "trace.untraced_windows_per_s": untraced_wps,
        "trace.overhead_frac": 1.0 - wps / untraced_wps,
    })
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_csv(span_file)
    notes = {"trace.overhead_frac":
             f"{n} reports per pass; spans in {span_file.relative_to(ROOT)}"}
    for key, value in sorted(counts.items()):
        print(f"count {key} = {value}")
    attempted = plain.k + loop.k + loop_b.k
    broken = (not repeat) + (not same)
    failed = plain.failed + loop.failed + loop_b.failed + broken
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in workloads.GENERATORS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.GENERATORS)}")
    if not (SRC / "meanmotion" / "__init__.py").is_file():
        print(f"error: no meanmotion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meanmotion as mm
    import meanmotion.cli  # noqa: F401  (the sin workload reports through it)

    if Path(mm.__file__).resolve().parent != SRC / "meanmotion":
        print(f"error: imported meanmotion from {mm.__file__}", file=sys.stderr)
        return 2

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in manifest["per_layer" if args.trace else "end_to_end"]}
    print("host " + json.dumps(host()))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        cases = workloads.write_cases(args.workload, args.seed, workdir)
        polys = [mm.io.parse_polynomial_file(c.path) for c in cases]
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics, notes = run(mm, args, cases, polys, cpus)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not both "
              "measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1

    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metrics[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
