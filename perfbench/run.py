"""supercalc benchmark: three paper workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fsm_transport --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each solution starts when the previous
one returns, until the next one would end past ``--seconds``.  Inputs come
from ``--seed`` only.  Every solution is checked against its reference; a
solution that raises or misses a tolerance counts as failed and the run goes
on.  Solution and set-up times are rescaled to a fixed machine speed gauged
by the kernel in reference.py; the raw wall times are printed and recorded
next to them.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs half the time untraced and half traced, and reports the
per-layer metrics of the traced solutions plus ``trace.overhead_ratio``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, per-solution times, checks, the trace and its spans) goes to
``perfbench/results/``.
"""

import os

# One thread for BLAS and OpenMP pools, in this process and the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("fsm_transport", "spin_transport", "berezinian_dense")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


@dataclass
class Solution:
    wall_s: float
    reference_s: float
    checks: list = field(default_factory=list)
    error: str | None = None

    @property
    def seconds(self) -> float:
        """Wall time rescaled to the reference speed (see reference.py)."""
        return reference.at_reference_speed(self.wall_s, self.reference_s)

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print the seconds")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup(workload: str, seed: int):
    """Import supercalc and build the workload's inputs.

    Returns the workload, its cases and the set-up time at reference speed.
    """
    with reference.Stopwatch() as watch:
        sys.path.insert(0, str(SRC))
        import workloads  # imports supercalc

        wl = workloads.WORKLOADS[workload]
        cases = wl.build(seed)
    return wl, cases, watch.seconds


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up times of fresh processes, so every import is a first import."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def run_solutions(wl, cases, seconds: float, first: int = 0, tracer=None) -> list:
    """Closed loop: solve until the next solution would end past the budget."""
    solutions = []
    start = time.perf_counter()
    index = first
    while True:
        case = cases[index % len(cases)]
        error = None
        with reference.Stopwatch() as watch:
            if tracer is not None:
                tracer.begin(index)
            try:
                output = wl.solve(case)
            except Exception as exc:  # a failed solution is recorded; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.end()
        solution = Solution(watch.wall_s, watch.reference_s, error=error)
        if solution.error is None:
            try:
                solution.checks = wl.check(case, output)
            except Exception as exc:  # an output the reference cannot use fails too
                solution.error = f"check {type(exc).__name__}: {exc}"
        solutions.append(solution)
        index += 1
        if time.perf_counter() - start + watch.wall_s > seconds:
            return solutions


def timing_line(label: str, times: list) -> str:
    """Sample count, median and the highest of p75/p90/p99/p99.9 that has at
    least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    line = f"{label}: {n} solutions, median {statistics.median(ordered):.6g} s"
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return line + f", p{p:g} {ordered[math.ceil(p / 100.0 * n) - 1]:.6g} s"
    return line


def agree_digits(solutions: list) -> float:
    digits = [c.digits for s in solutions for c in s.checks]
    return min(digits) if digits else 0.0


def check_summary(solutions: list) -> dict:
    worst = {}
    for s in solutions:
        for c in s.checks:
            prev = worst.get(c.name)
            if prev is None or c.error > prev["error"]:
                worst[c.name] = {"error": c.error, "tol": c.tol, "digits": c.digits}
    return worst


def git_commit():
    """HEAD of a git checkout, read from its files; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(solutions: list, setups: list) -> dict:
    times = [s.seconds for s in solutions]
    passed = sum(s.passed for s in solutions)
    return {
        "solve_s": metric(statistics.median(times), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "agree_digits": metric(agree_digits(solutions), "digits"),
        "passed_frac": metric(passed / len(solutions), "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "supercalc" / "__init__.py").is_file():
        print(f"supercalc sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        print(repr(setup(args.workload, args.seed)[2]))
        return 0

    setups = setup_seconds(args.workload, args.seed) if not args.trace else []
    wl, cases, own_setup = setup(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}

    if not args.trace:
        solutions = run_solutions(wl, cases, args.seconds)
        metrics = end_to_end(solutions, setups)
        timings = {"solution_s": solutions}
        record["setup_s_samples"] = setups
    else:
        import tracing
        import workloads

        plain = run_solutions(wl, cases, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracing.install(tracer, callers=(workloads,))
        try:
            # rebuilt so that objects made at set-up carry the wrappers
            traced_cases = wl.build(args.seed)
            traced = run_solutions(wl, traced_cases, args.seconds / 2.0,
                                   first=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer, len(traced))
        overhead = (statistics.median(s.seconds for s in traced)
                    / statistics.median(s.seconds for s in plain))
        layers["trace.overhead_ratio"] = (overhead, "ratio")
        metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
        timings = {"untraced_solution_s": plain, "traced_solution_s": traced}
        record["trace"] = tracer.summary()
        solutions = plain + traced

    failed = sum(not s.passed for s in solutions)
    record.update({
        "environment": environment(),
        "own_setup_s": own_setup,
        "checks": check_summary(solutions),
        "errors": [s.error for s in solutions if s.error is not None][:10],
        "metrics": metrics,
    })
    for key, group in timings.items():
        record[key] = [s.seconds for s in group]
        record[key.replace("solution_s", "solution_wall_s")] = [s.wall_s for s in group]

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    for key, group in timings.items():
        print(timing_line(f"{args.workload} {key}", [s.seconds for s in group]))
        print(timing_line(f"{args.workload} {key} (wall)", [s.wall_s for s in group]))
    print("environment: " + json.dumps(record["environment"]))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(solutions), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
