"""Run one fairgrade benchmark workload and print its metrics.

    python3 bench/run.py --workload exam-dense --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the next operation starts only after
the previous one has returned and been checked. BLAS and OpenMP pools are
pinned to one thread before numpy loads. With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it runs every operation once untraced and
once traced and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
An operation fails when it does not complete (a CLI exit code other than 0,
an exception, a failed replication, the deadline) or when it completes with
a wrong output; `correct` is false when any output was wrong.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracing import ROOT, Tracer, instrument, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("exam-dense", "exam-sparse", "mc-published")
SETUP_REPEATS = 5
OP_DEADLINE_S = 45  # ten times the slowest operation; keeps a run under 180 s
CALIBRATION_REPEATS = 5
# The calibration kernel's median time on the machine the bounds were set on
# (2 virtual cores of an Intel Xeon, BLAS on one thread).
REFERENCE_KERNEL_S = 0.022


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    try:
        load = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        load = []
    cpus = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": cpus,
        "loadavg": load,
        "contended": bool(load) and load[0] > cpus,
    }


class Speedometer:
    """Times a fixed kernel of the benchmark's own code, to scale timings to
    the reference machine speed.

    A shared host changes this process's speed by up to 2x for seconds to
    minutes at a time, and CPU time changes with it. The kernel, run just
    before and just after each timed operation, slows down with the same
    phases: the ratio of a pure-Python loop to a dense solve stays within
    about 4% while each swings by 30%. So an operation's wall time times
    `REFERENCE_KERNEL_S / kernel time` reads the same in fast and slow
    phases. The kernel mixes what fairgrade spends its time on: dict and
    list work in Python, and a dense solve.
    """

    N = 500
    KEYS = tuple(f"s{i}" for i in range(12000))

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        m = rng.random((self.N, self.N))
        self.matrix = m @ m.T + self.N * np.eye(self.N)
        self.rhs = rng.random(self.N)
        self.solve = np.linalg.solve
        self.kernel()  # warm-up

    def kernel(self) -> float:
        index: dict[str, int] = {}
        for key in self.KEYS:
            index[key] = len(index)
        rows = sorted(([index[key], i % 7] for i, key in enumerate(self.KEYS)),
                      key=lambda row: (row[1], row[0]))
        x = self.solve(self.matrix, self.solve(self.matrix, self.rhs))
        return len(rows) + float(x[0])

    def sample(self) -> float:
        """Median seconds of the kernel over `CALIBRATION_REPEATS` runs."""
        times = []
        for _ in range(CALIBRATION_REPEATS):
            start = perf_counter()
            self.kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from this process's speed around a timing to the reference speed."""
        return REFERENCE_KERNEL_S / ((before + after) / 2)


def setup_child(name: str, seed: int, workdir: Path) -> None:
    """Set-up as a fresh interpreter pays it: import, generate, write."""
    start = perf_counter()
    import workloads

    workloads.prepare(workloads.find_spec(name), seed, workdir)
    print(json.dumps({"setup_s": perf_counter() - start}))


def time_setup(name: str, seed: int, workdir: Path, repeats: int,
               speed: Speedometer) -> list[tuple[float, float]]:
    """(wall seconds, scale to reference speed) of each fresh set-up."""
    times = []
    before = speed.sample()
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-child", "--workload", name, "--seed", str(seed),
             "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
        after = speed.sample()
        times.append((json.loads(proc.stdout.splitlines()[-1])["setup_s"],
                      speed.scale(before, after)))
        before = after
    return times


@dataclass
class Op:
    wall: float
    exams: int
    evaluations: int
    failures: list[str]  # the operation did not complete
    wrong: list[str]  # it completed with a wrong output
    scale: float = 1.0  # to the reference speed; see `Speedometer`

    @property
    def reference_wall(self) -> float:
        return self.wall * self.scale


class OperationTimeout(BaseException):
    """Raised into an operation that outlives `OP_DEADLINE_S`.

    A BaseException, so that the simulation harness's `except Exception`
    around each replication does not swallow it.
    """


def _expire(signum, frame):
    raise OperationTimeout(f"operation exceeded {OP_DEADLINE_S} s")


def attempt(workload, k: int, tracer: Tracer | None) -> Op:
    """One timed operation, then its output checks (untimed)."""
    workload.reset()
    outcome, failures, wrong = None, [], []
    previous = signal.signal(signal.SIGALRM, _expire)
    start = perf_counter()
    try:
        signal.alarm(OP_DEADLINE_S)
        if tracer is None:
            outcome = workload.execute(k)
        else:
            with instrument(tracer), tracer.op(workload.label(k)):
                outcome = workload.execute(k, tracer)
    except (Exception, OperationTimeout) as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        failures = [f"raised {exc!r}"]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = perf_counter() - start
    if outcome is not None:
        failures = outcome.failures
        try:
            wrong = workload.check(k, outcome)
        except Exception as exc:  # unreadable output is a wrong output
            wrong = [f"output check raised {exc!r}"]
    for problem in failures + wrong:
        print(f"bench: FAILED {workload.label(k)}: {problem}", file=sys.stderr)
    if outcome is None:
        return Op(wall, 1, 0, failures, wrong)
    return Op(wall, outcome.exams, outcome.evaluations, failures, wrong)


def measure(workload, seconds: float, tracer: Tracer | None, speed: Speedometer | None = None):
    """Cycle through the input pool until `seconds` have passed, at least once.

    An untraced run samples `speed` before the first operation and after
    each one, and scales each operation to the reference speed.

    A traced run pairs each traced operation with an untraced one on the
    same input. It runs whole passes over the pool, so that counts per
    operation weight every input equally, and starts another pass only if
    the last one would still fit in `seconds`.
    """
    untraced, traced = [], []
    pool = workload.spec.pool
    start = perf_counter()
    k = 0
    if tracer is None:
        before = speed.sample()
        while k < pool or perf_counter() - start < seconds:
            op = attempt(workload, k, None)
            after = speed.sample()
            op.scale = speed.scale(before, after)
            untraced.append(op)
            before = after
            k += 1
        return untraced, traced
    pass_s = 0.0
    while k == 0 or perf_counter() - start + pass_s <= seconds:
        pass_start = perf_counter()
        for _ in range(pool):
            untraced.append(attempt(workload, k, None))
            traced.append(attempt(workload, k, tracer))
            k += 1
        pass_s = perf_counter() - pass_start
    return untraced, traced


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  setup_repeats: int = SETUP_REPEATS) -> dict:
    env = environment()
    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        speed = None if trace else Speedometer()
        setup = [] if trace else time_setup(name, seed, workdir, setup_repeats, speed)
        import workloads

        workload = workloads.load(workloads.find_spec(name), seed, workdir)
        tracer = Tracer() if trace else None
        untraced, traced = measure(workload, seconds, tracer, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = untraced + traced
    wrong = workload.check_run()  # a property of all operations together
    for problem in wrong:
        print(f"bench: FAILED {name}: {problem}", file=sys.stderr)
        for op in ops:
            op.wrong.append(problem)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failures or op.wrong),
        "wrong": sum(1 for op in ops if op.wrong),
        "walls": [op.wall for op in untraced],
    }
    if trace:
        n = len(traced)
        result["metrics"] = {m: {"value": v, "unit": u, "samples": n}
                             for m, (v, u) in layer_metrics(tracer, n).items()}
        result["layers"] = tracer.totals()
        result["traced_s"] = sum(op.wall for op in traced)
        result["overhead_s"] = statistics.fmean(t.wall - u.wall for t, u in zip(traced, untraced))
        return result
    result["scales"] = [op.scale for op in untraced]
    result["raw"] = {
        "exam_s": statistics.median(op.wall / op.exams for op in untraced),
        "reps_per_s": statistics.median(op.evaluations / op.wall for op in untraced),
        "setup_s": statistics.median(wall for wall, _ in setup),
    }
    result["metrics"] = {
        "exam_s": {"value": statistics.median(op.reference_wall / op.exams for op in untraced),
                   "unit": "s", "samples": len(untraced)},
        "reps_per_s": {"value": statistics.median(op.evaluations / op.reference_wall
                                                  for op in untraced),
                       "unit": "1/s", "samples": len(untraced)},
        "setup_s": {"value": statistics.median(wall * scale for wall, scale in setup),
                    "unit": "s", "samples": len(setup)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB", "samples": 1},
    }
    return result


def report(result: dict) -> None:
    env = result["env"]
    print(f"# fairgrade bench: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("# env " + json.dumps(env, sort_keys=True))
    if env["contended"]:
        print(f"# WARNING: 1-minute load average {env['loadavg'][0]} exceeds "
              f"{env['cpu_count']} cores at start; timings are contended")
    for metric, rec in result["metrics"].items():
        print(f"{metric:34s} {rec['value']:16.8g} {rec['unit']:6s} n={rec['samples']}")
    print("# untraced operation walls (s): " + " ".join(f"{w:.4f}" for w in result["walls"]))
    if not result["trace"]:
        print("# scales to reference speed: " + " ".join(f"{x:.3f}" for x in result["scales"]))
        print("# unscaled medians: " + " ".join(f"{m} {v:.8g}" for m, v in result["raw"].items()))
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':34s} {fail_ratio:16.8g} {'1':6s} n={result['attempted']} "
          f"({result['wrong']} with wrong outputs)")
    if result["trace"]:
        traced = result["traced_s"]
        print(f"# tracing overhead: {result['overhead_s']:+.6f} s per operation "
              "(traced minus untraced wall, same input)")
        accounted = sum(entry["self_s"] for entry in result["layers"].values())
        print(f"# self times of all spans: {accounted:.6f} s of {traced:.6f} s traced wall "
              f"({ROOT!r} self = benchmark's own time)")
        for span, entry in sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {span:28s} self {entry['self_s']:12.6f} s  total {entry['s']:12.6f} s  "
                  f"calls {entry['calls']}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": rec["value"], "unit": rec["unit"]}
                    for m, rec in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed, args.workdir)
        return 0
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(WORKLOAD_NAMES)}")
    if not (BENCH.parent / "src" / "fairgrade" / "__init__.py").is_file():
        print("bench: fairgrade sources not found under src/", file=sys.stderr)
        return 2
    report(run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
