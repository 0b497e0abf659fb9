"""Command-line entry point.

One subcommand per experiment, each parser naming its handler; every
randomized command requires --seed. Each command returns its report.csv rows
(None for grade, fit and verify) and its summary; `run` writes report.csv,
summary.json and a manifest.json of its config and `environment()` to --outdir
(or $FAIRGRADE_OUTDIR). grade also writes grades.csv, plus predictions.csv and
cases.csv under --rule ours; fit writes merits.csv. grade, fit and cv read
--input through `io.ingest`, which picks the edge-list or dense reader from
line 1. Outputs are bit-identical for the same inputs, seed, numpy, BLAS and
thread count; across thread counts, cases.csv is byte-identical and grades,
predictions and merits agree to 1e-12. Every experiment that compares rules
scores both `simulation.RULES`, ours then avg.

A --config file holds the same options as `key=value` lines, each key a
flag name as written, without the dashes, and given once. A flag or key
must be written in full: argparse's prefix matching is off. Its lines are
parsed as flags placed ahead of the command line, by the same parser, so
they are checked exactly like flags and explicit flags win. The parser
checks each flag value; the library raises ParameterOutOfRangeError for
values that do not fit together. Exit codes: 2 configuration error, 3
data-format error, 4 numeric failure, including an experiment whose every
draw or repetition failed; `run` catches only those named faults and OSError
(exit 3), so any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .graph import ParameterOutOfRangeError, Roster, generate_assignment
from .grading import (GradeVector, ZeroDegreeStudentError, make_map_rule, predict_matrix,
                      simple_average)
from .model import (MeritVector, NonConvergenceError, NotStronglyConnectedError, PriorSpec,
                    map_fit, mle_fit)
from . import io as fio
from . import simulation as sim
from .rng import scalar_seed, substream

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DATA_ERRORS = (fio.MalformedRowError, fio.DimensionMismatchError, ZeroDegreeStudentError)
NUMERIC_ERRORS = (NonConvergenceError, NotStronglyConnectedError, sim.InstanceTooLargeError,
                  sim.AllReplicationsFailedError, np.linalg.LinAlgError)


class ConfigError(ValueError):
    pass


def parse_int_list(text: str) -> list[int]:
    """Accept '3', '1,2,5', or '1..22' (inclusive range)."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def load_config_file(path: str) -> dict[str, str]:
    """key=value lines, each key once; '#' starts a comment. Keys are flag
    names without the dashes, returned as written."""
    try:
        text = fio.read_text(path)
    except (OSError, fio.MalformedRowError) as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = map(str.strip, line.partition("="))
        if not key or not eq:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = value
    return values


def _checked(cast, ok, expected: str):
    """argparse type: `cast` the text, then reject values that fail or overflow `ok`."""

    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except (ValueError, ArithmeticError):
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
FINITE = _checked(float, math.isfinite, "a finite number")
POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
# PriorSpec rejects a std whose precision std**-2 overflows; this check names the flag
STD = _checked(float, lambda v: 0 < v < math.inf and v**-2 >= 0,
               "a number of at least about 1e-154")
COUNTS = _checked(parse_int_list, lambda v: v and min(v) >= 1 and len(set(v)) == len(v),
                  "distinct integers >= 1, such as 3, 1,2,5 or 1..22")
FLOATS = _checked(_floats, lambda v: all(map(math.isfinite, v)), "comma-separated finite numbers")
RANGE = _checked(_floats, lambda v: len(v) == 2 and 0 <= v[1] - v[0] < math.inf,
                 "low,high: two finite numbers with low <= high")
EXISTING = _checked(str, os.path.exists, "an existing file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgrade",
        description="Grading and experiments for randomized exams under a "
        "pairwise-comparison answer model.", allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, handler, seeded=True):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--outdir", help="output directory (default $FAIRGRADE_OUTDIR or .)")
        if seeded:
            p.add_argument("--seed", type=SEED, required=True, help="master seed")
        return p

    p = add("grade", "grade one exam result file", cmd_grade, seeded=False)
    p.add_argument("--rule", choices=["ours", "avg", "map"], default="ours")
    _fit_flags(p)

    p = add("fit", "fit merits to one exam result file", cmd_fit, seeded=False)
    p.add_argument("--method", choices=["mle", "map"], default="mle")
    _fit_flags(p)

    p = add("simulate-bias", "expected-grade deviation on one random assignment",
            cmd_simulate_bias)
    _population_flags(p)
    p.add_argument("--m", type=COUNT, required=True)
    p.add_argument("--d", type=COUNT, required=True)
    p.add_argument("--reps", type=COUNT, default=200)

    p = add("decompose", "bias + variance = error per rule, for the given "
            "merits and for all-equal merits", cmd_decompose)
    _population_flags(p)
    p.add_argument("--m", type=COUNT, required=True)
    p.add_argument("--d", type=COUNT, required=True)
    p.add_argument("--graphs", type=COUNT, default=50)
    p.add_argument("--reps", type=COUNT, default=200)

    p = add("sweep-degree", "bias vs. per-student degree constraint", cmd_sweep_degree)
    _population_flags(p)
    p.add_argument("--m", type=COUNT, required=True)
    p.add_argument("--d", dest="d_values", type=COUNTS, required=True, help="e.g. 1..22 or 2,5,10")
    p.add_argument("--graphs", type=COUNT, default=20)
    p.add_argument("--reps", type=COUNT, default=100)

    p = add("sweep-bank", "bias vs. question sample size, fresh difficulties", cmd_sweep_bank)
    p.add_argument("--students", type=COUNT, required=True)
    p.add_argument("--abilities", type=FLOATS, help="comma-separated student merits (optional)")
    p.add_argument("--difficulty-range", type=RANGE, default=sim.DEFAULT_DIFFICULTY_RANGE,
                   help="low,high for the uniform difficulty sampler")
    p.add_argument("--m", dest="m_values", type=COUNTS, required=True, help="e.g. 5..40 or 5,10,20")
    p.add_argument("--d", type=COUNT, required=True)
    p.add_argument("--graphs", type=COUNT, default=20)
    p.add_argument("--reps", type=COUNT, default=100)

    p = add("cv", "hold-out evaluation on a complete answer matrix", cmd_cv)
    p.add_argument("--input", type=EXISTING, required=True, help="complete 0/1 exam, no NA cells")
    p.add_argument("--d1", type=COUNTS, required=True,
                   help="student sample size(s), e.g. 35 or 5..35")
    p.add_argument("--d2", dest="d2_values", type=COUNTS, required=True,
                   help="degree constraint(s), e.g. 2..22")
    p.add_argument("--reps", type=COUNT, default=200)

    p = add("cv-sim", "the cv protocol on synthetic prior-drawn exams", cmd_cv_sim)
    p.add_argument("--students", type=COUNT, required=True)
    p.add_argument("--questions", type=COUNT, default=22)
    p.add_argument("--d2", dest="d2_values", type=COUNTS, required=True)
    p.add_argument("--reps", type=COUNT, default=200)
    _prior_flags(p)

    p = add("verify", "exact ex-ante fairness check by enumeration", cmd_verify, seeded=False)
    p.add_argument("--students", type=COUNT, required=True)
    p.add_argument("--questions", type=COUNT, required=True)
    p.add_argument("--m", type=COUNT, required=True)
    p.add_argument("--d", type=COUNT, required=True)
    p.add_argument("--merits", type=EXISTING, help="merit CSV (default: all zero)")
    return parser


def _fit_flags(p):
    p.add_argument("--input", type=EXISTING, required=True, help="exam result file")
    p.add_argument("--tol", type=POSITIVE, default=1e-8)
    p.add_argument("--max-iter", type=COUNT, default=10000)
    _prior_flags(p)


def _prior_flags(p):
    p.add_argument("--student-mean", type=FINITE, default=0.0)
    p.add_argument("--student-std", type=STD, default=1.0)
    p.add_argument("--question-mean", type=FINITE, default=0.0)
    p.add_argument("--question-std", type=STD, default=1.0)


def _population_flags(p):
    p.add_argument("--students", type=COUNT, required=True)
    p.add_argument("--questions", type=COUNT, required=True)
    p.add_argument("--merits", type=EXISTING, help="merit CSV; default draws uniformly from the "
                   "published ability/difficulty ranges")


def _resolve_outdir(args) -> Path:
    path = Path(args.outdir or os.environ.get("FAIRGRADE_OUTDIR") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _prior_from(args) -> PriorSpec:
    return PriorSpec(args.student_mean, args.student_std, args.question_mean, args.question_std)


def _row(parameter, value, rule, statistic, estimate, se=None) -> tuple:
    """One report.csv row in column order; floats are written with repr, so they round-trip."""
    return (parameter, value, rule, statistic, repr(float(estimate)),
            "" if se is None else repr(float(se)))


def _published_draw(args):
    """Published-range merits from substream(--seed, 0): abilities, then difficulties if asked."""
    rng = substream(args.seed, 0)
    yield rng.uniform(*sim.DEFAULT_ABILITY_RANGE, args.students)
    yield rng.uniform(*sim.DEFAULT_DIFFICULTY_RANGE, args.questions)


def _population(args):
    """Roster plus true merits for the synthetic experiments."""
    roster = Roster.index_based(args.students, args.questions)
    if args.merits:
        return roster, fio.read_merits(args.merits, roster)
    return roster, MeritVector.for_roster(roster, *_published_draw(args))


def cmd_grade(args, outdir: Path) -> tuple[list | None, dict]:
    g = fio.ingest(args.input)
    if args.rule == "ours":
        pm = predict_matrix(g, tol=args.tol, max_iter=args.max_iter)
        fio.write_predictions(pm, outdir / "predictions.csv", outdir / "cases.csv")
        grades = GradeVector(g.roster, pm.grades, "ours")
    elif args.rule == "avg":
        grades = simple_average(g)
    else:
        grades = make_map_rule(_prior_from(args), tol=args.tol, max_iter=args.max_iter)(g)
    fio.write_grades(grades, outdir / "grades.csv")
    return None, {"rule": grades.rule_name, "grades": grades.as_dict()}


def cmd_fit(args, outdir: Path) -> tuple[list | None, dict]:
    g = fio.ingest(args.input)
    if args.method == "mle":
        try:  # mle_fit's own check is the one reachability pass
            fit = mle_fit(g, range(g.roster.n_vertices), tol=args.tol, max_iter=args.max_iter)
        except NotStronglyConnectedError:
            msg = "result graph is not strongly connected; use --method map"
            raise NotStronglyConnectedError(msg) from None
    else:
        fit = map_fit(g, _prior_from(args), tol=args.tol, max_iter=args.max_iter)
    fio.write_merits(fit.merits, g.roster, outdir / "merits.csv")
    return None, {"method": args.method, "iterations": fit.iterations,
                  "residual": fit.residual, "converged": fit.converged}


def cmd_simulate_bias(args, outdir: Path) -> tuple[list | None, dict]:
    roster, u = _population(args)
    g = generate_assignment(roster, args.m, args.d, substream(args.seed, 1))
    rows, summary = [], {}
    for name, rule in sim.RULES.items():
        report = sim.estimate_ex_post_bias(rule, g, u, args.reps, scalar_seed(args.seed, 2))
        for sid, dev, se in zip(
            roster.students, report.per_student_deviation, report.per_student_se
        ):
            rows.append(_row("student", sid, name, "deviation", dev, se))
        summary[name] = {"max_bias": report.max_bias, "avg_bias": report.avg_bias,
                         "replications": report.replications,
                         "failed_replications": report.failed_replications}
    return rows, summary


def cmd_decompose(args, outdir: Path) -> tuple[list | None, dict]:
    roster, u = _population(args)
    populations = {
        "spread-merits": u,
        "all-same-merits": MeritVector(np.zeros(roster.n_vertices)),
    }
    graphs = [
        generate_assignment(roster, args.m, args.d, substream(args.seed, 1, k))
        for k in range(args.graphs)
    ]
    rows, summary = [], {}
    for label, merits in populations.items():
        summary[label] = {}
        for name, rule in sim.RULES.items():
            dec = sim.decompose_error(rule, graphs, merits, args.reps, scalar_seed(args.seed, 2))
            for stat in ("bias", "variance", "error"):
                rows.append(_row("merits", label, name, stat, getattr(dec, stat)))
            summary[label][name] = dataclasses.asdict(dec)
    return rows, summary


def _sweep_to_outputs(result) -> tuple[list, dict]:
    rows, summary = [], []
    for point in result.points:
        entry = {"value": point.value, "graphs": point.graphs,
                 "replications": point.replications, "rules": {}}
        for name, stats in sorted(point.per_rule.items()):
            rows.append(_row(result.axis, point.value, name, "max_bias",
                             stats.max_bias, stats.max_bias_se))
            rows.append(_row(result.axis, point.value, name, "avg_bias",
                             stats.avg_bias, stats.avg_bias_se))
            entry["rules"][name] = dataclasses.asdict(stats)
        summary.append(entry)
    return rows, {"axis": result.axis, "points": summary}


def cmd_sweep_degree(args, outdir: Path) -> tuple[list | None, dict]:
    roster, u = _population(args)
    result = sim.sweep_degree(
        roster, u, args.m, args.d_values, args.graphs, args.reps,
        scalar_seed(args.seed, 1),
    )
    return _sweep_to_outputs(result)


def cmd_sweep_bank(args, outdir: Path) -> tuple[list | None, dict]:
    if args.abilities and len(args.abilities) != args.students:
        raise ConfigError("--abilities length must equal --students")
    result = sim.sweep_question_sample_size(
        args.abilities or next(_published_draw(args)).tolist(),
        sim.uniform_difficulty_sampler(*args.difficulty_range), args.m_values,
        args.d, args.graphs, args.reps, scalar_seed(args.seed, 1),
    )
    return _sweep_to_outputs(result)


def cmd_cv(args, outdir: Path) -> tuple[list | None, dict]:
    g = fio.ingest(args.input)
    n, q = g.roster.n_students, g.roster.n_questions
    if g.assignment.n_edges != n * q:
        raise fio.DimensionMismatchError("cross-validation needs a complete 0/1 matrix")
    answers = g.w.reshape(n, q)  # edges are sorted, so a complete graph's bits are row-major
    rows, results = [], []
    for di, d1 in enumerate(args.d1):
        for d2 in args.d2_values:
            res = sim.cross_validate(answers, d1, d2, args.reps,
                                     seed=scalar_seed(args.seed, di, d2))
            for name, mse in sorted(res.mse_per_rule.items()):
                rows.append(_row(f"d1={d1}:d2", d2, name, "mse", mse))
            results.append(res)
    table = sim.cv_threshold_table(results)
    return rows, {"points": [{"d1": r.d1, "d2": r.d2, "mse": r.mse_per_rule,
                              "failed_repetitions": r.failed_repetitions} for r in results],
                  "threshold_table": {str(k): v for k, v in table.items()}}


def cmd_cv_sim(args, outdir: Path) -> tuple[list | None, dict]:
    results = sim.simulated_cross_validate(
        _prior_from(args), args.students, args.d2_values,
        args.reps, args.seed, n_questions=args.questions,
    )
    rows = [
        _row("d2", res.d2, name, "mse", mse)
        for res in results
        for name, mse in sorted(res.mse_per_rule.items())
    ]
    return rows, {"points": [{"d2": r.d2, "mse": r.mse_per_rule,
                              "failed_repetitions": r.failed_repetitions} for r in results]}


def cmd_verify(args, outdir: Path) -> tuple[list | None, dict]:
    roster = Roster.index_based(args.students, args.questions)
    zero = MeritVector(np.zeros(roster.n_vertices))
    u = fio.read_merits(args.merits, roster) if args.merits else zero
    fair = sim.verify_ex_ante_fairness(roster, args.m, args.d, u)
    return None, {"rule": "avg", "ex_ante_fair": fair, "m": args.m, "d": args.d}


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with a --config file's lines inserted as flags just after
    the subcommand, so that flags given on the command line win."""
    # argparse reads a list such as "-3.09,2.099" as a flag: join a token that
    # starts like a negative number to the flag before it
    for i in reversed(range(1, len(argv))):
        if re.fullmatch(r"--\w[\w-]*", argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    # the full parser cannot find --config first: required flags that only
    # the file supplies would fail the parse before the file is read
    pre = argparse.ArgumentParser(prog="fairgrade", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv[1:])[0].config
    if config:
        argv = argv[:1] + [f"--{k}={v}" for k, v in load_config_file(config).items()] + argv[1:]
    return build_parser().parse_args(argv)


def environment() -> dict:
    """This run's Python, numpy and BLAS versions, `*_NUM_THREADS` variables and core count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _parse(argv)
        except SystemExit as exc:  # argparse: --help, --version or a rejected option
            return EXIT_CONFIG if exc.code not in (0, None) else 0
        outdir = _resolve_outdir(args)
        config = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
        manifest = {"command": args.command, "config": config, "env": environment(),
                    "seed": getattr(args, "seed", None), "version": __version__}
        rows, summary = args.handler(args, outdir)
        if rows is not None:
            fio.write_tidy_report(rows, outdir / "report.csv")
        fio.write_json_summary(summary, outdir / "summary.json")
        fio.write_json_summary(manifest, outdir / "manifest.json")
        return 0
    except (*DATA_ERRORS, OSError) as exc:
        print(f"fairgrade: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NUMERIC_ERRORS as exc:
        print(f"fairgrade: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ParameterOutOfRangeError) as exc:
        print(f"fairgrade: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
