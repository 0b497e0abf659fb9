"""Command-line entry point.

One subcommand per experiment. Every randomized command requires an explicit
--seed; outputs land in --outdir (or $FAIRGRADE_OUTDIR) together with a
manifest.json echoing the full configuration, so any run can be reproduced
bit-exactly. Exit codes: 2 configuration error, 3 data-format error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .graph import (
    ExamResultGraph,
    ParameterOutOfRangeError,
    Roster,
    generate_assignment,
    is_strongly_connected,
)
from .grading import (
    GradeVector,
    ZeroDegreeStudentError,
    make_map_rule,
    predict_matrix,
    simple_average,
)
from .model import (
    MeritVector,
    NonConvergenceError,
    NotStronglyConnectedError,
    PriorSpec,
    map_fit,
    mle_fit,
)
from . import io as fio
from . import simulation as sim
from .rng import substream

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DATA_ERRORS = (
    fio.MalformedRowError,
    fio.DuplicateEdgeError,
    fio.DimensionMismatchError,
    ZeroDegreeStudentError,
)
NUMERIC_ERRORS = (
    NonConvergenceError,
    NotStronglyConnectedError,
    sim.InstanceTooLargeError,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    """Validated invocation: the subcommand plus every knob it read."""

    command: str
    options: dict

    def manifest(self) -> dict:
        return {
            "command": self.command,
            "config": {k: _jsonable(v) for k, v in sorted(self.options.items())},
            "seed": self.options.get("seed"),
            "version": __version__,
        }


def _jsonable(v):
    if isinstance(v, Path):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def parse_int_list(text: str) -> list[int]:
    """Accept '3', '1,2,5', or '1..22' (inclusive range)."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def load_config_file(path: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; keys use flag names."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgrade",
        description="Grading and experiments for randomized exams under a "
        "pairwise-comparison answer model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    created = []

    class _Sub:
        # subparsers parse into a fresh namespace, so config-file defaults
        # must be installed on each subparser (after its flags exist)
        def add_parser(self, *a, **kw):
            p = subparsers.add_parser(*a, **kw)
            created.append(p)
            return p

    sub = _Sub()

    def common(p, seeded=True):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--outdir", help="output directory (default $FAIRGRADE_OUTDIR or .)")
        if seeded:
            p.add_argument("--seed", type=int, help="master seed (required)")

    p = sub.add_parser("grade", help="grade one exam result file")
    common(p, seeded=False)
    p.add_argument("--input", help="exam result file")
    p.add_argument("--format", choices=[fio.EDGE_LIST, fio.DENSE_CSV, "auto"], default="auto")
    p.add_argument("--rule", choices=["ours", "avg", "map"], default="ours")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10000)
    _prior_flags(p)

    p = sub.add_parser("fit", help="fit merits to one exam result file")
    common(p, seeded=False)
    p.add_argument("--input")
    p.add_argument("--format", choices=[fio.EDGE_LIST, fio.DENSE_CSV, "auto"], default="auto")
    p.add_argument("--method", choices=["mle", "map"], default="mle")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10000)
    _prior_flags(p)

    p = sub.add_parser("simulate-bias", help="expected-grade deviation on one random assignment")
    common(p)
    _population_flags(p)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--rules", default="ours,avg")

    p = sub.add_parser("decompose", help="bias + variance = error per rule, for the given "
                       "merits and for all-equal merits")
    common(p)
    _population_flags(p)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--reps", type=int, default=200)

    p = sub.add_parser("sweep-degree", help="bias vs. per-student degree constraint")
    common(p)
    _population_flags(p)
    p.add_argument("--m", type=int)
    p.add_argument("--d", dest="d_values", help="e.g. 1..22 or 2,5,10")
    p.add_argument("--graphs", type=int, default=20)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--rules", default="ours,avg")

    p = sub.add_parser("sweep-bank", help="bias vs. question sample size, fresh difficulties")
    common(p)
    p.add_argument("--students", type=int)
    p.add_argument("--abilities", help="comma-separated student merits (optional)")
    p.add_argument("--difficulty-range", default=None,
                   help="low,high for the uniform difficulty sampler")
    p.add_argument("--m", dest="m_values", help="e.g. 5..40 or 5,10,20")
    p.add_argument("--d", type=int)
    p.add_argument("--graphs", type=int, default=20)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--rules", default="ours,avg")

    p = sub.add_parser("cv", help="hold-out evaluation on a complete answer matrix")
    common(p)
    p.add_argument("--input", help="dense 0/1 matrix, no NA cells")
    p.add_argument("--d1", help="student sample size(s), e.g. 35 or 5..35")
    p.add_argument("--d2", dest="d2_values", help="degree constraint(s), e.g. 2..22")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--rules", default="ours,avg")
    p.add_argument("--threshold-table", action="store_true",
                   help="also report the smallest winning d2 per d1")

    p = sub.add_parser("cv-sim", help="the cv protocol on synthetic prior-drawn exams")
    common(p)
    p.add_argument("--students", type=int)
    p.add_argument("--questions", type=int, default=22)
    p.add_argument("--d2", dest="d2_values")
    p.add_argument("--reps", type=int, default=200)
    _prior_flags(p)

    p = sub.add_parser("verify", help="exact ex-ante fairness check by enumeration")
    common(p, seeded=False)
    p.add_argument("--students", type=int)
    p.add_argument("--questions", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--merits", help="merit CSV (default: all zero)")

    if defaults:
        for p in created:
            p.set_defaults(**defaults)
    return parser


def _prior_flags(p):
    p.add_argument("--student-mean", type=float, default=0.0)
    p.add_argument("--student-std", type=float, default=1.0)
    p.add_argument("--question-mean", type=float, default=0.0)
    p.add_argument("--question-std", type=float, default=1.0)


def _population_flags(p):
    p.add_argument("--students", type=int)
    p.add_argument("--questions", type=int)
    p.add_argument("--merits", help="merit CSV; default draws uniformly from the "
                   "published ability/difficulty ranges")


ABILITY_RANGE = (-1.486, 1.149)


def _resolve_outdir(args) -> Path:
    outdir = args.outdir or os.environ.get("FAIRGRADE_OUTDIR") or "."
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required")


def _prior_from(args) -> PriorSpec:
    return PriorSpec(args.student_mean, args.student_std, args.question_mean, args.question_std)


def _rules_from(text: str):
    rules = {}
    for name in (tok.strip() for tok in text.split(",")):
        if name not in sim.RULES:
            raise ConfigError(f"unknown rule {name!r}; choose from {sorted(sim.RULES)}")
        rules[name] = sim.RULES[name]
    return rules


def _ingest(args) -> ExamResultGraph:
    _require(args, "input")
    if not os.path.exists(args.input):
        raise ConfigError(f"input file {args.input!r} does not exist")
    fmt = args.format if getattr(args, "format", "auto") != "auto" else fio.detect_format(args.input)
    return fio.ingest(args.input, fmt)


def _population(args, seed_key: int):
    """Roster plus true merits for the synthetic experiments."""
    _require(args, "students", "questions")
    roster = Roster.index_based(args.students, args.questions)
    if args.merits:
        u = fio.read_merits(args.merits, roster)
        u.array_for(roster)  # must cover everything
        return roster, u
    rng = substream(args.seed, seed_key)
    abilities = rng.uniform(*ABILITY_RANGE, args.students)
    difficulties = rng.uniform(*sim.DEFAULT_DIFFICULTY_RANGE, args.questions)
    return roster, MeritVector.for_roster(roster, abilities, difficulties)


def _write_manifest(outdir: Path, config: RunConfig) -> None:
    fio.write_json_summary(config.manifest(), outdir / "manifest.json")


def cmd_grade(args, outdir: Path) -> None:
    g = _ingest(args)
    if args.rule == "ours":
        pm = predict_matrix(g, tol=args.tol, max_iter=args.max_iter)
        fio.write_predictions(pm, outdir / "predictions.csv", outdir / "cases.csv")
        grades = GradeVector(g.roster, pm.grades, "ours")
    elif args.rule == "avg":
        grades = simple_average(g)
    else:
        grades = make_map_rule(_prior_from(args), tol=args.tol, max_iter=args.max_iter)(g)
    fio.write_grades(grades, outdir / "grades.csv")
    fio.write_json_summary(
        {"rule": grades.rule_name, "grades": grades.as_dict()}, outdir / "summary.json"
    )


def cmd_fit(args, outdir: Path) -> None:
    g = _ingest(args)
    if args.method == "mle":
        if not is_strongly_connected(g):
            raise NotStronglyConnectedError(
                "result graph is not strongly connected; use --method map"
            )
        fit = mle_fit(g, range(g.roster.n_vertices), tol=args.tol, max_iter=args.max_iter)
    else:
        fit = map_fit(g, _prior_from(args), tol=args.tol, max_iter=min(args.max_iter, 200))
    fio.write_merits(fit.merits, g.roster, outdir / "merits.csv")
    fio.write_json_summary(
        {
            "method": args.method,
            "iterations": fit.iterations,
            "residual": fit.residual,
            "converged": fit.converged,
        },
        outdir / "summary.json",
    )


def cmd_simulate_bias(args, outdir: Path) -> None:
    _require(args, "seed", "m", "d")
    roster, u = _population(args, 0)
    g = generate_assignment(roster, args.m, args.d, substream(args.seed, 1))
    rows, summary = [], {}
    for name, rule in _rules_from(args.rules).items():
        report = sim.estimate_ex_post_bias(
            rule, g, u, args.reps, sim._scalar_seed(args.seed, 2)
        )
        for sid, dev, se in zip(
            roster.students, report.per_student_deviation, report.per_student_se
        ):
            rows.append({"parameter": "student", "value": sid, "rule": name,
                         "statistic": "deviation", "estimate": repr(float(dev)),
                         "se": repr(float(se))})
        summary[name] = {
            "max_bias": report.max_bias,
            "avg_bias": report.avg_bias,
            "replications": report.replications,
            "failed_replications": report.failed_replications,
        }
    fio.write_tidy_report(rows, outdir / "report.csv")
    fio.write_json_summary(summary, outdir / "summary.json")


def cmd_decompose(args, outdir: Path) -> None:
    _require(args, "seed", "m", "d")
    roster, u = _population(args, 0)
    populations = {
        "spread-merits": u,
        "all-same-merits": MeritVector.for_roster(
            roster, [0.0] * roster.n_students, [0.0] * roster.n_questions
        ),
    }
    graphs = [
        generate_assignment(roster, args.m, args.d, substream(args.seed, 1, k))
        for k in range(args.graphs)
    ]
    rows, summary = [], {}
    for label, merits in populations.items():
        summary[label] = {}
        for name, rule in sim.RULES.items():
            dec = sim.decompose_error(
                rule, graphs, merits, args.reps, sim._scalar_seed(args.seed, 2)
            )
            for stat in ("bias", "variance", "error"):
                rows.append({"parameter": "merits", "value": label, "rule": name,
                             "statistic": stat, "estimate": repr(getattr(dec, stat)),
                             "se": ""})
            summary[label][name] = dataclasses.asdict(dec)
    fio.write_tidy_report(rows, outdir / "report.csv")
    fio.write_json_summary(summary, outdir / "summary.json")


def _sweep_to_outputs(result, outdir: Path) -> None:
    rows, summary = [], []
    for point in result.points:
        entry = {"value": point.value, "graphs": point.graphs,
                 "replications": point.replications, "rules": {}}
        for name, stats in sorted(point.per_rule.items()):
            for stat, est, se in (
                ("max_bias", stats.max_bias, stats.max_bias_se),
                ("avg_bias", stats.avg_bias, stats.avg_bias_se),
            ):
                rows.append({"parameter": result.axis, "value": point.value, "rule": name,
                             "statistic": stat, "estimate": repr(est), "se": repr(se)})
            entry["rules"][name] = dataclasses.asdict(stats)
        summary.append(entry)
    fio.write_tidy_report(rows, outdir / "report.csv")
    fio.write_json_summary({"axis": result.axis, "points": summary}, outdir / "summary.json")


def cmd_sweep_degree(args, outdir: Path) -> None:
    _require(args, "seed", "m", "d_values")
    roster, u = _population(args, 0)
    result = sim.sweep_degree(
        roster, u, args.m, parse_int_list(args.d_values), args.graphs, args.reps,
        sim._scalar_seed(args.seed, 1), rules=_rules_from(args.rules),
    )
    _sweep_to_outputs(result, outdir)


def cmd_sweep_bank(args, outdir: Path) -> None:
    _require(args, "seed", "students", "m_values", "d")
    if args.abilities:
        student_merits = [float(tok) for tok in args.abilities.split(",")]
        if len(student_merits) != args.students:
            raise ConfigError("--abilities length must equal --students")
    else:
        student_merits = substream(args.seed, 0).uniform(*ABILITY_RANGE, args.students).tolist()
    if args.difficulty_range:
        lo, hi = (float(tok) for tok in args.difficulty_range.split(","))
        sampler = sim.uniform_difficulty_sampler(lo, hi)
    else:
        sampler = sim.uniform_difficulty_sampler()
    result = sim.sweep_question_sample_size(
        student_merits, sampler, parse_int_list(args.m_values), args.d,
        args.graphs, args.reps, sim._scalar_seed(args.seed, 1),
        rules=_rules_from(args.rules),
    )
    _sweep_to_outputs(result, outdir)


def _dense_complete_matrix(path) -> np.ndarray:
    g = fio.ingest(path, fio.DENSE_CSV)
    n, q = g.roster.n_students, g.roster.n_questions
    if g.assignment.n_edges != n * q:
        raise fio.DimensionMismatchError("cross-validation needs a complete 0/1 matrix")
    full = np.zeros((n, q), dtype=np.uint8)
    s_idx, q_idx = g.assignment.edge_arrays
    full[s_idx, q_idx] = g.w
    return full


def cmd_cv(args, outdir: Path) -> None:
    _require(args, "seed", "input", "d1", "d2_values")
    answers = _dense_complete_matrix(args.input)
    rules = _rules_from(args.rules)
    d1_values = parse_int_list(args.d1)
    d2_values = parse_int_list(args.d2_values)
    rows, summary = [], []
    for di, d1 in enumerate(d1_values):
        for d2 in d2_values:
            res = sim.cross_validate(
                answers, d1, d2, args.reps, rules,
                seed=sim._scalar_seed(args.seed, di, d2),
            )
            for name, mse in sorted(res.mse_per_rule.items()):
                rows.append({"parameter": f"d1={d1}:d2", "value": d2, "rule": name,
                             "statistic": "mse", "estimate": repr(mse), "se": ""})
            summary.append({"d1": d1, "d2": d2, "mse": res.mse_per_rule})
    out = {"points": summary}
    if args.threshold_table:
        table = sim.cv_threshold_table(
            answers, d1_values, d2_values, args.reps, rules,
            seed=sim._scalar_seed(args.seed, 10**6),
        )
        out["threshold_table"] = {str(k): v for k, v in table.items()}
    fio.write_tidy_report(rows, outdir / "report.csv")
    fio.write_json_summary(out, outdir / "summary.json")


def cmd_cv_sim(args, outdir: Path) -> None:
    _require(args, "seed", "students", "d2_values")
    results = sim.simulated_cross_validate(
        _prior_from(args), args.students, parse_int_list(args.d2_values),
        args.reps, args.seed, n_questions=args.questions,
    )
    rows = [
        {"parameter": "d2", "value": res.d2, "rule": name, "statistic": "mse",
         "estimate": repr(mse), "se": ""}
        for res in results
        for name, mse in sorted(res.mse_per_rule.items())
    ]
    fio.write_tidy_report(rows, outdir / "report.csv")
    fio.write_json_summary(
        {"points": [{"d2": r.d2, "mse": r.mse_per_rule} for r in results]},
        outdir / "summary.json",
    )


def cmd_verify(args, outdir: Path) -> None:
    _require(args, "students", "questions", "m", "d")
    roster = Roster.index_based(args.students, args.questions)
    if args.merits:
        u = fio.read_merits(args.merits, roster)
    else:
        u = MeritVector.for_roster(roster, [0.0] * args.students, [0.0] * args.questions)
    fair = sim.verify_ex_ante_fairness(roster, args.m, args.d, u)
    fio.write_json_summary(
        {"rule": "avg", "ex_ante_fair": fair, "m": args.m, "d": args.d},
        outdir / "summary.json",
    )


COMMANDS = {
    "grade": cmd_grade,
    "fit": cmd_fit,
    "simulate-bias": cmd_simulate_bias,
    "decompose": cmd_decompose,
    "sweep-degree": cmd_sweep_degree,
    "sweep-bank": cmd_sweep_bank,
    "cv": cmd_cv,
    "cv-sim": cmd_cv_sim,
    "verify": cmd_verify,
}


def _config_defaults(args) -> dict | None:
    """Coerced config-file values, used as parser defaults on a second pass
    so that explicit flags always win."""
    if not getattr(args, "config", None):
        return None
    if not os.path.exists(args.config):
        raise ConfigError(f"config file {args.config!r} does not exist")
    defaults = {}
    for key, raw in load_config_file(args.config).items():
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        defaults[key] = _coerce(key, raw)
    return defaults


_INT_KEYS = {"seed", "m", "d", "d1", "reps", "graphs", "students", "questions",
             "max_iter"}
_FLOAT_KEYS = {"tol", "student_mean", "student_std", "question_mean", "question_std"}
_BOOL_KEYS = {"threshold_table"}


def _coerce(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _BOOL_KEYS:
        return raw.lower() in ("1", "true", "yes")
    return raw


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        defaults = _config_defaults(args)
        if defaults:
            # re-parse with the file's values as defaults: flags still win
            args = build_parser(defaults).parse_args(argv)
        if hasattr(args, "seed") and args.seed is None:
            raise ConfigError("--seed is required (no wall-clock default)")
        for name in ("reps", "graphs", "max_iter"):
            if getattr(args, name, 1) is not None and getattr(args, name, 1) < 1:
                raise ConfigError(f"--{name.replace('_', '-')} must be >= 1")
        if getattr(args, "tol", 1.0) <= 0:
            raise ConfigError("--tol must be positive")
        outdir = _resolve_outdir(args)
        config = RunConfig(
            args.command,
            {k: v for k, v in vars(args).items() if k not in ("command",)},
        )
        COMMANDS[args.command](args, outdir)
        _write_manifest(outdir, config)
        return 0
    except DATA_ERRORS as exc:
        print(f"fairgrade: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NUMERIC_ERRORS as exc:
        print(f"fairgrade: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ParameterOutOfRangeError, ValueError, KeyError) as exc:
        print(f"fairgrade: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"fairgrade: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
