"""Experiment harness: fairness estimation, enumeration oracles, sweeps, CV.

All Monte-Carlo quantities are keyed by (master seed, index path): the k-th
outcome draw on a graph comes from its own substream, so runs are reproducible
and no draw depends on how many others ran before it. `_replicate` runs them
all and counts those that fail numerically. An estimate over no graphs, draws,
repetitions or sweep values raises ParameterOutOfRangeError naming the count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .graph import (ExamResultGraph, ParameterOutOfRangeError, Roster, TaskAssignmentGraph,
                    check_assignment_sizes, generate_assignment)
from .grading import GradeVector, benchmark, grade, simple_average
from .model import MeritVector, NonConvergenceError, edge_probabilities, sample_exam_result
from .rng import scalar_seed, substream

GradingRule = Callable[[ExamResultGraph], GradeVector]
Trial = Callable[[np.random.Generator], np.ndarray]  # one Monte-Carlo draw from its substream

RULES: dict[str, GradingRule] = {"ours": grade, "avg": simple_average}

MONTE_CARLO = "monte_carlo"
EXACT_ENUMERATION = "exact_enumeration"

# the published ranges of student abilities and of question difficulties, the
# latter `uniform_difficulty_sampler`'s default
DEFAULT_ABILITY_RANGE = (-1.486, 1.149)
DEFAULT_DIFFICULTY_RANGE = (-3.090, 2.099)


class InstanceTooLargeError(ValueError):
    """Exact enumeration was requested for an instance beyond the cap."""


class AllReplicationsFailedError(RuntimeError):
    """Every Monte-Carlo draw of an estimate failed numerically."""


@dataclass(frozen=True)
class BiasReport:
    """Per-student deviation of expected grade from the benchmark, on one graph."""

    per_student_deviation: np.ndarray  # E_w[alg_i] - opt_i
    per_student_se: np.ndarray  # standard error of the deviation estimate
    max_bias: float
    avg_bias: float
    replications: int
    failed_replications: int


@dataclass(frozen=True)
class ErrorDecomposition:
    """Squared-error split into systematic and noise parts, averaged over
    graphs and students."""

    bias: float
    variance: float
    error: float
    estimator: str
    failed_replications: int


@dataclass(frozen=True)
class RulePointStats:
    max_bias: float
    max_bias_se: float
    avg_bias: float
    avg_bias_se: float
    failed_replications: int = 0


@dataclass(frozen=True)
class SweepPoint:
    value: int
    per_rule: dict[str, RulePointStats]
    graphs: int
    replications: int


@dataclass(frozen=True)
class SweepResult:
    axis: str
    points: tuple[SweepPoint, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "points", tuple(sorted(self.points, key=lambda p: p.value))
        )


@dataclass(frozen=True)
class CvResult:
    """Each rule's hold-out MSE at one (d1, d2), over the `repetitions` that
    succeeded; `failed_repetitions` counts those in which any rule failed."""

    d1: int
    d2: int
    mse_per_rule: dict[str, float]
    repetitions: int
    failed_repetitions: int = 0


def _require_positive(**counts: int) -> None:
    for name, count in counts.items():
        if count < 1:
            raise ParameterOutOfRangeError(f"{name} must be >= 1, got {count}")


def _replicate(trial: Trial, count: int, *key: int) -> tuple[np.ndarray, int]:
    """Run `trial(substream(*key, k))` for each k < `count`.

    Returns the rows of the trials that succeeded, stacked, and the number
    that failed numerically. Any other exception from a trial is a
    programming error and propagates. Raises if every trial failed.
    """
    rows, failed = [], 0
    for k in range(count):
        try:
            rows.append(trial(substream(*key, k)))
        except (NonConvergenceError, np.linalg.LinAlgError):
            failed += 1
    if not rows:
        raise AllReplicationsFailedError("every replication failed; nothing to aggregate")
    return np.stack(rows), failed


def _outcomes(rule: GradingRule, g: TaskAssignmentGraph, u: MeritVector) -> Trial:
    """Trial for `_replicate`: `rule`'s grades on one outcome draw on `g`."""
    probs = edge_probabilities(g, u)
    return lambda rng: rule(ExamResultGraph(g, rng.random(g.n_edges) < probs)).values


def estimate_ex_post_bias(
    rule: GradingRule,
    g: TaskAssignmentGraph,
    u: MeritVector,
    replications: int,
    seed: int,
) -> BiasReport:
    """Monte-Carlo estimate of each student's expected-grade deviation."""
    _require_positive(replications=replications)
    opt = benchmark(u, g.roster).values
    mat, failed = _replicate(_outcomes(rule, g, u), replications, seed)
    ok = len(mat)
    mean = mat.mean(axis=0)
    deviation = mean - opt
    se = mat.std(axis=0, ddof=1) / np.sqrt(ok) if ok > 1 else np.zeros_like(mean)
    bias = deviation**2
    return BiasReport(
        per_student_deviation=deviation, per_student_se=se,
        max_bias=float(bias.max()), avg_bias=float(bias.mean()),
        replications=ok, failed_replications=failed,
    )


MAX_ENUMERATION_EDGES = 22


def enumerate_outcomes(g: TaskAssignmentGraph, u: MeritVector):
    """Yield (probability, result graph) over all 2^|E| outcome vectors."""
    e = g.n_edges
    if e > MAX_ENUMERATION_EDGES:
        raise InstanceTooLargeError(f"{e} edges exceeds the 2^{MAX_ENUMERATION_EDGES} cap")
    probs = edge_probabilities(g, u)
    bits = np.arange(e)
    for mask in range(1 << e):
        w = ((mask >> bits) & 1).astype(np.uint8)
        p = float(np.prod(np.where(w == 1, probs, 1.0 - probs)))
        yield p, ExamResultGraph(g, w)


def _exact_moments(rule: GradingRule, g: TaskAssignmentGraph, u: MeritVector):
    """Exact per-student (E[alg], E[alg^2], E[(alg-opt)^2])."""
    opt = benchmark(u, g.roster).values
    m1 = np.zeros_like(opt)
    m2 = np.zeros_like(opt)
    err = np.zeros_like(opt)
    for p, result in enumerate_outcomes(g, u):
        vals = rule(result).values
        m1 += p * vals
        m2 += p * vals**2
        err += p * (vals - opt) ** 2
    return m1, m2, err


MAX_FAIRNESS_OUTCOMES = 2_000_000


def verify_ex_ante_fairness(
    roster: Roster, m: int, d: int, u: MeritVector, tol: float = 1e-12
) -> bool:
    """Exact check that averaging's expected grade over the random-assignment
    family equals the benchmark for every student."""
    check_assignment_sizes(roster, m, d)
    n, q = roster.n_students, roster.n_questions
    n_graphs = math.comb(q, m) * math.comb(m, d) ** n
    if n_graphs * (1 << (n * d)) > MAX_FAIRNESS_OUTCOMES:
        raise InstanceTooLargeError(
            f"{n_graphs} graphs x 2^{n * d} outcomes exceeds the enumeration cap"
        )
    opt = benchmark(u, roster).values
    total = np.zeros(n)
    students = np.repeat(np.arange(n), d)
    for bank in itertools.combinations(range(q), m):
        for rows in itertools.product(itertools.combinations(bank, d), repeat=n):
            g = TaskAssignmentGraph(roster, np.column_stack((students, np.ravel(rows))))
            for p, result in enumerate_outcomes(g, u):
                total += p * simple_average(result).values
    total /= n_graphs
    return bool(np.abs(total - opt).max() <= tol)


def decompose_error(
    rule: GradingRule,
    graphs: Sequence[TaskAssignmentGraph],
    u: MeritVector,
    replications: int,
    seed: int,
    estimator: str = MONTE_CARLO,
) -> ErrorDecomposition:
    """Average squared error against the benchmark, split into the squared
    expected deviation and the answer-noise variance.

    Plug-in estimates are used, so bias + variance == error holds exactly for
    both estimators. Monte-Carlo draws on graph k come from substream
    (seed, k, ...); failed draws are left out of that graph's moments and
    counted, and a graph whose draws all fail raises.
    """
    if estimator not in (MONTE_CARLO, EXACT_ENUMERATION):
        raise ValueError(f"unknown estimator {estimator!r}")
    if estimator == MONTE_CARLO and replications < 2:
        raise ParameterOutOfRangeError(f"replications must be >= 2, got {replications}")
    _require_positive(graphs=len(graphs))
    parts, failed = [], 0
    for gi, g in enumerate(graphs):
        opt = benchmark(u, g.roster).values
        if estimator == EXACT_ENUMERATION:
            m1, m2, err = _exact_moments(rule, g, u)
            bias = (m1 - opt) ** 2
            var = m2 - m1**2
        else:
            mat, graph_failed = _replicate(_outcomes(rule, g, u), replications, seed, gi)
            failed += graph_failed
            mean = mat.mean(axis=0)
            bias = (mean - opt) ** 2
            var = ((mat - mean) ** 2).mean(axis=0)
            err = ((mat - opt) ** 2).mean(axis=0)
        parts.append((bias.mean(), var.mean(), err.mean()))
    bias, variance, error = (float(np.mean(column)) for column in zip(*parts))
    return ErrorDecomposition(bias, variance, error, estimator, failed)


def sweep_degree(
    roster: Roster,
    u: MeritVector,
    m: int,
    d_values: Sequence[int],
    graphs_per_d: int,
    replications: int,
    seed: int,
    rules: Mapping[str, GradingRule] | None = None,
) -> SweepResult:
    """Expected max/avg squared deviation per rule, across degree constraints."""
    rules = dict(RULES) if rules is None else dict(rules)
    _require_positive(d_values=len(d_values), graphs_per_d=graphs_per_d, replications=replications)
    points = []
    for di, d in enumerate(d_values):
        instances = [
            (generate_assignment(roster, m, d, substream(seed, di, gi, 0)), u)
            for gi in range(graphs_per_d)
        ]
        points.append(_sweep_point(d, instances, rules, replications, seed, di))
    return SweepResult("d", tuple(points))


def _sweep_point(value, instances, rules, replications, seed, vi) -> SweepPoint:
    """Mean and standard error over graphs of each rule's max/avg bias, for
    the `vi`-th sweep value; `instances` lists (graph, merits) pairs."""
    reports = {name: [] for name in rules}
    for gi, (g, u) in enumerate(instances):
        for name, rule in rules.items():
            reports[name].append(estimate_ex_post_bias(
                rule, g, u, replications, scalar_seed(seed, vi, gi, 1)))
    stats = {}
    for name, rule_reports in reports.items():
        max_bias = [r.max_bias for r in rule_reports]
        avg_bias = [r.avg_bias for r in rule_reports]
        stats[name] = RulePointStats(
            max_bias=float(np.mean(max_bias)),
            max_bias_se=_se(max_bias),
            avg_bias=float(np.mean(avg_bias)),
            avg_bias_se=_se(avg_bias),
            failed_replications=sum(r.failed_replications for r in rule_reports),
        )
    return SweepPoint(int(value), stats, len(instances), replications)


def _se(xs) -> float:
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        return 0.0
    return float(xs.std(ddof=1) / np.sqrt(xs.size))


def uniform_difficulty_sampler(
    low: float = DEFAULT_DIFFICULTY_RANGE[0], high: float = DEFAULT_DIFFICULTY_RANGE[1]
):
    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(low, high, size)

    return sampler


def sweep_question_sample_size(
    student_merits: Sequence[float],
    difficulty_sampler: Callable[[np.random.Generator, int], np.ndarray],
    m_values: Sequence[int],
    d: int,
    graphs_per_m: int,
    replications: int,
    seed: int,
) -> SweepResult:
    """Infinite-bank exam design sweep: for each active-question count m,
    draw fresh difficulties per graph and measure both rules' deviation from
    the realized m-question benchmark."""
    _require_positive(m_values=len(m_values), graphs_per_m=graphs_per_m, replications=replications)
    if d > min(m_values):
        raise ParameterOutOfRangeError("degree constraint exceeds smallest question sample size")
    n = len(student_merits)

    def instances(mi: int, m: int):
        roster = Roster.index_based(n, m)
        for gi in range(graphs_per_m):
            rng = substream(seed, mi, gi, 0)
            u = MeritVector.for_roster(roster, student_merits, difficulty_sampler(rng, m))
            yield generate_assignment(roster, m, d, rng), u

    points = [
        _sweep_point(m, list(instances(mi, m)), RULES, replications, seed, mi)
        for mi, m in enumerate(m_values)
    ]
    return SweepResult("m", tuple(points))


def cross_validate(
    answers: np.ndarray,
    d1: int,
    d2: int,
    repetitions: int,
    *,
    seed: int,
) -> CvResult:
    """Hold-out evaluation on a complete answer matrix.

    Each repetition samples d1 students and gives each of them d2 of the
    full bank's questions as training data; the `RULES` are scored against
    each sampled student's full-row accuracy.
    """
    answers = np.asarray(answers)
    if answers.ndim != 2:
        raise ValueError("answers must be a 2-D matrix")
    n, q = answers.shape
    if not (1 <= d1 <= n and 1 <= d2 <= q):
        raise ParameterOutOfRangeError(f"need 1 <= d1 <= {n} and 1 <= d2 <= {q}")
    _require_positive(repetitions=repetitions)
    if not np.isin(answers, (0, 1)).all():
        raise ValueError("answers must be a complete 0/1 matrix")

    def trial(rng: np.random.Generator):
        students = np.sort(rng.permutation(n)[:d1])
        return np.array([_hold_out(answers[students], d2, rng)])

    return _cv_results(d1, [d2], trial, repetitions, seed)[0]


def _hold_out(full: np.ndarray, d2: int, rng: np.random.Generator) -> list[float]:
    """Keep d2 random cells of each row of the complete 0/1 matrix `full`
    and score each of the `RULES`' grades on that exam by their mean squared
    error against the full-row accuracy, in their order."""
    n, q = full.shape
    cols = np.concatenate([np.sort(rng.permutation(q)[:d2]) for _ in range(n)])
    rows = np.repeat(np.arange(n), d2)
    g = TaskAssignmentGraph(Roster.index_based(n, q), np.column_stack((rows, cols)))
    result = ExamResultGraph(g, full[rows, cols])
    target = full.mean(axis=1)
    return [((rule(result).values - target) ** 2).mean() for rule in RULES.values()]


def _cv_results(d1, d2_values, trial: Trial, repetitions, seed) -> list[CvResult]:
    """One CvResult per d2 over the repetitions of `trial` that succeeded;
    each returns its (len(d2_values), len(RULES)) block of MSEs."""
    mse, failed = _replicate(trial, repetitions, seed)
    # a 1-D mean per contiguous column sums in the same order as a mean of a list
    columns = np.ascontiguousarray(mse.transpose(1, 2, 0))
    return [
        CvResult(d1, int(d2), {name: float(np.mean(col)) for name, col in zip(RULES, cols)},
                 len(mse), failed)
        for d2, cols in zip(d2_values, columns)
    ]


def cv_threshold_table(results: Sequence[CvResult]) -> dict[int, int | None]:
    """Smallest d2 at which our rule's MSE beats averaging's, per student
    sample size d1 of `results`; None when it never does."""
    table: dict[int, int | None] = dict.fromkeys(res.d1 for res in results)
    for res in sorted(results, key=lambda r: r.d2):
        if table[res.d1] is None and res.mse_per_rule["ours"] < res.mse_per_rule["avg"]:
            table[res.d1] = res.d2
    return table


def simulated_cross_validate(
    prior,
    n: int,
    d2_values: Sequence[int],
    repetitions: int,
    seed: int,
    n_questions: int = 22,
) -> list[CvResult]:
    """Synthetic counterpart of `cross_validate`: merits are drawn from the
    priors, a complete exam is generated, and the `RULES` are scored against
    the realized full-row accuracy. Every d2 is scored on the same exams, so
    a repetition that fails at any d2 is left out of all of them."""
    if not all(1 <= d2 <= n_questions for d2 in d2_values):
        raise ParameterOutOfRangeError(f"need 1 <= d2 <= {n_questions}, got {list(d2_values)}")
    _require_positive(d2_values=len(d2_values), repetitions=repetitions)
    roster = Roster.index_based(n, n_questions)
    complete = TaskAssignmentGraph(roster, np.indices((n, n_questions)).reshape(2, -1).T)

    def trial(rng: np.random.Generator):
        abilities = rng.normal(prior.student_mean, prior.student_std, n)
        difficulties = rng.normal(prior.question_mean, prior.question_std, n_questions)
        if not (np.isfinite(abilities).all() and np.isfinite(difficulties).all()):
            raise ParameterOutOfRangeError(f"{prior} draws merits too large for a float")
        u = MeritVector.for_roster(roster, abilities, difficulties)
        full = sample_exam_result(complete, u, rng).w.reshape(n, n_questions)  # row-major edges
        return np.array([_hold_out(full, d2, rng) for d2 in d2_values])

    return _cv_results(n, d2_values, trial, repetitions, seed)
