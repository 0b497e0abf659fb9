"""Generative answer model and merit estimation.

Merits live on one shared scale: a student's entry is an ability, a
question's a difficulty, and the chance of a correct answer is
logistic(ability - difficulty). Within a strongly connected piece of the
result graph the merits are recovered by maximum likelihood via the
minorization-maximization fixed point; a Gaussian-prior variant gives a
penalized fit that needs no connectivity at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .graph import ExamResultGraph, Roster, TaskAssignmentGraph, _tarjan
from .rng import as_generator

MEAN_ZERO = "mean_zero"
ANCHORED = "anchored"


class MissingMeritError(KeyError):
    """A vertex required by the computation has no merit value."""


class NotStronglyConnectedError(ValueError):
    """The requested component is not strongly connected, so the maximum
    likelihood problem has no unique finite solution."""


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, message: str, report: "FitReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class MeritVector:
    """Merit values keyed by roster vertex index.

    The model is invariant to adding a constant, so a vector may carry a
    normalization tag: mean-zero over its covered vertices, or anchored with
    one vertex pinned to 0. Untagged vectors are allowed (penalized fits fix
    the gauge through the prior instead).
    """

    values: dict[int, float]
    normalization: str | None = None
    anchor: int | None = None

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values.values()):
            raise ValueError("merit values must be finite")
        if self.normalization == MEAN_ZERO:
            if abs(sum(self.values.values())) > 1e-9:
                raise ValueError("mean-zero vector does not sum to 0")
        elif self.normalization == ANCHORED:
            if self.anchor is None or self.values.get(self.anchor) != 0.0:
                raise ValueError("anchored vector must pin its anchor vertex to 0")
        elif self.normalization is not None:
            raise ValueError(f"unknown normalization tag {self.normalization!r}")

    @classmethod
    def for_roster(
        cls,
        roster: Roster,
        abilities: Iterable[float],
        difficulties: Iterable[float],
        normalization: str | None = None,
        anchor: int | None = None,
    ) -> "MeritVector":
        values = dict(enumerate(abilities))
        if len(values) != roster.n_students:
            raise ValueError("one ability per student required")
        for j, v in enumerate(difficulties):
            values[roster.question_vertex(j)] = v
        if len(values) != roster.n_vertices:
            raise ValueError("one difficulty per question required")
        return cls({k: float(v) for k, v in values.items()}, normalization, anchor)

    @classmethod
    def mean_zero(cls, values: Mapping[int, float]) -> "MeritVector":
        shift = sum(values.values()) / len(values)
        centered = {k: float(v - shift) for k, v in values.items()}
        # kill residual roundoff so the invariant holds exactly enough
        resid = sum(centered.values()) / len(centered)
        if resid:
            centered = {k: v - resid for k, v in centered.items()}
        return cls(centered, MEAN_ZERO)

    def __getitem__(self, vertex: int) -> float:
        try:
            return self.values[vertex]
        except KeyError as exc:
            raise MissingMeritError(f"no merit for vertex {vertex}") from exc

    def covers(self, vertices: Iterable[int]) -> bool:
        return all(v in self.values for v in vertices)

    def array_for(self, roster: Roster) -> np.ndarray:
        """Values as a dense array over all roster vertices."""
        if len(self.values) < roster.n_vertices or not self.covers(range(roster.n_vertices)):
            raise MissingMeritError("merit vector does not cover the full roster")
        return np.array([self.values[v] for v in range(roster.n_vertices)])


def merit_span(u: MeritVector) -> float:
    """Largest pairwise merit difference; the key connectivity diagnostic."""
    if not u.values:
        raise ValueError("empty merit vector")
    vals = u.values.values()
    return max(vals) - min(vals)


def logistic(x):
    """1 / (1 + exp(-x)), stable for large |x|; accepts scalars or arrays."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out.reshape(np.shape(x))


def log_logistic(x):
    """log(logistic(x)) without underflow to -inf for moderate x."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=float))


def answer_probability(u: MeritVector, roster: Roster, i: int, j: int) -> float:
    """Chance that student i answers question j correctly (roster indices)."""
    return float(logistic(u[roster.student_vertex(i)] - u[roster.question_vertex(j)]))


def sample_exam_result(g: TaskAssignmentGraph, u: MeritVector, seed) -> ExamResultGraph:
    """Draw one exam outcome: independent Bernoulli per assigned pair."""
    probs = edge_probabilities(g, u)
    rng = as_generator(seed)
    w = (rng.random(g.n_edges) < probs).astype(np.uint8)
    return ExamResultGraph(g, w)


def edge_probabilities(g: TaskAssignmentGraph, u: MeritVector) -> np.ndarray:
    """Correct-answer probability per assignment edge, in edge order."""
    s_idx, q_idx = g.edge_arrays
    merits = u.array_for(g.roster)
    return logistic(merits[s_idx] - merits[q_idx + g.roster.n_students])


def benchmark(u: MeritVector, roster: Roster):
    """Each student's expected accuracy on a uniform bank question."""
    from .grading import GradeVector

    merits = u.array_for(roster)
    abilities = merits[: roster.n_students]
    difficulties = merits[roster.n_students :]
    grades = logistic(abilities[:, None] - difficulties[None, :]).mean(axis=1)
    return GradeVector(roster, grades, "benchmark")


def log_likelihood(u: MeritVector, g: ExamResultGraph) -> float:
    """Sum of log-probabilities of the observed directed edges."""
    s_idx, q_idx = g.assignment.edge_arrays
    if len(s_idx) == 0:
        return 0.0
    n = g.roster.n_students
    diffs = np.array([u[int(i)] - u[int(j) + n] for i, j in zip(s_idx, q_idx)])
    signed = np.where(g.w == 1, diffs, -diffs)
    return float(log_logistic(signed).sum())


@dataclass(frozen=True)
class FitReport:
    """Converged (or best-effort) merit fit for one vertex set."""

    merits: MeritVector
    iterations: int
    residual: float  # inf-norm of the stationarity defect
    converged: bool


@dataclass(frozen=True)
class PriorSpec:
    """Independent Gaussian priors, one scale for students and one for questions."""

    student_mean: float = 0.0
    student_std: float = 1.0
    question_mean: float = 0.0
    question_std: float = 1.0

    def __post_init__(self):
        if self.student_std <= 0 or self.question_std <= 0:
            raise ValueError("prior standard deviations must be strictly positive")


def _component_arrays(g: ExamResultGraph, vertices: list[int]):
    """Dense symmetric comparison counts and win counts restricted to `vertices`."""
    pos = {v: k for k, v in enumerate(vertices)}
    k = len(vertices)
    sym = np.zeros((k, k))
    wins = np.zeros(k)
    n = g.roster.n_students
    s_idx, q_idx = g.assignment.edge_arrays
    for i, j, bit in zip(s_idx, q_idx, g.w):
        a = pos.get(int(i))
        b = pos.get(int(j) + n)
        if a is None or b is None:
            continue
        sym[a, b] += 1
        sym[b, a] += 1
        if bit:
            wins[a] += 1
        else:
            wins[b] += 1
    return sym, wins


def _is_internally_strongly_connected(g: ExamResultGraph, vertices: list[int]) -> bool:
    vset = set(vertices)
    pos = {v: k for k, v in enumerate(vertices)}
    adj: list[list[int]] = [[] for _ in vertices]
    full = g.directed_adjacency()
    for v in vertices:
        adj[pos[v]] = [pos[u] for u in full[v] if u in vset]
    _, comps = _tarjan(adj)
    return len(comps) == 1


def mm_step(gamma: np.ndarray, sym: np.ndarray, wins: np.ndarray) -> np.ndarray:
    """One minorization-maximization update in the exp-merit parameterization."""
    denom = (sym / np.add.outer(gamma, gamma)).sum(axis=1)
    return wins / denom


def mle_fit(
    g: ExamResultGraph,
    component: Iterable[int],
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> FitReport:
    """Maximum likelihood merits on one strongly connected vertex set.

    The stationarity target is the likelihood equation: observed win counts
    equal expected win counts, to within `tol` in the sup norm. Steps are
    damped Newton (the gauge direction is pinned by a rank-one shift, which
    leaves the mean-zero solution untouched since the gradient sums to 0);
    any step the line search rejects falls back to one globally convergent
    MM update. The result is reported mean-zero over the component.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vertices = sorted(component)
    if len(vertices) < 2 or not _is_internally_strongly_connected(g, vertices):
        raise NotStronglyConnectedError(
            f"vertex set {vertices} is not strongly connected in the result graph"
        )
    sym, wins = _component_arrays(g, vertices)
    k = len(vertices)
    gauge = np.full((k, k), 1.0 / k)

    def loglik(u):
        diff = u[:, None] - u[None, :]
        # each undirected comparison contributes log f(win direction); summing
        # sym_ij * log f(u_i - u_j) over wins only needs the win multiplicities,
        # which sym does not store, so evaluate via the pair list instead
        return float((win_mult * log_logistic(diff[win_rows, win_cols])).sum())

    win_rows, win_cols, win_mult = _win_pairs(g, vertices)
    u = np.zeros(k)
    for it in range(1, max_iter + 1):
        p = logistic(u[:, None] - u[None, :])
        grad = wins - (sym * p).sum(axis=1)
        residual = float(np.abs(grad).max())
        if residual <= tol:
            return FitReport(MeritVector.mean_zero(dict(zip(vertices, u))), it - 1,
                             residual, True)
        fprime = sym * p * (1.0 - p)
        hess = -fprime + np.diag(fprime.sum(axis=1))  # negated Hessian, PSD
        try:
            step = np.linalg.solve(hess + gauge, grad)
        except np.linalg.LinAlgError:
            step = None
        accepted = False
        if step is not None:
            step = step - step.mean()
            f0 = loglik(u)
            slope = float(grad @ step)
            t = 1.0
            while t > 1e-4:
                if loglik(u + t * step) >= f0 + 0.25 * t * slope:
                    u = u + t * step
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            gamma = mm_step(np.exp(u), sym, wins)
            u = np.log(gamma)
        u = u - u.mean()
    p = logistic(u[:, None] - u[None, :])
    residual = float(np.abs(wins - (sym * p).sum(axis=1)).max())
    report = FitReport(MeritVector.mean_zero(dict(zip(vertices, u))), max_iter,
                       residual, False)
    raise NonConvergenceError(
        f"fit did not reach tol={tol} in {max_iter} iterations (residual {residual:.3e})",
        report,
    )


def _win_pairs(g: ExamResultGraph, vertices: list[int]):
    """Directed comparisons inside `vertices` as (winner, loser, count) arrays."""
    pos = {v: k for k, v in enumerate(vertices)}
    n = g.roster.n_students
    counts: dict[tuple[int, int], int] = {}
    s_idx, q_idx = g.assignment.edge_arrays
    for i, j, bit in zip(s_idx, q_idx, g.w):
        a = pos.get(int(i))
        b = pos.get(int(j) + n)
        if a is None or b is None:
            continue
        key = (a, b) if bit else (b, a)
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return (np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)
    rows = np.array([ab[0] for ab in counts], dtype=np.intp)
    cols = np.array([ab[1] for ab in counts], dtype=np.intp)
    mult = np.array(list(counts.values()), dtype=float)
    return rows, cols, mult


def likelihood_equation_residual(u: MeritVector, g: ExamResultGraph) -> float:
    """Independent recomputation of the stationarity defect for `u`'s vertices."""
    n = g.roster.n_students
    covered = set(u.values)
    defect: dict[int, float] = {v: 0.0 for v in covered}
    s_idx, q_idx = g.assignment.edge_arrays
    for i, j, bit in zip(s_idx, q_idx, g.w):
        a, b = int(i), int(j) + n
        if a not in covered or b not in covered:
            continue
        p = logistic(u[a] - u[b])
        defect[a] += bit - p
        defect[b] += (1 - bit) - (1 - p)
    return max((abs(v) for v in defect.values()), default=0.0)


def map_fit(
    g: ExamResultGraph,
    prior: PriorSpec,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> FitReport:
    """Posterior-mode merits: likelihood plus Gaussian log-prior.

    The prior makes the objective strictly concave, so a damped Newton method
    with backtracking converges from anywhere; no connectivity is needed and
    no gauge normalization is applied.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    roster = g.roster
    nv = roster.n_vertices
    n = roster.n_students
    mean = np.concatenate(
        [np.full(n, prior.student_mean), np.full(roster.n_questions, prior.question_mean)]
    )
    inv_var = np.concatenate(
        [np.full(n, prior.student_std**-2), np.full(roster.n_questions, prior.question_std**-2)]
    )
    sym = np.zeros((nv, nv))
    wins = np.zeros(nv)
    s_idx, q_idx = g.assignment.edge_arrays
    for i, j, bit in zip(s_idx, q_idx, g.w):
        a, b = int(i), int(j) + n
        sym[a, b] += 1
        sym[b, a] += 1
        wins[a if bit else b] += 1

    winner = np.where(g.w == 1, s_idx, q_idx + n).astype(np.intp)
    loser = np.where(g.w == 1, q_idx + n, s_idx).astype(np.intp)

    def objective(u):
        ll = float(log_logistic(u[winner] - u[loser]).sum()) if len(winner) else 0.0
        return ll - 0.5 * float(inv_var @ (u - mean) ** 2)

    u = mean.copy()
    for it in range(1, max_iter + 1):
        p = logistic(u[:, None] - u[None, :])
        grad = wins - (sym * p).sum(axis=1) - inv_var * (u - mean)
        gnorm = float(np.abs(grad).max())
        if gnorm <= tol:
            return FitReport(MeritVector(dict(enumerate(u.tolist()))), it - 1, gnorm, True)
        fprime = sym * p * (1.0 - p)
        hess = -fprime + np.diag(fprime.sum(axis=1) + inv_var)  # negated Hessian, PD
        step = np.linalg.solve(hess, grad)
        t, f0 = 1.0, objective(u)
        slope = float(grad @ step)
        # near the optimum a full step changes the objective by less than its
        # rounding error; such a change must not refuse the step
        slack = 1e-12 * abs(f0)
        while objective(u + t * step) < f0 + 0.25 * t * slope - slack and t > 1e-8:
            t *= 0.5
        u = u + t * step
    p = logistic(u[:, None] - u[None, :])
    grad = wins - (sym * p).sum(axis=1) - inv_var * (u - mean)
    gnorm = float(np.abs(grad).max())
    report = FitReport(MeritVector(dict(enumerate(u.tolist()))), max_iter, gnorm, False)
    raise NonConvergenceError(
        f"Newton did not reach tol={tol} in {max_iter} iterations (gradient {gnorm:.3e})",
        report,
    )
