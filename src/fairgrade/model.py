"""Generative answer model and merit estimation.

Merits live on one shared scale: a student's entry is an ability, a
question's a difficulty, and the chance of a correct answer is
logistic(ability - difficulty); `grading` turns these chances into grades,
the benchmark among them. Within a strongly connected piece of
the result graph the merits are recovered by maximum likelihood and
reported mean-zero over the piece; a Gaussian-prior variant gives a
penalized fit that needs no connectivity at all. Both fits run one damped
Newton solver over the edge arrays, and differ only in its quadratic
penalty: no precision is the gauge pin, a precision array is the prior. The
penalty alone also picks the step taken when backtracking fails: the gauge
falls back to a minorization-maximization update, the prior to the smallest
step. Each line-search trial takes one exp per edge, for the objective and
for the upset chances that the accepted trial hands to the next gradient
and Hessian. Each Newton step eliminates one side of the bipartite Hessian
(its student and question blocks are both diagonal) and solves the other
side's Schur complement, in a side layout and dense work arrays that each
fit sets up once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import (
    ExamResultGraph,
    ParameterOutOfRangeError,
    Roster,
    TaskAssignmentGraph,
    _as_indices,
    _strongly_connected,
)
from .rng import as_generator


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


@dataclass(frozen=True, eq=False)
class MeritVector:
    """Merit values over roster vertices.

    `values[v]` is vertex v's merit where the boolean mask `covered[v]` is
    set (all vertices when `covered` is None); uncovered entries are ignored.
    Both arrays are read-only copies. The model is invariant to adding a
    constant; the maximum likelihood fit reports the vector that sums to 0
    over its covered vertices.
    """

    values: np.ndarray
    covered: np.ndarray | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        covered = (np.ones(values.shape, dtype=bool) if self.covered is None
                   else np.array(self.covered, dtype=bool))
        if values.ndim != 1 or covered.shape != values.shape:
            raise ValueError("merit values and coverage mask must be vectors of one length")
        if not np.isfinite(values[covered]).all():
            raise ValueError("merit values must be finite")
        for name, array in (("values", values), ("covered", covered)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def for_roster(
        cls, roster: Roster, abilities: Iterable[float], difficulties: Iterable[float]
    ) -> "MeritVector":
        abilities, difficulties = (np.array(list(x), dtype=float)
                                   for x in (abilities, difficulties))
        if abilities.shape != (roster.n_students,):
            raise ValueError("one ability per student required")
        if difficulties.shape != (roster.n_questions,):
            raise ValueError("one difficulty per question required")
        return cls(np.concatenate((abilities, difficulties)))

    def at(self, vertices) -> np.ndarray:
        """Values of the vertex or vertex array `vertices`, all of which must be covered."""
        vertices = _as_indices(vertices)
        inside = (vertices >= 0) & (vertices < len(self.values))
        # the padded mask's last entry stands for every vertex outside the vector
        known = np.append(self.covered, False)[np.where(inside, vertices, -1)]
        if not known.all():
            raise MissingMeritError(f"no merit for vertex {vertices[~known].flat[0]}")
        return self.values[vertices]

    def __getitem__(self, vertex: int) -> float:
        return float(self.at(vertex))

    def array_for(self, roster: Roster) -> np.ndarray:
        """Values as a dense array over all roster vertices."""
        return self.at(np.arange(roster.n_vertices))


def logistic(x):
    """1 / (1 + exp(-x)), stable for large |x|; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))  # never overflows
    p = np.where(x >= 0, 1.0, e)
    e += 1.0  # in place, so a call holds no more arrays than x, e and p
    p /= e
    return float(p) if x.ndim == 0 else p


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
        for name in ("student_std", "question_std"):
            try:  # map_fit's precision std**-2 must be finite and positive
                if 0 < (std := getattr(self, name)) < np.inf and float(std) ** -2 < np.inf:
                    continue
            except OverflowError:
                pass
            raise ParameterOutOfRangeError(f"{name} must be finite and >= about 1e-154, got {std}")


def mm_step(gamma: np.ndarray, winner: np.ndarray, loser: np.ndarray) -> np.ndarray:
    """One minorization-maximization update in the exp-merit parameterization."""
    k = len(gamma)
    inv = 1.0 / (gamma[winner] + gamma[loser])
    denom = np.bincount(winner, inv, k) + np.bincount(loser, inv, k)
    return np.bincount(winner, minlength=k) / denom


# Backtracking halves the step down to this length (the 28th trial).
_MIN_STEP = 2.0**-27


def _schur_layout(winner, loser, n_first, k):
    """`_newton_step`'s per-fit part: the sides e and r (slices), each edge's end
    in either side, and the e x r workspace F (zero off the edges) and F D_e^-1."""
    sides = [(slice(0, n_first), np.minimum(winner, loser)),
             (slice(n_first, k), np.maximum(winner, loser) - n_first)]
    (elim, e_end), (kept, r_end) = sides if n_first >= k - n_first else sides[::-1]
    shape = sorted((n_first, k - n_first), reverse=True)
    return elim, e_end, kept, r_end, np.zeros(shape), np.empty(shape)


def _newton_step(winner, loser, weight, precision, grad, layout):
    """Newton step x with H x = grad, in the fit's `_schur_layout`.

    Eliminates the larger side e (Wright & Panchapakesan 1969): solves the
    smaller side r's Schur complement S = D_r - F' D_e^-1 F, then x_e =
    D_e^-1 (g_e + F x_r). `precision` None is the gauge: its J/k becomes J/|r|
    in S and a mean-zero step, the same step when grad sums to 0, as the
    likelihood gradient does. Each step overwrites the layout's workspace.
    """
    k = len(grad)
    elim, e_end, kept, r_end, f, scaled = layout
    diag = np.bincount(winner, weight, k) + np.bincount(loser, weight, k)
    if precision is not None:
        diag += precision
    d_e, d_r = diag[elim], diag[kept]
    if not (d_e > 0).all():
        raise np.linalg.LinAlgError("zero or NaN pivot")
    f[e_end, r_end] = weight  # the same cells every step: a vertex pair shares <= 1 edge
    np.divide(f, d_e[:, None], out=scaled)
    schur = f.T @ scaled
    np.negative(schur, out=schur)
    schur.ravel()[::len(d_r) + 1] += d_r
    if precision is None:
        schur += 1.0 / len(d_r)
    x_r = np.linalg.solve(schur, grad[kept] + scaled.T @ grad[elim])
    step = np.empty(k)
    step[kept] = x_r
    step[elim] = (grad[elim] + f @ x_r) / d_e
    return step - step.sum() / k if precision is None else step


def _log_likelihood(u, winner, loser):
    """sum(log logistic(m)) over the edge margins m = u[winner] - u[loser], as
    min(m, 0) - log1p(e), and each edge's upset chance logistic(-m), as
    where(m > 0, e, 1) / (1 + e): both from one e = exp(-|m|)."""
    m = u[winner] - u[loser]
    e = np.exp(-np.abs(m))
    return (np.minimum(m, 0.0) - np.log1p(e)).sum(), np.where(m > 0, e, 1.0) / (1.0 + e)


def check_fit_limits(tol, max_iter) -> None:
    """Raise ParameterOutOfRangeError unless tol > 0 and max_iter >= 0."""
    if not (tol > 0 and max_iter >= 0):
        raise ParameterOutOfRangeError(f"tol={tol} must be > 0 and max_iter={max_iter} >= 0")


def _newton(winner, loser, n_first, precision, center, tol, max_iter):
    """Damped Newton ascent on sum(log f(u[winner] - u[loser])) minus a
    penalty: the gauge k * mean(u)^2/2 when `precision` is None, else the
    prior sum(precision * (u - c)^2)/2.

    Starts from u = c. Each `_newton_step` is taken under a backtracking line
    search. When no trial length passes, or the Hessian is singular, the gauge
    takes one globally convergent MM update (Hunter 2004); the prior keeps the
    smallest trial, or raises LinAlgError when there is no step to shorten.
    The objective is evaluated, by one `_log_likelihood` call, once per trial,
    at the start and after a fallback; that is the loop's one exp per edge.
    The accepted trial's upset chances carry over to the next gradient and
    Hessian. As IEEE subtraction is antisymmetric, they are `logistic(u[loser]
    - u[winner])` bit for bit, so the steps and iterates are those of a loop
    that recomputes it. The objective only feeds the Armijo comparisons: its
    rounding could move an iterate only where one lands within rounding.
    Returns (u, steps taken, sup-norm of the gradient, converged).
    """
    check_fit_limits(tol, max_iter)
    k, gauge = len(center), precision is None
    layout = _schur_layout(winner, loser, n_first, k)

    def evaluate(u):
        f, upset = _log_likelihood(u, winner, loser)
        penalty = u.sum() ** 2 / k if gauge else (precision * (u - center) ** 2).sum()
        return float(f - 0.5 * penalty), upset

    def fallback(u):  # the prior falls back only when the Hessian is singular
        if not gauge:
            raise np.linalg.LinAlgError("singular Hessian")
        u = np.log(mm_step(np.exp(u), winner, loser))
        return u - u.mean()

    u, at_u = center.copy(), None
    for it in range(max_iter + 1):
        f0, upset = at_u or evaluate(u)  # upset: the chance the loser would have won
        grad = np.bincount(winner, upset, k) - np.bincount(loser, upset, k)
        grad -= u.sum() / k if gauge else precision * (u - center)
        residual = float(np.abs(grad).max())
        if residual <= tol or it == max_iter:
            return u, it, residual, residual <= tol
        try:
            step = _newton_step(winner, loser, upset * (1.0 - upset), precision, grad, layout)
        except np.linalg.LinAlgError:
            u, at_u = fallback(u), None
            continue
        slope, t = float(grad @ step), 1.0
        # near the optimum a full step changes the objective by less than its
        # rounding error; such a change must not refuse the step
        slack = 1e-12 * abs(f0)
        while (at_t := evaluate(trial := u + t * step))[0] < f0 + 0.25 * t * slope - slack:
            t *= 0.5
            if t < _MIN_STEP:
                break
        u, at_u = (trial, at_t) if t >= _MIN_STEP or not gauge else (fallback(u), None)


def _report(merits: MeritVector, iterations, residual, converged, tol) -> FitReport:
    """The fit's report, raised inside a NonConvergenceError if it did not converge."""
    report = FitReport(merits, iterations, residual, converged)
    if not converged:
        raise NonConvergenceError(
            f"fit did not reach tol={tol} in {iterations} iterations "
            f"(gradient {residual:.3e})",
            report,
        )
    return report


def mle_fit(
    g: ExamResultGraph,
    component: Iterable[int],
    tol: float = 1e-8,
    max_iter: int = 10000,
    *,
    _scc: bool = False,
) -> FitReport:
    """Maximum likelihood merits on one strongly connected vertex set.

    The stationarity target is the likelihood equation: observed win counts
    equal expected win counts, to within `tol` in the sup norm. The gauge
    direction is pinned by the penalty mean(u)^2 * k/2, which leaves the
    mean-zero solution untouched since the likelihood gradient sums to 0.
    Any step the line search rejects falls back to one globally convergent
    MM update (Hunter 2004). The result is reported mean-zero over the
    component.

    A vertex that repeats, lies outside the roster or is not an integer raises
    ParameterOutOfRangeError. `_scc=True` is for `predict_matrix` alone: it
    passes an SCC it found as its sorted vertex array, which skips that check
    and the connectivity check.
    """
    if not _scc:  # the first bad vertex in `component`'s order is named
        size, seen = g.roster.n_vertices, set()
        for v in component:
            if not isinstance(v, (int, np.integer)) or not 0 <= v < size or v in seen:
                raise ParameterOutOfRangeError(f"vertex {v!r} repeats or is not in range({size})")
            seen.add(int(v))
        component = sorted(seen)
    vertices = component
    k = len(vertices)
    pos = np.full(g.roster.n_vertices, -1, dtype=np.intp)
    pos[vertices] = np.arange(k)
    tail, head = g.directed_edges
    winner, loser = pos[tail], pos[head]
    inside = (winner >= 0) & (loser >= 0)  # the edges inside the set, in edge order
    winner, loser = winner[inside], loser[inside]
    n_first = int(np.searchsorted(vertices, g.roster.n_students))
    # the set's students come first, so each edge's student is its smaller end
    if not _scc and not _strongly_connected(n_first, k - n_first, np.minimum(winner, loser),
                                            np.maximum(winner, loser) - n_first, winner < loser):
        raise NotStronglyConnectedError(
            f"vertex set {vertices} is not strongly connected in the result graph")
    u, iterations, residual, converged = _newton(
        winner, loser, n_first, None, np.zeros(k), tol, max_iter)
    merits = np.zeros(g.roster.n_vertices)
    merits[vertices] = u - u.mean()
    return _report(MeritVector(merits, pos >= 0), iterations, residual, converged, tol)


def likelihood_equation_residual(u: MeritVector, g: ExamResultGraph) -> float:
    """Independent recomputation of the stationarity defect for `u`'s vertices: the sup
    norm of observed minus expected wins over the edges whose two ends are covered."""
    s_idx, q_idx = g.assignment.edge_arrays
    q_vertex = q_idx + g.roster.n_students
    inside = u.covered[s_idx] & u.covered[q_vertex]
    a, b = s_idx[inside], q_vertex[inside]
    surprise = g.w[inside] - logistic(u.values[a] - u.values[b])
    k = len(u.values)
    return float(np.abs(np.bincount(a, surprise, k) - np.bincount(b, surprise, k)).max())


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
    roster = g.roster
    n, q = roster.n_students, roster.n_questions
    mean = np.repeat([prior.student_mean, prior.question_mean], [n, q])
    inv_var = np.repeat([prior.student_std**-2, prior.question_std**-2], [n, q])
    u, iterations, residual, converged = _newton(
        *g.directed_edges, n, inv_var, mean, tol, max_iter)
    return _report(MeritVector(u), iterations, residual, converged, tol)
