"""Generative answer model and merit estimation.

Merits live on one shared scale: a student's entry is an ability, a
question's a difficulty, and the chance of a correct answer is
logistic(ability - difficulty); `grading` turns these chances into grades,
the benchmark among them. Within a strongly connected piece of
the result graph the merits are recovered by maximum likelihood and
reported mean-zero over the piece; a Gaussian-prior variant gives a
penalized fit that needs no connectivity at all. Both fits run one damped
Newton solver over the edge arrays with one diagonal quadratic penalty: the
maximum likelihood fit pins its first vertex at 0, as only merit differences
matter, and the prior pulls every merit toward its mean. When backtracking
fails, the pinned fit takes a minorization-maximization update and the prior
keeps the smallest step. Each line-search trial takes one exp per edge, for
the objective and for the upset chances that the accepted trial hands to
the next gradient and Hessian. Each Newton step eliminates one side of the
bipartite Hessian (its student and question blocks are both diagonal) and
solves the other side's Schur complement: one gemm or, on a sparse fit, one
`bincount` over the pairs of edges at each eliminated vertex, as the graph
alone decides. Each fit sets up its side layout and work arrays once.
"""

from __future__ import annotations

import math
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
        for name in ("student_mean", "question_mean", "student_std", "question_std"):
            value, is_mean = getattr(self, name), name.endswith("mean")
            try:  # map_fit computes with the mean and std**-2 as finite floats
                if (math.isfinite(value) if is_mean
                        else 0 < value < np.inf and float(value) ** -2 < np.inf):
                    continue
            except OverflowError:  # 10**400 as a float; "1" raises TypeError instead
                pass
            limits = "finite" if is_mean else "finite and >= about 1e-154"
            raise ParameterOutOfRangeError(  # str() of a huge int raises, so name its type
                f"{name} must be {limits}, got a value of type {type(value).__name__}")


def mm_step(gamma: np.ndarray, winner: np.ndarray, loser: np.ndarray) -> np.ndarray:
    """One minorization-maximization update in the exp-merit parameterization."""
    k = len(gamma)
    inv = 1.0 / (gamma[winner] + gamma[loser])
    denom = np.bincount(winner, inv, k) + np.bincount(loser, inv, k)
    return np.bincount(winner, minlength=k) / denom


# Backtracking halves the step down to this length (the 28th trial).
_MIN_STEP = 2.0**-27
# The pair build's least gain in multiply-adds (it broke even at about 180-400).
_PAIR_GAIN = 256


def _schur_layout(winner, loser, n_first, k, pairs=None):
    """`_newton_step`'s per-fit part: the sides e and r (slices), each edge's end in
    either side, and one Schur build's work: the pair build when e r^2 > `_PAIR_GAIN` P
    for the P = sum(deg_e^2) edge pairs at an eliminated vertex and 3 P <= 2 e r (its
    memory fits in the gemm build's F and F D_e^-1), else the gemm build; `pairs` forces one."""
    sides = [(slice(0, n_first), np.minimum(winner, loser)),
             (slice(n_first, k), np.maximum(winner, loser) - n_first)]
    (elim, e_end), (kept, r_end) = sides if n_first >= k - n_first else sides[::-1]
    e, r = sorted((n_first, k - n_first), reverse=True)
    deg = np.bincount(e_end, minlength=e)
    n_pairs = int(deg @ deg)
    if pairs is None:
        pairs = e * r * r > _PAIR_GAIN * n_pairs and 3 * n_pairs <= 2 * e * r
    if not pairs:
        return elim, e_end, kept, r_end, (np.zeros((e, r)), np.empty((e, r)))
    order = np.argsort(e_end, kind="stable")  # a pairs with each b at its vertex
    reps = deg[e_end[order]]
    shift = (np.cumsum(deg) - deg)[e_end[order]] - (np.cumsum(reps) - reps)
    a, b = np.repeat(order, reps), order[np.repeat(shift, reps) + np.arange(n_pairs)]
    return elim, e_end, kept, r_end, (a, b, r_end[a] * r + r_end[b])


def _newton_step(winner, loser, weight, precision, grad, layout):
    """Newton step x with H x = grad, in the fit's `_schur_layout`.

    Eliminates the larger side e (Wright & Panchapakesan 1969): solves the
    smaller side r's Schur complement S = D_r - F' D_e^-1 F, then x_e =
    D_e^-1 (g_e + F x_r). The diagonal `precision` adds to D_e and D_r. The
    gemm build takes F' D_e^-1 F from the layout's e x r arrays; the pair
    build adds w_a (w_b / d_i) to S[r_a, r_b] for each pair of edges a, b at an
    eliminated vertex i by one `bincount`, and F's products are `bincount`s too."""
    k = len(grad)
    elim, e_end, kept, r_end, work = layout
    diag = np.bincount(winner, weight, k) + np.bincount(loser, weight, k)
    diag += precision
    d_e, d_r = diag[elim], diag[kept]
    if not (d_e > 0).all():
        raise np.linalg.LinAlgError("zero or NaN pivot")
    r = len(d_r)
    if len(work) == 2:  # the gemm build
        f, scaled = work
        f[e_end, r_end] = weight  # the same cells every step: a vertex pair shares <= 1 edge
        np.divide(f, d_e[:, None], out=scaled)
        schur = f.T @ scaled
        rhs = scaled.T @ grad[elim]
    else:
        a, b, cell = work
        scaled = weight / d_e[e_end]
        schur = np.bincount(cell, weight[a] * scaled[b], r * r).reshape(r, r)
        rhs = np.bincount(r_end, scaled * grad[elim][e_end], r)
    np.negative(schur, out=schur)
    schur.ravel()[::r + 1] += d_r
    x_r = np.linalg.solve(schur, grad[kept] + rhs)
    step = np.empty(k)
    step[kept] = x_r
    back = f @ x_r if len(work) == 2 else np.bincount(e_end, weight * x_r[r_end], len(d_e))
    step[elim] = (grad[elim] + back) / d_e
    return step


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


def _newton(winner, loser, n_first, precision, center, tol, max_iter, fallback=None):
    """Damped Newton ascent on sum(log f(u[winner] - u[loser])) minus the
    penalty sum(precision * (u - c)^2)/2.

    Starts from u = c. Each `_newton_step` is taken under a backtracking line
    search. When no trial length passes, or the Hessian is singular, the loop
    moves to `fallback(u)` if one is given; without one it keeps the smallest
    trial, or raises LinAlgError when there is no step to shorten.
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
    k = len(center)
    layout = _schur_layout(winner, loser, n_first, k)

    def evaluate(u):
        f, upset = _log_likelihood(u, winner, loser)
        return float(f - 0.5 * (precision * (u - center) ** 2).sum()), upset

    u, at_u = center.copy(), None
    for it in range(max_iter + 1):
        f0, upset = at_u or evaluate(u)  # upset: the chance the loser would have won
        grad = np.bincount(winner, upset, k) - np.bincount(loser, upset, k)
        grad -= precision * (u - center)
        residual = float(np.abs(grad).max())
        if residual <= tol or it == max_iter:
            return u, it, residual, residual <= tol
        try:
            step = _newton_step(winner, loser, upset * (1.0 - upset), precision, grad, layout)
        except np.linalg.LinAlgError:
            if fallback is None:
                raise np.linalg.LinAlgError("singular Hessian")
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
        u, at_u = (trial, at_t) if t >= _MIN_STEP or fallback is None else (fallback(u), None)


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
    equal expected win counts, to within `tol` in the sup norm. The
    likelihood cannot see a shift of all merits, so the penalty u[0]^2/2 pins
    the set's first vertex at 0; a shifted maximizer is still a maximizer, so
    the pin moves no difference. Any step the line search rejects falls back
    to one globally convergent MM update (Hunter 2004), shifted back to
    u[0] = 0. The result is reported mean-zero over the component.

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

    def fallback(u):
        u = np.log(mm_step(np.exp(u), winner, loser))
        return u - u[0]

    pin = np.eye(1, k)[0]  # precision 1 at the first vertex, 0 elsewhere
    u, iterations, residual, converged = _newton(
        winner, loser, n_first, pin, np.zeros(k), tol, max_iter, fallback)
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
    no vertex is pinned. A singular Hessian raises LinAlgError, and a line
    search that no trial passes keeps its smallest step.
    """
    roster = g.roster
    n, q = roster.n_students, roster.n_questions
    mean = np.repeat([prior.student_mean, prior.question_mean], [n, q])
    inv_var = np.repeat([prior.student_std**-2, prior.question_std**-2], [n, q])
    u, iterations, residual, converged = _newton(
        *g.directed_edges, n, inv_var, mean, tol, max_iter)
    return _report(MeritVector(u), iterations, residual, converged, tol)
