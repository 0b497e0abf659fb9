"""Grading rules, and the benchmark grades they are measured against.

`benchmark` is each student's expected accuracy on a uniform bank question.
`simple_average` is the classic per-student accuracy on assigned questions.
`grade` aggregates a full prediction matrix built in four passes: observed
outcomes are kept verbatim, missing cells inside a strongly connected
component come from the fitted merits, cells across comparable components
get the hard 0/1 implied by the path direction, and cells across
incomparable components fall back to the student's mean over everything
filled so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import ExamResultGraph, PairCase, Roster, _pair_cases, strongly_connected_components
from .model import (FitReport, MeritVector, NonConvergenceError, PriorSpec, check_fit_limits,
                    logistic, map_fit, mle_fit)


_CASE_TAGS = np.array([None, *PairCase], dtype=object)  # indexed by `PairCase` value


class ZeroDegreeStudentError(ValueError):
    """A student with no assigned questions cannot be graded."""


@dataclass(frozen=True, eq=False)
class GradeVector:
    """Per-student grades in [0, 1], aligned with roster.students."""

    roster: Roster
    values: np.ndarray
    rule_name: str

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a private copy: the caller's stays writable
        if values.shape != (self.roster.n_students,):
            raise ValueError("one grade per student required")
        if not np.all((values >= -1e-12) & (values <= 1 + 1e-12)):
            raise ValueError("grades must be finite and lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def as_dict(self) -> dict[str, float]:
        return {sid: float(v) for sid, v in zip(self.roster.students, self.values)}


@dataclass(frozen=True, eq=False)
class PredictionMatrix:
    """Per-pair correctness predictions plus the case that produced each."""

    roster: Roster
    entries: np.ndarray  # students x bank questions, values in [0, 1]
    case_tags: np.ndarray  # parallel matrix of PairCase values

    def __post_init__(self):
        if self.entries.shape != (self.roster.n_students, self.roster.n_questions):
            raise ValueError("entries must be students x questions")
        if self.case_tags.shape != self.entries.shape:
            raise ValueError("case tags must parallel the entries")

    @cached_property
    def grades(self) -> np.ndarray:
        return self.entries.mean(axis=1)


def benchmark(u: MeritVector, roster: Roster) -> GradeVector:
    """Each student's expected accuracy on a uniform bank question."""
    chances = _bank_chances(u.array_for(roster), roster.n_students)
    return GradeVector(roster, chances.mean(axis=1), "benchmark")


def _bank_chances(merits: np.ndarray, n: int) -> np.ndarray:
    """Students x bank matrix of win chances logistic(ability - difficulty),
    from the merits of all roster vertices, the n students first."""
    return logistic(merits[:n, None] - merits[None, n:])


def simple_average(g: ExamResultGraph) -> GradeVector:
    """Fraction of assigned questions each student answered correctly."""
    s_idx, _ = g.assignment.edge_arrays
    degrees = g.assignment.student_degrees
    _require_positive_degrees(g.roster, degrees)
    return GradeVector(g.roster, np.bincount(s_idx, g.w, len(degrees)) / degrees, "avg")


def _require_positive_degrees(roster: Roster, degrees: np.ndarray) -> None:
    if (degrees == 0).any():
        bad = [roster.students[i] for i in np.flatnonzero(degrees == 0)]
        raise ZeroDegreeStudentError(f"students with no assigned questions: {bad}")


def predict_matrix(
    g: ExamResultGraph,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> PredictionMatrix:
    """Fill the full students x bank prediction matrix, case by case."""
    check_fit_limits(tol, max_iter)  # whether or not any SCC needs a fit
    roster = g.roster
    _require_positive_degrees(roster, g.assignment.student_degrees)
    components = strongly_connected_components(g)
    n = roster.n_students
    comp = components.component_of
    codes = _pair_cases(components, g.assignment.edge_arrays)

    h = np.zeros(codes.shape)
    h[g.assignment.edge_arrays] = g.w
    h[codes == PairCase.STUDENT_ABOVE.value] = 1.0
    same = codes == PairCase.SAME_COMPONENT.value
    # the SCCs to fit are those whose students have SAME_COMPONENT cells
    fitted = np.flatnonzero(np.bincount(comp[:n], same.any(axis=1), components.n_components))
    u = np.zeros(roster.n_vertices)
    for cid in fitted:
        vertices = np.flatnonzero(comp == cid)
        try:
            fit = mle_fit(g, vertices, tol=tol, max_iter=max_iter, _scc=True)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"merit fit for component {cid} failed: {exc}", exc.report
            ) from exc
        u[vertices] = fit.merits.values[vertices]
    i, j = np.nonzero(same)
    h[i, j] = logistic(u[i] - u[n + j])
    # incomparable cells take the row mean over the cells the other cases filled
    incomparable = codes == PairCase.INCOMPARABLE.value
    row_means = h.sum(axis=1) / (~incomparable).sum(axis=1)
    h = np.where(incomparable, row_means[:, None], h)
    return PredictionMatrix(roster, h, _CASE_TAGS[codes])


def grade(
    g: ExamResultGraph,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> GradeVector:
    """Structural grading rule: mean prediction over the full question bank."""
    return GradeVector(g.roster, predict_matrix(g, tol=tol, max_iter=max_iter).grades, "ours")


def make_map_rule(prior: PriorSpec, tol: float = 1e-8, max_iter: int = 100):
    """Grading rule backed by the penalized (posterior-mode) fit.

    Observed outcomes are kept verbatim; every other cell is predicted from
    the fitted merits. Works on any result graph, connected or not.
    """

    def rule(g: ExamResultGraph) -> GradeVector:
        roster = g.roster
        _require_positive_degrees(roster, g.assignment.student_degrees)
        fit = map_fit(g, prior, tol=tol, max_iter=max_iter)
        h = _bank_chances(fit.merits.array_for(roster), roster.n_students)
        h[g.assignment.edge_arrays] = g.w
        return GradeVector(roster, h.mean(axis=1), "map")

    return rule


def per_student_error_bound(fit: FitReport, truth: MeritVector) -> float:
    """Worst-case squared grade deviation implied by the merit fit error.

    Both vectors are recentred to mean zero over the fitted vertices before
    taking the sup-norm, since only merit differences matter.
    """
    est = fit.merits.values[fit.merits.covered]
    tru = truth.at(np.flatnonzero(fit.merits.covered))
    est = est - est.mean()
    tru = tru - tru.mean()
    return 0.25 * float(np.abs(est - tru).max()) ** 2
