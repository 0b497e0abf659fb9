"""Grading rules.

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

from .graph import (
    ComponentStructure,
    ExamResultGraph,
    PairCase,
    Roster,
    strongly_connected_components,
)
from .model import (
    FitReport,
    MeritVector,
    NonConvergenceError,
    PriorSpec,
    logistic,
    map_fit,
    mle_fit,
)


class ZeroDegreeStudentError(ValueError):
    """A student with no assigned questions cannot be graded."""


@dataclass(frozen=True, eq=False)
class GradeVector:
    """Per-student grades in [0, 1], aligned with roster.students."""

    roster: Roster
    values: np.ndarray
    rule_name: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
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


def simple_average(g: ExamResultGraph) -> GradeVector:
    """Fraction of assigned questions each student answered correctly."""
    degrees = g.assignment.student_degrees
    _require_positive_degrees(g.roster, degrees)
    return GradeVector(g.roster, g.student_out_degrees / degrees, "avg")


def _require_positive_degrees(roster: Roster, degrees: np.ndarray) -> None:
    if (degrees == 0).any():
        bad = [roster.students[i] for i in np.flatnonzero(degrees == 0)]
        raise ZeroDegreeStudentError(f"students with no assigned questions: {bad}")


def predict_matrix(
    g: ExamResultGraph,
    tol: float = 1e-8,
    max_iter: int = 10000,
    components: ComponentStructure | None = None,
) -> PredictionMatrix:
    """Fill the full students x bank prediction matrix, case by case."""
    roster = g.roster
    _require_positive_degrees(roster, g.assignment.student_degrees)
    if components is None:
        components = strongly_connected_components(g)
    n, q = roster.n_students, roster.n_questions
    h = np.full((n, q), np.nan)
    tags = np.empty((n, q), dtype=object)

    for (i, j), bit in zip(g.assignment.edges, g.w):
        h[i, j] = bit
        tags[i, j] = PairCase.EXISTING_EDGE

    same_component: dict[int, list[tuple[int, int]]] = {}
    later: list[tuple[int, int, PairCase]] = []
    for i in range(n):
        ci = components.component_of[roster.student_vertex(i)]
        for j in range(q):
            if tags[i, j] is PairCase.EXISTING_EDGE:
                continue
            cj = components.component_of[roster.question_vertex(j)]
            if ci == cj:
                same_component.setdefault(ci, []).append((i, j))
            else:
                forward = components.reaches(ci, cj)
                backward = components.reaches(cj, ci)
                if forward and not backward:
                    later.append((i, j, PairCase.STUDENT_ABOVE))
                elif backward and not forward:
                    later.append((i, j, PairCase.QUESTION_ABOVE))
                else:
                    later.append((i, j, PairCase.INCOMPARABLE))

    for cid, cells in same_component.items():
        try:
            fit = mle_fit(g, components.components[cid], tol=tol, max_iter=max_iter)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"merit fit for component {cid} failed: {exc}", exc.report
            ) from exc
        u = fit.merits
        for i, j in cells:
            h[i, j] = logistic(u[roster.student_vertex(i)] - u[roster.question_vertex(j)])
            tags[i, j] = PairCase.SAME_COMPONENT

    incomparable: list[tuple[int, int]] = []
    for i, j, case in later:
        if case is PairCase.STUDENT_ABOVE:
            h[i, j] = 1.0
        elif case is PairCase.QUESTION_ABOVE:
            h[i, j] = 0.0
        else:
            incomparable.append((i, j))
            tags[i, j] = PairCase.INCOMPARABLE
            continue
        tags[i, j] = case

    if incomparable:
        # row means are frozen over the cells filled by the earlier cases
        with np.errstate(invalid="ignore"):
            row_means = np.nanmean(h, axis=1)
        for i, j in incomparable:
            h[i, j] = row_means[i]

    return PredictionMatrix(roster, h, tags)


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
        u = fit.merits.array_for(roster)
        h = logistic(u[: roster.n_students, None] - u[None, roster.n_students :])
        for (i, j), bit in zip(g.assignment.edges, g.w):
            h[i, j] = bit
        return GradeVector(roster, h.mean(axis=1), "map")

    return rule


def per_student_error_bound(fit: FitReport, truth: MeritVector) -> float:
    """Worst-case squared grade deviation implied by the merit fit error.

    Both vectors are recentred to mean zero over the fitted vertices before
    taking the sup-norm, since only merit differences matter.
    """
    vertices = sorted(fit.merits.values)
    est = np.array([fit.merits[v] for v in vertices])
    tru = np.array([truth[v] for v in vertices])
    est = est - est.mean()
    tru = tru - tru.mean()
    return 0.25 * float(np.abs(est - tru).max()) ** 2
