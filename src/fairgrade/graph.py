"""Bipartite exam graphs and their structural analysis.

Students and questions share one vertex numbering: students take indices
0..n-1, questions n..n+q-1. The assignment graph is undirected; the result
graph orients each assigned edge student->question for a correct answer and
question->student for an incorrect one. Bank questions that were never
assigned stay in both graphs as isolated vertices, so grade aggregation can
run over the full bank. Which student reaches which question, and back, comes
from one closure of two-hop reach on the smaller side; mutual reach gives the
strongly connected components (SCCs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping

import numpy as np

from .rng import as_generator


class ParameterOutOfRangeError(ValueError):
    """A parameter lies outside its range, alone or against another one: an
    assignment's 1 <= d <= m <= |Q|, a sample size or a replication count."""


@dataclass(frozen=True)
class Roster:
    """Ordered, disjoint identifier sets for students and the question bank."""

    students: tuple[str, ...]
    questions: tuple[str, ...]

    def __post_init__(self):
        if not self.students or not self.questions:
            raise ValueError("roster needs at least one student and one question")
        if len(set(self.students)) != len(self.students):
            raise ValueError("duplicate student identifiers")
        if len(set(self.questions)) != len(self.questions):
            raise ValueError("duplicate question identifiers")
        if set(self.students) & set(self.questions):
            raise ValueError("student and question identifiers must be disjoint")

    @classmethod
    def index_based(cls, n_students: int, n_questions: int) -> "Roster":
        return cls(
            tuple(f"s{i}" for i in range(n_students)),
            tuple(f"q{j}" for j in range(n_questions)),
        )

    @property
    def n_students(self) -> int:
        return len(self.students)

    @property
    def n_questions(self) -> int:
        return len(self.questions)

    @property
    def n_vertices(self) -> int:
        return len(self.students) + len(self.questions)


def _as_indices(values) -> np.ndarray:
    """`values` as intp; a float or object value the cast changes, such as 0.5, is a ValueError."""
    values = np.asarray(values)
    if values.dtype.kind not in "fO":
        return values.astype(np.intp, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to junk, which the test catches
        indices = values.astype(np.intp)
    if (changed := indices != values).any():
        raise ValueError(f"index {values[changed].flat[0]} is not an integer")
    return indices


@dataclass(frozen=True, eq=False)
class TaskAssignmentGraph:
    """Undirected bipartite graph of which questions each student was asked.

    Edges are (student index, question index) pairs, given as pairs or as an
    (E, 2) array. `edges` stores them as a read-only (E, 2) intp array sorted
    by student, then question, so equal graphs compare equal; `edge_arrays`
    holds its two columns. Zero-degree students are representable (sparse
    data files may contain them); graders reject them at use time.
    """

    roster: Roster
    edges: np.ndarray

    def __post_init__(self):
        s_idx, q_idx = _as_indices(self.edges).reshape(len(self.edges), 2).T
        # a (2, E) array is C-ordered, so each of `edge_arrays` is contiguous
        columns = np.stack((s_idx, q_idx))
        ahead, tied = s_idx[1:] > s_idx[:-1], s_idx[1:] == s_idx[:-1]
        if not (ahead | tied & (q_idx[1:] > q_idx[:-1])).all():  # not sorted, or a repeat
            s_idx, q_idx = columns = columns.take(np.lexsort((q_idx, s_idx)), axis=1)
            if ((np.diff(s_idx) == 0) & (np.diff(q_idx) == 0)).any():
                raise ValueError("duplicate assignment edges")
        outside = (s_idx < 0) | (s_idx >= self.roster.n_students)
        outside |= (q_idx < 0) | (q_idx >= self.roster.n_questions)
        if outside.any():
            i, j = s_idx[outside][0], q_idx[outside][0]
            raise ValueError(f"edge ({i}, {j}) outside roster index range")
        columns.setflags(write=False)
        object.__setattr__(self, "edges", columns.T)
        object.__setattr__(self, "edge_arrays", tuple(columns))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TaskAssignmentGraph)
            and self.roster == other.roster
            and np.array_equal(self.edges, other.edges)
        )

    @cached_property
    def student_degrees(self) -> np.ndarray:
        s_idx, _ = self.edge_arrays
        return np.bincount(s_idx, minlength=self.roster.n_students)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def generate_assignment(roster: Roster, m: int, d: int, seed) -> TaskAssignmentGraph:
    """Randomized assignment: sample m bank questions uniformly without
    replacement, then give each student d of those m, independently.

    Deterministic given the seed.
    """
    check_assignment_sizes(roster, m, d)
    rng = as_generator(seed)
    eligible = _partial_shuffles(rng, roster.n_questions, m, 1)[0]
    picks = eligible[_partial_shuffles(rng, m, d, roster.n_students)]
    students = np.repeat(np.arange(roster.n_students), d)
    return TaskAssignmentGraph(roster, np.column_stack((students, picks.ravel())))


def check_assignment_sizes(roster: Roster, m: int, d: int) -> None:
    """Raise ParameterOutOfRangeError unless 1 <= d <= m <= |Q|."""
    if not (1 <= d <= m <= roster.n_questions):
        raise ParameterOutOfRangeError(
            f"need 1 <= d <= m <= |Q|, got d={d}, m={m}, |Q|={roster.n_questions}"
        )


def _partial_shuffles(rng: np.random.Generator, pool: int, k: int, count: int) -> np.ndarray:
    """First k entries of `count` partial Fisher-Yates shuffles of range(pool): one
    array-bound draw takes the stream of `count` loops of k scalar `rng.integers`
    calls, then step t swaps in every row at once."""
    offsets = rng.integers(np.tile(pool - np.arange(k), count)).reshape(count, k)
    idx = np.tile(np.arange(pool), (count, 1))
    rows = np.arange(count)
    for t in range(k):
        r = t + offsets[:, t]
        idx[rows, t], idx[rows, r] = idx[rows, r], idx[rows, t]
    return idx[:, :k]


@dataclass(frozen=True, eq=False)
class ExamResultGraph:
    """Directed bipartite graph of observed correctness.

    `w` is a read-only uint8 array with the correctness bit of each assigned
    pair, aligned with the rows of `assignment.edges`. w=1 orients the edge
    student->question, w=0 question->student; `directed_edges` holds the
    oriented (tail, head) vertex arrays.
    """

    assignment: TaskAssignmentGraph
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w)
        if w.shape != (self.assignment.n_edges,):
            raise ValueError("one outcome bit per assigned edge required")
        if not ((w == 0) | (w == 1)).all():
            raise ValueError("outcomes must be 0 or 1")
        w = w.astype(np.uint8)  # a private copy: the caller's array stays writable
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @classmethod
    def from_outcomes(
        cls, assignment: TaskAssignmentGraph, outcomes: Mapping[tuple[int, int], int]
    ) -> "ExamResultGraph":
        pairs = np.array(list(outcomes)).reshape(len(outcomes), 2)  # no cast: (0.5, 1) stays wrong
        order = np.lexsort(pairs.T[::-1])  # keys are distinct: sorted, they must be the edges
        if not np.array_equal(pairs[order], assignment.edges):
            raise ValueError("outcome keys must equal the assignment edge set")
        w = np.fromiter(outcomes.values(), dtype=np.uint8, count=len(outcomes))
        return cls(assignment, w[order])

    @property
    def roster(self) -> Roster:
        return self.assignment.roster

    @property
    def outcomes(self) -> dict[tuple[int, int], int]:
        return dict(zip(map(tuple, self.assignment.edges.tolist()), self.w.tolist()))

    @cached_property
    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(tail, head) vertex arrays in edge order: each comparison's winner and loser."""
        s_idx, q_idx = self.assignment.edge_arrays
        q_vertex = q_idx + self.roster.n_students
        correct = self.w == 1
        return np.where(correct, s_idx, q_vertex), np.where(correct, q_vertex, s_idx)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExamResultGraph)
            and self.assignment == other.assignment
            and np.array_equal(self.w, other.w)
        )


class PairCase(Enum):
    """Provenance of one prediction cell."""

    EXISTING_EDGE = 1
    SAME_COMPONENT = 2
    STUDENT_ABOVE = 3  # only the student's SCC reaches the question's
    QUESTION_ABOVE = 4  # only the question's SCC reaches the student's
    INCOMPARABLE = 5


@dataclass(frozen=True, eq=False)
class ComponentStructure:
    """SCC partition plus reachability between students and questions.

    `component_of` maps each roster vertex to its SCC id, in no topological
    order. In the students x bank boolean matrices, `forward[i, j]` says
    student i reaches question j and `backward[i, j]` the converse.
    """

    component_of: np.ndarray
    forward: np.ndarray = field(repr=False)
    backward: np.ndarray = field(repr=False)

    @property
    def n_components(self) -> int:
        return int(self.component_of.max()) + 1

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """Each SCC's vertices, indexed by SCC id."""
        return tuple(frozenset(np.flatnonzero(self.component_of == c).tolist())
                     for c in range(self.n_components))


def _reach(n: int, q: int, s_idx, q_idx, w) -> tuple[np.ndarray, np.ndarray]:
    """(forward, backward) of `ComponentStructure` for n students and q questions
    under the answers `w` (0/1 or bool) to the pairs (s_idx, q_idx).

    A path alternates sides, so two-hop reach within the smaller side, closed
    by repeated squaring (Fischer & Meyer 1971), and one product per side give
    all of it in O(n * q * min(n, q) * log(min(n, q))).
    """
    if q > n:  # square on the question side: swap the roles and reverse every answer
        forward, backward = _reach(q, n, q_idx, s_idx, w == 0)
        return backward.T, forward.T
    win, lose = np.zeros((n, q), dtype=np.float32), np.zeros((q, n), dtype=np.float32)
    win[s_idx, q_idx], lose[q_idx, s_idx] = w, w == 0
    # A product sums nonnegative terms, so it is positive exactly when a path
    # exists, however it rounds; clipping to 1 keeps the operands 0/1. Squaring
    # stops when it changes nothing, after at most ceil(log2(min(n, q))) + 1.
    hops = np.minimum(lose @ win, 1)  # hops[j, j']: question j reaches question j'
    np.fill_diagonal(hops, 1)
    while not np.array_equal(closed := np.minimum(hops @ hops, 1), hops):
        hops = closed
    return win @ hops > 0, (hops @ lose).T > 0


def strongly_connected_components(g: ExamResultGraph) -> ComponentStructure:
    """SCCs of the result digraph plus reachability between the two sides."""
    n, q = g.roster.n_students, g.roster.n_questions
    forward, backward = _reach(n, q, *g.assignment.edge_arrays, g.w)
    # A nontrivial SCC holds students and questions and is named by its first
    # student; every other vertex is a singleton named by itself.
    mutual = forward & backward
    name_q = np.where(mutual.any(axis=0), mutual.argmax(axis=0), n + np.arange(q))
    name_s = np.where(mutual.any(axis=1), name_q[mutual.argmax(axis=1)], np.arange(n))
    component_of = np.unique(np.concatenate((name_s, name_q)), return_inverse=True)[1]
    for array in (component_of, forward, backward):
        array.setflags(write=False)
    return ComponentStructure(component_of, forward, backward)


def _strongly_connected(n: int, q: int, s_idx, q_idx, w) -> bool:
    """Whether, given `_reach`'s arguments, both sides are non-empty and reach each other fully."""
    return n > 0 and q > 0 and all(reach.all() for reach in _reach(n, q, s_idx, q_idx, w))


def is_strongly_connected(g: ExamResultGraph) -> bool:
    """Whether the whole result digraph (full bank included) is one SCC."""
    return _strongly_connected(g.roster.n_students, g.roster.n_questions,
                               *g.assignment.edge_arrays, g.w)


# `_pair_cases`' case of a non-edge by 2 * (student reaches question) + converse
_REACH_CASES = np.array([PairCase.INCOMPARABLE.value, PairCase.QUESTION_ABOVE.value,
                         PairCase.STUDENT_ABOVE.value, PairCase.SAME_COMPONENT.value],
                        dtype=np.int8)


def _pair_cases(c: ComponentStructure, edge: np.ndarray) -> np.ndarray:
    """`PairCase` values (int8) of every student against every bank question,
    where `edge` marks the assigned pairs."""
    reach = np.left_shift(c.forward, 1, dtype=np.int8)
    reach |= c.backward
    return np.where(edge, np.int8(PairCase.EXISTING_EDGE.value), _REACH_CASES[reach])
