"""Incentive properties of the two fitted rules, ours and map.

A student should never gain by answering worse: turning one of student i's
wrong answers right never lowers i's grade (own-answer monotonicity), and of
two students given the same questions, one whose right answers contain the
other's never grades below them (dominance). Both hold up to 1e-12, the
rules' rounding, on hypothesis draws and on every outcome of a few small
exams.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairgrade import ExamResultGraph, PriorSpec, Roster, TaskAssignmentGraph, grade, make_map_rule

RULES = {"ours": lambda g: grade(g).values, "map": lambda g: make_map_rule(PriorSpec())(g).values}
SLACK = 1e-12


def exam(assigned: np.ndarray, right: np.ndarray) -> ExamResultGraph:
    """The exam whose student i answers question j where `assigned[i, j]`,
    rightly where `right[i, j]`."""
    n, q = assigned.shape
    g = TaskAssignmentGraph(Roster.index_based(n, q), tuple(zip(*np.nonzero(assigned))))
    return ExamResultGraph(g, right[g.edge_arrays].astype(np.uint8))


@st.composite
def sheets(draw):
    """(assigned, right): an n x q assignment of density about p, every student
    given a question, and the answers, up to paper scale (35 x 22). Sparse
    sheets leave cells in a student's component unanswered, where the fitted
    merits decide the grade."""
    n, q = draw(st.integers(2, 35)), draw(st.integers(2, 22))
    p = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    assigned = rng.random((n, q)) < p
    assigned[np.arange(n), rng.integers(0, q, n)] = True
    return assigned, rng.random((n, q)) < draw(st.floats(0.0, 1.0))


@pytest.mark.parametrize("rule", RULES)
@settings(max_examples=300, deadline=None)
@given(sheet=sheets(), data=st.data())
def test_a_right_answer_never_lowers_its_students_grade(rule, sheet, data):
    assigned, right = sheet
    wrong = np.argwhere(assigned & ~right)
    assume(len(wrong))
    i, j = wrong[data.draw(st.integers(0, len(wrong) - 1))]
    before = RULES[rule](exam(assigned, right))[i]
    right[i, j] = True
    assert RULES[rule](exam(assigned, right))[i] >= before - SLACK


@pytest.mark.parametrize("rule", RULES)
@settings(max_examples=300, deadline=None)
@given(sheet=sheets(), data=st.data())
def test_more_right_answers_on_the_same_questions_never_grade_lower(rule, sheet, data):
    assigned, right = sheet
    n = len(assigned)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 2))
    b += b >= a  # another student
    assigned[b] = assigned[a]
    right[b] |= right[a]
    grades = RULES[rule](exam(assigned, right))
    assert grades[b] >= grades[a] - SLACK


# every outcome of each exam: complete ones, and ones in which some pairs of
# students share their questions and others do not
EXHAUSTIVE = {
    "3x3 complete": np.ones((3, 3), bool),
    "2x5 complete": np.ones((2, 5), bool),
    "4x3 complete": np.ones((4, 3), bool),
    "4x4 degree 3": ~np.eye(4, dtype=bool),
    "5x3 mixed": np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1], [1, 0, 1]], bool),
}


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("name", EXHAUSTIVE)
def test_every_outcome_of_small_exams(rule, name):
    assigned = EXHAUSTIVE[name]
    n_edges = int(assigned.sum())
    assert n_edges <= 16
    # outcome code c sets edge e's bit to bit e of c, edges in row-major order
    bits = (np.arange(2**n_edges)[:, None] >> np.arange(n_edges)) & 1
    grades = np.empty((len(bits), len(assigned)))
    right = np.zeros(assigned.shape, bool)
    for code, outcome in enumerate(bits):
        right[assigned] = outcome
        grades[code] = RULES[rule](exam(assigned, right))
    student = np.nonzero(assigned)[0]  # each edge's student, in the edges' order
    for e in range(n_edges):  # monotonicity: set edge e's bit in every code without it
        without = np.flatnonzero(bits[:, e] == 0)
        i = student[e]
        assert (grades[without + 2**e, i] >= grades[without, i] - SLACK).all()
    for a, b in itertools.permutations(range(len(assigned)), 2):
        if not (assigned[a] == assigned[b]).all():
            continue
        # dominance: every code where b's right answers contain a's
        a_bits, b_bits = bits[:, student == a], bits[:, student == b]
        contains = (b_bits >= a_bits).all(axis=1)
        assert (grades[contains, b] >= grades[contains, a] - SLACK).all()
