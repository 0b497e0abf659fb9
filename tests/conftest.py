import numpy as np
import pytest

from fairgrade import ExamResultGraph, MeritVector, Roster, TaskAssignmentGraph, logistic

# 6 students, 3 questions; outcomes chosen so that s0,s1,q0,q1 form one
# strongly connected block, s2..s5 sit below it, and q2 sits below them.
RUNNING_OUTCOMES = {
    (0, 0): 1, (0, 1): 0,
    (1, 0): 0, (1, 1): 1,
    (2, 0): 0, (2, 2): 1,
    (3, 0): 0, (3, 2): 1,
    (4, 1): 0, (4, 2): 1,
    (5, 1): 0, (5, 2): 1,
}


@pytest.fixture
def running_example() -> ExamResultGraph:
    roster = Roster.index_based(6, 3)
    g = TaskAssignmentGraph(roster, tuple(RUNNING_OUTCOMES))
    return ExamResultGraph.from_outcomes(g, RUNNING_OUTCOMES)


@pytest.fixture
def small_population():
    roster = Roster.index_based(2, 3)
    u = MeritVector.for_roster(roster, [0.5, -0.5], [-1.0, 0.0, 1.0])
    return roster, u


def random_result_graph(rng: np.random.Generator, n: int, q: int) -> ExamResultGraph:
    """Random assignment + outcomes; every student gets >= 1 question."""
    edges = []
    for i in range(n):
        d = int(rng.integers(1, q + 1))
        edges.extend((i, int(j)) for j in rng.permutation(q)[:d])
    g = TaskAssignmentGraph(Roster.index_based(n, q), tuple(edges))
    return ExamResultGraph(g, rng.integers(0, 2, g.n_edges).astype(np.uint8))


def brute_force_reachability(g: ExamResultGraph) -> np.ndarray:
    """reach[a, b]: roster vertex a reaches vertex b (itself included) in g's
    result graph. Warshall's closure of the arcs read off the edge arrays and
    outcome bits; independent of the library's reachability code."""
    n = g.roster.n_students
    s_idx, q_idx = g.assignment.edge_arrays
    reach = np.eye(g.roster.n_vertices, dtype=bool)
    reach[s_idx, n + q_idx] = g.w == 1  # a correct answer: student -> question
    reach[n + q_idx, s_idx] = g.w == 0
    for v in range(len(reach)):
        reach |= reach[:, v, None] & reach[v]
    return reach


def answer_probability(u: MeritVector, roster: Roster, i: int, j: int) -> float:
    """Chance that student i answers question j correctly (roster indices)."""
    return logistic(u[i] - u[roster.n_students + j])
